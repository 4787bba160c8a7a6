"""The property suite's hard gates fail when their subject is broken."""

import dataclasses
import itertools

import numpy as np
import pytest
import scipy.sparse as sp

import fvsde.discrete_ops as ops
import fvsde.mesh as mesh_mod
import fvsde.noise as noise
import fvsde.scheme as scheme
from fvsde import properties
from fvsde.cli import main
from fvsde.discrete_ops import TpfaOperator
from fvsde.mesh import CellField
from fvsde.study import default_config


def _one_sided_row_form(mesh, w, v):
    # flux leaves K but never reaches L: the row form stops being conservative
    flux = mesh.transmissibilities * (w[mesh.edge_cells[:, 0]]
                                      - w[mesh.edge_cells[:, 1]])
    acc = np.zeros(mesh.n_cells)
    np.add.at(acc, mesh.edge_cells[:, 0], flux)
    return float(np.dot(acc, v))


def _break_dibp(monkeypatch):
    monkeypatch.setattr(ops, "dibp_row_form", _one_sided_row_form)


def test_dibp_check_fails_on_non_conservative_row_form(monkeypatch):
    _break_dibp(monkeypatch)
    with pytest.raises(AssertionError, match="DIBP gap"):
        properties._check_dibp(np.random.default_rng(0))


class _RolledTpfa(TpfaOperator):
    """Each face carries its neighbour's transmissibility: still symmetric,
    with the constants in its kernel, but no longer the TPFA operator."""

    def __init__(self, mesh):
        super().__init__(mesh)
        t = np.roll(mesh.transmissibilities, 1)
        k, l = mesh.edge_cells[:, 0], mesh.edge_cells[:, 1]
        self.stiffness = sp.csr_matrix(
            (np.concatenate([t, t, -t, -t]),
             (np.concatenate([k, l, k, l]), np.concatenate([k, l, l, k]))),
            shape=(mesh.n_cells, mesh.n_cells))


def test_dibp_check_fails_on_the_wrong_stiffness(monkeypatch):
    monkeypatch.setattr(ops, "TpfaOperator", _RolledTpfa)
    with pytest.raises(AssertionError, match="DIBP gap"):
        properties._check_dibp(np.random.default_rng(0))


def test_mass_check_fails_when_the_noise_term_is_scaled(monkeypatch):
    def explicit(self, previous, d_w):
        return self.m * (previous + 1.01 * np.asarray(self.problem.g(previous))
                         * d_w)

    monkeypatch.setattr(scheme.StepWorkspace, "_explicit", explicit)
    with pytest.raises(AssertionError, match="mass defect"):
        properties._check_mass_identity()


def test_noise_factorization_check_fails_when_the_step_is_not_linear_in_dw(
        monkeypatch):
    def explicit(self, previous, d_w):
        g = np.asarray(self.problem.g(previous))
        return self.m * (previous + g * d_w + 0.1 * g * d_w * d_w)

    monkeypatch.setattr(scheme.StepWorkspace, "_explicit", explicit)
    with pytest.raises(AssertionError, match="noise does not factor out"):
        properties._check_noise_factorization()


class _HalfStiffnessTpfa(TpfaOperator):
    """The scheme diffuses at half the rate the energy identity charges."""

    def __init__(self, mesh):
        super().__init__(mesh)
        self.stiffness = 0.5 * self.stiffness


def test_diffusion_energy_check_fails_with_weakened_stiffness(monkeypatch):
    monkeypatch.setattr(scheme, "TpfaOperator", _HalfStiffnessTpfa)
    with pytest.raises(AssertionError, match="energy excess"):
        properties._check_energy("diffusion")


def test_convection_energy_check_fails_when_downwinded(monkeypatch):
    def downwind_cells(m, v):
        return np.where(v >= 0.0, m.edge_cells[:, 1], m.edge_cells[:, 0])

    monkeypatch.setattr(ops, "upwind_cells", downwind_cells)
    with pytest.raises(AssertionError, match="energy excess"):
        properties._check_energy("convection")


def test_measurability_check_fails_on_anticipating_noise(monkeypatch):
    # driving step n with the increment of step N + 1 - n looks ahead
    monkeypatch.setattr(scheme, "coarsen",
                        lambda path, n: noise.coarsen(path, n)[::-1].copy())
    with pytest.raises(AssertionError, match="future increments"):
        properties._check_measurability()


def test_suite_reports_exactly_the_broken_check_and_exits_1(
        monkeypatch, tmp_path, capsys):
    _break_dibp(monkeypatch)
    assert main(["properties", "--out", str(tmp_path)]) == 1
    lines = (tmp_path / "properties.txt").read_text().splitlines()
    assert capsys.readouterr().out.splitlines() == lines
    failed = [line for line in lines if line.startswith("FAIL")]
    assert failed[0].startswith("FAIL  dibp_identity: AssertionError: ")
    assert failed[1:] == ["FAIL  overall"]
    assert len(lines) == len(failed) + 13
    assert all(line.startswith(("PASS  ", "FAIL  ")) for line in lines)


def _perturbed_tpfa(perturb):
    """The TPFA operator with `perturb` applied to its stiffness."""
    class Perturbed(TpfaOperator):
        def __init__(self, mesh):
            super().__init__(mesh)
            self.stiffness = sp.csr_matrix(perturb(self.stiffness))
    return Perturbed


_CONVECTION = ops.convection_matrix
_POINCARE = ops.poincare_constant_estimate
_H1_SQ = ops.h1_seminorm_sq
_PROJECT = properties.elliptic_projection
_CENTER = properties.centered_projection
_RUN_PATH = properties.run_path
_BUILD = properties.build_tensor_mesh
_INJECTION_MAP = mesh_mod.injection_map


def _leaky_convection(mesh, v, tau):
    # the first face's flux leaves K but never reaches L
    n = mesh.n_cells
    flux = tau * mesh.edge_measures[0] * v[0]
    up = ops.upwind_cells(mesh, v)[0]
    return _CONVECTION(mesh, v, tau) + sp.csr_matrix(
        ([flux], ([mesh.edge_cells[0, 1]], [up])), shape=(n, n))


def _rolled_integral(mesh, values):
    # each cell weighted by its neighbour's measure: unchanged on equal cells
    return values @ np.roll(mesh.measures, 1)


def _offset(project, offset):
    # a constant shift leaves every flux, hence the residual, unchanged, but
    # makes the projection affine instead of linear
    def shifted(*args):
        field = project(*args)
        return CellField(field.mesh, field.values + offset)
    return shifted


def _drifting_run_path():
    calls = itertools.count()

    def run(problem, mesh, grid, path, params=None):
        traj = _RUN_PATH(problem, mesh, grid, path, params)
        traj.states[-1] += 1e-9 * next(calls)
        return traj
    return run


def _rolling_injection_map():
    # equal fine cells: a rolled parent map keeps the norm, not the values
    calls = itertools.count()
    return lambda coarse, fine: np.roll(_INJECTION_MAP(coarse, fine),
                                        next(calls))


def _rolled_injection_map(coarse, fine):
    # a fixed wrong parent map: deterministic, and norm-preserving on equal
    # fine cells
    return np.roll(_INJECTION_MAP(coarse, fine), 1)


def _step_count_scaled_run_path(problem, mesh, grid, path, params=None):
    traj = _RUN_PATH(problem, mesh, grid, path, params)
    traj.states *= grid.n_steps
    return traj


def _mismeasured_mesh(*args, **kwargs):
    mesh = _BUILD(*args, **kwargs)
    return dataclasses.replace(mesh, edge_distances=1.1 * mesh.edge_distances)


def _x_only_refine(mesh):
    # halves the first axis only, so the cells stretch level by level
    return _BUILD(tuple(zip(mesh.lower, mesh.upper)),
                  (2 * mesh.cell_counts[0],) + mesh.cell_counts[1:])


def _case(check, module, attribute, broken, message, case_id):
    return pytest.param(check, module, attribute, broken, message, id=case_id)


# (check, module, attribute, broken replacement, message prefix); each
# replacement is built per case so that its counters start afresh
BROKEN_SUBJECTS = [
    _case("tpfa_self_adjoint_negative_kernel", properties, "TpfaOperator",
          lambda: _perturbed_tpfa(
              lambda a: a + 1e-3 * sp.eye(a.shape[0], k=1)),
          "weighted self-adjointness defect", "non_symmetric_stiffness"),
    _case("tpfa_self_adjoint_negative_kernel", properties, "TpfaOperator",
          lambda: _perturbed_tpfa(lambda a: -a),
          "operator is not negative semidefinite", "negated_stiffness"),
    _case("tpfa_self_adjoint_negative_kernel", properties, "TpfaOperator",
          lambda: _perturbed_tpfa(lambda a: a + 1e-3 * sp.eye(a.shape[0])),
          "constants are not in the kernel", "shifted_stiffness"),
    _case("discrete_poincare", ops, "poincare_constant_estimate",
          lambda: lambda mesh: 0.01 * _POINCARE(mesh), "Poincare violated",
          "small_poincare_constant"),
    # the lowest Neumann mode attains C_p, so a factor 2 is caught too
    _case("discrete_poincare", ops, "poincare_constant_estimate",
          lambda: lambda mesh: 0.5 * _POINCARE(mesh), "Poincare violated",
          "half_poincare_constant"),
    # the norm the gates read is the one discrete_ops computes
    _case("discrete_poincare", ops, "h1_seminorm_sq",
          lambda: lambda mesh, values: 0.99 * _H1_SQ(mesh, values),
          "Poincare violated", "shrunk_seminorm"),
    _case("energy_dissipation_diffusion", ops, "h1_seminorm_sq",
          lambda: lambda mesh, values: 1.01 * _H1_SQ(mesh, values),
          "energy excess", "stretched_seminorm"),
    # both energy gates charge the upwind dissipation (none without a
    # velocity), so they are identities and see an error of either sign
    _case("energy_dissipation_diffusion", ops, "h1_seminorm_sq",
          lambda: lambda mesh, values: 0.99 * _H1_SQ(mesh, values),
          "energy identity defect", "shrunk_seminorm_diffusion"),
    _case("energy_dissipation_convection", ops, "h1_seminorm_sq",
          lambda: lambda mesh, values: 1.01 * _H1_SQ(mesh, values),
          "energy identity defect", "stretched_seminorm_convection"),
    # the mass identity's sums must weight each cell by its own measure
    _case("mass_martingale_identity", ops, "integral",
          lambda: _rolled_integral, "additive: mass defect", "rolled_measures"),
    _case("upwind_flux_telescoping", ops, "convection_matrix",
          lambda: _leaky_convection, "upwind flux sum", "leaky_face"),
    _case("elliptic_projection_contract", properties, "elliptic_projection",
          lambda: lambda spec, mesh: CellField(
              mesh, _PROJECT(spec, mesh).values * 1.001),
          "projection residual", "scaled_projection"),
    _case("elliptic_projection_contract", properties, "elliptic_projection",
          lambda: _offset(_PROJECT, 1e-6), "projection linearity defect",
          "affine_projection"),
    _case("elliptic_projection_contract", properties, "centered_projection",
          lambda: _offset(_CENTER, 1e-6), "centered projection is not linear",
          "affine_centered_projection"),
    _case("coupling_zero_error", properties, "run_path", _drifting_run_path,
          "identical runs differ", "drifting_runs"),
    _case("coupling_zero_error", properties, "coarsen",
          lambda: lambda path, n: noise.coarsen(path, n)[::-1].copy(),
          "identity coarsening is not exact", "reversed_coarsening"),
    _case("nested_injection_zero", properties, "injection_map",
          _rolling_injection_map, "injection is not deterministic",
          "rolling_injection"),
    _case("nested_injection_zero", properties, "injection_map",
          lambda: _rolled_injection_map, "injection does not copy each fine "
          "cell's parent", "rolled_parent_map"),
    _case("moment_boundedness", properties, "run_path",
          lambda: _step_count_scaled_run_path, "sup_n E||u||^2 moved",
          "step_count_scaled_states"),
    _case("mesh_admissibility_and_regularity", properties,
          "build_tensor_mesh", lambda: _mismeasured_mesh,
          "distance: edge 0 stores d_KL=", "mismeasured_distances"),
    _case("mesh_admissibility_and_regularity", properties, "refine",
          lambda: _x_only_refine, "reg(T) drifts across levels",
          "one_axis_refinement"),
]


@pytest.mark.parametrize("check, module, attribute, broken, message",
                         BROKEN_SUBJECTS)
def test_suite_reports_each_broken_subject(check, module, attribute, broken,
                                           message, monkeypatch):
    monkeypatch.setattr(module, attribute, broken())
    report = properties.run_property_suite(default_config("properties"))
    (result,) = [c for c in report.checks if c.name == check]
    assert not result.passed
    assert result.detail.startswith(f"AssertionError: {message}"), \
        result.detail
