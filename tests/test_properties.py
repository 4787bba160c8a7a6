"""The property suite's hard gates fail when their subject is broken."""

import numpy as np
import pytest
import scipy.sparse as sp

import fvsde.discrete_ops as ops
import fvsde.noise as noise
import fvsde.scheme as scheme
from fvsde import properties
from fvsde.cli import main
from fvsde.discrete_ops import TpfaOperator


def _one_sided_row_form(w, v):
    # flux leaves K but never reaches L: the row form stops being conservative
    mesh = w.mesh
    flux = mesh.transmissibilities * (w.values[mesh.edge_cells[:, 0]]
                                      - w.values[mesh.edge_cells[:, 1]])
    acc = np.zeros(mesh.n_cells)
    np.add.at(acc, mesh.edge_cells[:, 0], flux)
    return float(np.dot(acc, v.values))


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
        properties._check_mass_identity(np.random.default_rng(0))


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
    def downwind_cells(edge_vel):
        m = edge_vel.mesh
        return np.where(edge_vel.values >= 0.0,
                        m.edge_cells[:, 1], m.edge_cells[:, 0])

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
