"""The property suite: every discrete identity and module invariant, checked
on randomized, seeded inputs.

Each check raises on a violation and otherwise returns a one-line detail;
the suite records a failure and runs on, so one report lists every check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import discrete_ops as ops
from .discrete_ops import TpfaOperator
from .mesh import (TensorMesh, build_tensor_mesh, injection_map, refine,
                   validate_admissibility)
from .noise import NoisePath, TimeGrid, coarsen, sample_path
from .presets import get_preset
from .projections import (SmoothFunctionSpec, centered_projection,
                          cosine_mode_spec, elliptic_projection,
                          elliptic_residual)
from .scheme import energy_balance_defects, run_path, trajectory_mass_defects
from .study import StudyConfig

__all__ = ["PropertyCheck", "PropertyReport", "run_property_suite"]


@dataclass
class PropertyCheck:
    name: str
    passed: bool
    detail: str


@dataclass
class PropertyReport:
    checks: list[PropertyCheck]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _suite_meshes() -> list[TensorMesh]:
    graded = build_tensor_mesh(((0.0, 1.0), (0.0, 1.0)), (5, 3),
                               spacings=[[0.1, 0.15, 0.2, 0.25, 0.3],
                                         [0.5, 0.3, 0.2]])
    return [
        build_tensor_mesh(((0.0, 1.0), (0.0, 1.0)), (4, 4)),
        graded,
        build_tensor_mesh(((0.0, 1.0), (0.0, 1.0), (0.0, 1.0)), (3, 3, 2)),
    ]


def _check_dibp(rng) -> str:
    worst = 0.0
    for mesh in _suite_meshes():
        for _ in range(20):
            w = rng.standard_normal(mesh.n_cells)
            v = rng.standard_normal(mesh.n_cells)
            scale = (np.sqrt(ops.h1_seminorm_sq(mesh, w))
                     * np.sqrt(ops.h1_seminorm_sq(mesh, v)) + 1.0)
            rel = ops.dibp_gap(mesh, w, v) / scale
            worst = max(worst, rel)
            if rel > 1e-12:
                raise AssertionError(f"relative DIBP gap {rel:.3e}")
    return f"worst relative gap {worst:.2e}"


def _check_tpfa_operator(rng) -> str:
    mesh = build_tensor_mesh(((0.0, 1.0), (0.0, 1.0)), (6, 5))
    op = TpfaOperator(mesh)
    worst = 0.0
    for _ in range(10):
        w = rng.standard_normal(mesh.n_cells)
        v = rng.standard_normal(mesh.n_cells)
        lw, lv = op.laplacian_values(w), op.laplacian_values(v)
        sym = abs(ops.integral(mesh, lw * v) - ops.integral(mesh, w * lv))
        worst = max(worst, sym)
        if sym > 1e-10:
            raise AssertionError(f"weighted self-adjointness defect {sym:.3e}")
        if ops.integral(mesh, lw * w) > 1e-10:
            raise AssertionError("operator is not negative semidefinite")
    const = op.laplacian_values(np.ones(mesh.n_cells))
    if np.max(np.abs(const)) > 1e-13:
        raise AssertionError("constants are not in the kernel")
    return f"worst self-adjointness defect {worst:.2e}"


def _check_poincare(rng) -> str:
    mesh = build_tensor_mesh(((0.0, 1.0), (0.0, 1.0)), (8, 8))
    cp = ops.poincare_constant_estimate(mesh)
    # random vectors sit far below the extremal quotient; the lowest Neumann
    # mode attains it, so an estimate that is too small fails on it
    lowest = np.cos(np.pi * mesh.centers[:, 0])
    for w in [lowest] + [rng.standard_normal(mesh.n_cells) for _ in range(30)]:
        f = w - ops.integral(mesh, w) / mesh.domain_measure
        lhs = ops.l2_norm_sq(mesh, f)
        rhs = cp * ops.h1_seminorm_sq(mesh, f) + 1e-10
        if lhs > rhs:
            raise AssertionError(f"Poincare violated: {lhs:.6e} > {rhs:.6e}")
    return f"C_p = {cp:.6f}"


def _check_upwind_telescoping(rng) -> str:
    mesh = build_tensor_mesh(((0.0, 1.0), (0.0, 1.0)), (6, 6))
    worst = 0.0
    for _ in range(10):
        v = rng.standard_normal(mesh.n_interior_edges)
        per_cell = (ops.convection_matrix(mesh, v, 1.0)
                    @ rng.standard_normal(mesh.n_cells))
        total = abs(per_cell.sum())
        scale = np.sum(np.abs(per_cell)) + 1.0
        worst = max(worst, total / scale)
        if total > 1e-12 * scale:
            raise AssertionError(f"upwind flux sum {total:.3e}")
    return f"worst relative defect {worst:.2e}"


def _check_mass_identity() -> str:
    # unequal cells: weighting the sums by anything but the cell measures
    # leaves the fluxes untelescoped
    spacing = [0.05, 0.08, 0.1, 0.12, 0.14, 0.16, 0.17, 0.18]
    for preset in ("additive", "stochastic"):
        problem = get_preset(preset)
        mesh = build_tensor_mesh(problem.domain, (8, 8),
                                 spacings=[spacing, spacing[::-1]])
        grid = TimeGrid(16, problem.horizon)
        for p in range(2):
            path = sample_path(4242, p, 64, problem.horizon)
            traj = run_path(problem, mesh, grid, path)
            defects = trajectory_mass_defects(traj, problem)
            bound = np.arange(1, grid.n_steps + 1) * 1e-9
            if np.any(defects > bound):
                raise AssertionError(
                    f"{preset}: mass defect {defects.max():.3e}")
    return "mass identity holds to n*1e-9 on both noise presets"


def _check_noise_factorization() -> str:
    # f = id, linear beta and g = sigma u make each step (1 + sigma dW_n)
    # J^-1 M u^{n-1}: a noisy path is the noise-free one times the product
    # of the factors.  Not a solver shortcut; it pins the step's algebra.
    worst = 0.0
    for preset in ("stochastic", "lowmode"):
        problem = get_preset(preset)
        sigma = float(problem.g(np.ones(1))[0])
        mesh = build_tensor_mesh(problem.domain, (16, 16))
        grid = TimeGrid(64, problem.horizon)
        path = sample_path(2718, 0, 64, problem.horizon)
        still = NoisePath(path.horizon, path.n_fine, np.zeros(path.n_fine),
                          path.seed, path.path_index)
        noisy = run_path(problem, mesh, grid, path).states
        factors = np.cumprod(np.concatenate(
            [[1.0], 1.0 + sigma * coarsen(path, grid.n_steps)]))
        predicted = factors[:, None] * run_path(problem, mesh, grid,
                                                still).states
        rel = np.max(np.abs(noisy - predicted)) / np.max(np.abs(predicted))
        worst = max(worst, rel)
        if rel > 1e-12:
            raise AssertionError(f"{preset}: noise does not factor out, "
                                 f"relative defect {rel:.3e}")
    return (f"u^n = prod(1 + sigma dW_k) x noise-free u^n to {worst:.2e} "
            "relative on stochastic and lowmode")


def _check_energy(preset: str) -> str:
    problem = get_preset(preset)
    mesh = build_tensor_mesh(problem.domain, (16, 16))
    grid = TimeGrid(32, problem.horizon)
    path = sample_path(7, 0, 32, problem.horizon)
    traj = run_path(problem, mesh, grid, path)
    excess = energy_balance_defects(traj)
    if np.any(excess > 1e-9):
        raise AssertionError(f"energy excess {excess.max():.3e}")
    # with f = id the excess is minus tau times the cumulative upwind
    # dissipation (the stream's edge divergence is rounding), so the
    # inequality is an identity; its defect is rounding, about 1e-16
    # ||u^0||^2 a step, and the bound allows 1e-13 a step
    dissipation = 0.0
    if problem.velocity is not None:
        v = ops.edge_velocity(problem.velocity, mesh, 0.0, grid.tau)
        dissipation = ops.upwind_dissipation(mesh, v, traj.states[1:])
    defect = np.abs(excess + grid.tau * np.cumsum(dissipation))
    bound = (np.arange(1, grid.n_steps + 1) * 1e-13
             * ops.l2_norm_sq(mesh, traj.states[0]))
    if np.any(defect > bound):
        raise AssertionError(f"energy identity defect {defect.max():.3e}")
    return (f"max energy excess {excess.max():.2e}, identity defect "
            f"{defect.max():.2e}")


def _check_projection() -> str:
    spec = cosine_mode_spec()
    spec2 = SmoothFunctionSpec(
        fn=lambda x: np.cos(2 * np.pi * x[:, 0]),
        laplacian=lambda x: -4 * np.pi**2 * np.cos(2 * np.pi * x[:, 0]),
        domain=((0.0, 1.0), (0.0, 1.0)))
    mesh = build_tensor_mesh(spec.domain, (12, 12))
    p1 = elliptic_projection(spec, mesh)
    res = elliptic_residual(spec, mesh, p1.values)
    if res > 1e-11:
        raise AssertionError(f"projection residual {res:.3e}")
    combo = SmoothFunctionSpec(
        fn=lambda x: 2.0 * spec.fn(x) - 3.0 * spec2.fn(x),
        laplacian=lambda x: 2.0 * spec.laplacian(x) - 3.0 * spec2.laplacian(x),
        domain=spec.domain)
    p2 = elliptic_projection(spec2, mesh)
    pc = elliptic_projection(combo, mesh)
    lin = np.max(np.abs(pc.values - (2.0 * p1.values - 3.0 * p2.values)))
    if lin > 1e-9:
        raise AssertionError(f"projection linearity defect {lin:.3e}")
    hat = centered_projection(combo.fn, mesh)
    hat_lin = np.max(np.abs(
        hat.values - (2.0 * centered_projection(spec.fn, mesh).values
                      - 3.0 * centered_projection(spec2.fn, mesh).values)))
    if hat_lin > 1e-12:
        raise AssertionError("centered projection is not linear")
    return f"residual {res:.2e}, linearity defect {lin:.2e}"


def _check_coupling_zero() -> str:
    problem = get_preset("stochastic")
    mesh = build_tensor_mesh(problem.domain, (8, 8))
    grid = TimeGrid(32, problem.horizon)
    path = sample_path(99, 3, 32, problem.horizon)
    a = run_path(problem, mesh, grid, path)
    b = run_path(problem, mesh, grid, path)
    if not np.array_equal(a.states, b.states):
        raise AssertionError("identical runs differ")
    inc = coarsen(path, 32)
    if not np.array_equal(inc, path.increments):
        raise AssertionError("identity coarsening is not exact")
    return "reference coupled against itself gives error 0"


def _check_nested_injection(rng) -> str:
    coarse = build_tensor_mesh(((0.0, 1.0), (0.0, 1.0)), (4, 4))
    fine = refine(refine(coarse))
    w = rng.standard_normal(coarse.n_cells)
    # the lift of a coarse state onto the reference mesh, as the coupled
    # study takes it
    lifted = w[injection_map(coarse, fine)]
    n_c = np.sqrt(ops.l2_norm_sq(coarse, w))
    n_f = np.sqrt(ops.l2_norm_sq(fine, lifted))
    if abs(n_c - n_f) > 1e-13 * (n_c + 1.0):
        raise AssertionError(f"injection changed the norm: {n_c} vs {n_f}")
    # each fine center lies in its parent: locate it among the coarse nodes
    parent = np.ravel_multi_index(
        [np.searchsorted(nodes, fine.centers[:, a]) - 1
         for a, nodes in enumerate(coarse.nodes)], coarse.cell_counts)
    if not np.array_equal(lifted, w[parent]):
        raise AssertionError("injection does not copy each fine cell's parent")
    again = w[injection_map(coarse, fine)]
    if np.max(np.abs(lifted - again)) != 0.0:
        raise AssertionError("injection is not deterministic")
    return "injection copies each fine cell's parent and preserves the norm"


def _check_measurability() -> str:
    problem = get_preset("stochastic")
    mesh = build_tensor_mesh(problem.domain, (6, 6))
    grid = TimeGrid(16, problem.horizon)
    path = sample_path(5, 1, 16, problem.horizon)
    cut = 9
    truncated = NoisePath(path.horizon, path.n_fine,
                          np.concatenate([path.increments[:cut],
                                          np.zeros(16 - cut)]),
                          path.seed, path.path_index)
    a = run_path(problem, mesh, grid, path)
    b = run_path(problem, mesh, grid, truncated)
    if not np.array_equal(a.states[:cut + 1], b.states[:cut + 1]):
        raise AssertionError("state depends on future increments")
    return f"states 0..{cut} depend only on increments 1..{cut}"


def _check_moment_bound() -> str:
    problem = get_preset("stochastic")
    mesh = build_tensor_mesh(problem.domain, (8, 8))
    sups = []
    for n_steps in (32, 64):
        grid = TimeGrid(n_steps, problem.horizon)
        acc = []
        for p in range(16):
            path = sample_path(31337, p, 64, problem.horizon)
            traj = run_path(problem, mesh, grid, path)
            acc.append(ops.l2_norm_sq(mesh, traj.states).max())
        sups.append(float(np.mean(acc)))
    ratio = sups[1] / sups[0]
    if not 0.5 <= ratio <= 2.0:
        raise AssertionError(f"sup_n E||u||^2 moved by {ratio:.3f} under "
                             "tau refinement")
    return f"sup_n E||u||^2: {sups[0]:.4f} vs {sups[1]:.4f} across tau levels"


def _check_mesh_geometry() -> str:
    for mesh in _suite_meshes():
        violations = validate_admissibility(mesh)
        if violations:
            raise AssertionError("; ".join(violations))
    m0 = build_tensor_mesh(((0.0, 1.0), (0.0, 1.0)), (4, 4))
    regs = {m0.regularity}
    m = m0
    for _ in range(2):
        m = refine(m)
        regs.add(m.regularity)
    if len(regs) != 1:
        raise AssertionError(f"reg(T) drifts across levels: {sorted(regs)}")
    return f"admissible; reg(T) = {m0.regularity} constant under refinement"


def run_property_suite(config: StudyConfig) -> PropertyReport:
    """Execute every module invariant on randomized, seeded inputs."""
    rng = np.random.default_rng(config.seed)
    checks: list[tuple[str, Callable[[], str]]] = [
        ("mesh_admissibility_and_regularity", _check_mesh_geometry),
        ("dibp_identity", lambda: _check_dibp(rng)),
        ("tpfa_self_adjoint_negative_kernel", lambda: _check_tpfa_operator(rng)),
        ("discrete_poincare", lambda: _check_poincare(rng)),
        ("upwind_flux_telescoping", lambda: _check_upwind_telescoping(rng)),
        ("mass_martingale_identity", _check_mass_identity),
        ("noise_factorization", _check_noise_factorization),
        ("energy_dissipation_diffusion", lambda: _check_energy("diffusion")),
        ("energy_dissipation_convection", lambda: _check_energy("convection")),
        ("elliptic_projection_contract", _check_projection),
        ("coupling_zero_error", _check_coupling_zero),
        ("nested_injection_zero", lambda: _check_nested_injection(rng)),
        ("measurability_truncation", _check_measurability),
        ("moment_boundedness", _check_moment_bound),
    ]
    out = []
    for name, fn in checks:
        try:
            detail = fn()
            out.append(PropertyCheck(name, True, detail))
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            out.append(PropertyCheck(name, False, f"{type(exc).__name__}: {exc}"))
    return PropertyReport(out)
