import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import fvsde.discrete_ops as ops
from fvsde.discrete_ops import integral, l2_norm_sq
from fvsde.errors import (CouplingError, SolverError, StabilityWarning,
                          StepFailure)
from fvsde.mesh import build_tensor_mesh, cell_average
from fvsde.noise import NoisePath, TimeGrid, coarsen, sample_path
from fvsde.presets import get_preset, stream_velocity
from fvsde.scheme import (ProblemSpec, StepperParams, StepWorkspace,
                          build_workspace, energy_balance_defects,
                          integrate_workspace, run_path,
                          trajectory_mass_defects)

UNIT_SQUARE = ((0.0, 1.0), (0.0, 1.0))


def _identity(u):
    return np.asarray(u, dtype=float)


def _one(u):
    return np.ones_like(np.asarray(u, dtype=float))


def _zero(u):
    return np.zeros_like(np.asarray(u, dtype=float))


def _custom(name, u0_const, beta=None, beta_prime=None, g=None, horizon=0.2,
            f=None, f_prime=None, **kw):
    return ProblemSpec(
        name=name,
        domain=UNIT_SQUARE,
        horizon=horizon,
        u0=lambda x: np.full(x.shape[0], u0_const),
        f=f or _identity, f_prime=f_prime or _one,
        beta=beta or _zero, beta_prime=beta_prime or _zero,
        g=g or _zero,
        velocity=None,
        **kw)


def test_problem_spec_rejects_bad_coefficients():
    with pytest.raises(ValueError):
        _custom("bad_f", 1.0, f=lambda u: np.asarray(u) + 1.0)
    with pytest.raises(ValueError):
        _custom("bad_beta", 1.0, beta=lambda u: np.asarray(u) + 0.5,
                beta_prime=_one)
    with pytest.raises(ValueError):
        _custom("decreasing_f", 1.0, f=lambda u: -np.asarray(u))


def test_residual_zero_at_diffusive_steady_state():
    problem = _custom("steady", 3.0)
    mesh = build_tensor_mesh(UNIT_SQUARE, (4, 4))
    state = np.full(16, 3.0)
    r = StepWorkspace(problem, mesh, 0.05).residual(state, state, 0.0)
    np.testing.assert_allclose(r, 0.0, atol=1e-14)


def test_residual_sum_telescopes_to_closed_form():
    # summing the per-cell residual over K cancels every flux term, leaving
    # sum m (u - u_prev) - dW sum m g(u_prev) - tau sum m beta(u)
    problem = get_preset("stochastic")
    mesh = build_tensor_mesh(UNIT_SQUARE, (6, 6))
    rng = np.random.default_rng(42)
    cand = rng.standard_normal(36)
    prev = rng.standard_normal(36)
    tau, d_w = 0.01, 0.37
    r = StepWorkspace(problem, mesh, tau).residual(cand, prev, d_w)
    m = mesh.measures
    expected = (np.sum(m * (cand - prev))
                - d_w * np.sum(m * problem.g(prev))
                - tau * np.sum(m * problem.beta(cand)))
    scale = np.sum(np.abs(r)) + 1.0
    assert abs(r.sum() - expected) <= 1e-13 * scale


def test_newton_one_iteration_for_affine_problem():
    problem = get_preset("stochastic")
    mesh = build_tensor_mesh(problem.domain, (8, 8))
    grid = TimeGrid(8, problem.horizon)
    path = sample_path(3, 0, 8, problem.horizon)
    traj = run_path(problem, mesh, grid, path)
    assert traj.newton_iterations == [1] * 8
    assert max(traj.residual_norms) < 1e-11 * 10


def test_pure_diffusion_preserves_mass():
    problem = get_preset("diffusion")
    mesh = build_tensor_mesh(problem.domain, (8, 8))
    grid = TimeGrid(4, problem.horizon)
    path = sample_path(1, 0, 4, problem.horizon)
    traj = run_path(problem, mesh, grid, path)
    m0 = integral(mesh, traj.states[0])
    for n in range(1, 5):
        assert abs(integral(mesh, traj.states[n]) - m0) <= 1e-11


def test_scalar_implicit_euler_closed_form():
    # beta(u) = u, f = 0, g = 0, constant state: one step solves
    # u1 = c / (1 - tau) exactly (per-cell scalar implicit Euler)
    problem = _custom("reaction", 2.0, beta=_identity, beta_prime=_one,
                      f=_zero, f_prime=_zero, horizon=0.2)
    mesh = build_tensor_mesh(UNIT_SQUARE, (3, 3))
    grid = TimeGrid(1, 0.2)
    path = NoisePath(0.2, 1, np.zeros(1), 0, 0)
    traj = run_path(problem, mesh, grid, path)
    np.testing.assert_allclose(traj.states[1], 2.0 / (1.0 - 0.2), rtol=1e-12)


def test_additive_constant_shift_closed_form():
    # g = 1, everything else zero, constant datum: u1 = u0 + dW per cell
    problem = _custom("shift", 2.0, g=_one, f=_zero, f_prime=_zero)
    mesh = build_tensor_mesh(UNIT_SQUARE, (3, 3))
    grid = TimeGrid(1, 0.2)
    d_w = 0.731
    path = NoisePath(0.2, 1, np.array([d_w]), 0, 0)
    traj = run_path(problem, mesh, grid, path)
    np.testing.assert_allclose(traj.states[1], 2.0 + d_w, rtol=1e-12)


def test_jacobian_matches_finite_differences():
    problem = get_preset("nonlinear")
    mesh = build_tensor_mesh(problem.domain, (4, 4))
    tau = 0.01
    ws = StepWorkspace(problem, mesh, tau)
    rng = np.random.default_rng(17)
    u = rng.standard_normal(16)
    prev = rng.standard_normal(16)
    jac = ws.jacobian(u).toarray()
    eps = 1e-7
    for j in range(16):
        up = u.copy(); up[j] += eps
        dn = u.copy(); dn[j] -= eps
        col = (ws.residual(up, prev, 0.0) - ws.residual(dn, prev, 0.0)) / (2 * eps)
        np.testing.assert_allclose(jac[:, j], col, atol=1e-6)


def _jacobian_as_sparse_sum(ws, u):
    """The Jacobian as sparse sums: diag(m (1 - tau beta'(u))) + tau A, plus
    the convection matrix with each entry scaled by f' of its column."""
    p = ws.problem
    j = (sp.diags(ws.m * (1.0 - ws.tau * p.beta_prime(u)))
         + ws.tau * ws.stiffness)
    if ws.conv is not None:
        conv = ws.conv.copy()
        conv.data *= p.f_prime(u)[conv.indices]
        j = j + conv
    return j.toarray()


@pytest.mark.parametrize("problem, cells, convection", [
    (get_preset("nonlinear"), (4, 4), True),
    (dataclasses.replace(get_preset("nonlinear"), velocity=None), (4, 4),
     False),
    (get_preset("nonlinear"), (5, 3), True),
    (get_preset("nonlinear"), (1, 1), False),   # no interior edges
])
def test_jacobian_equals_written_out_sparse_sum(problem, cells, convection):
    mesh = build_tensor_mesh(problem.domain, cells)
    ws = build_workspace(problem, mesh, 0.01)
    assert ws.lu is None
    assert (ws.conv is not None) == convection
    u = np.random.default_rng(5).standard_normal(mesh.n_cells)
    assert np.array_equal(ws.jacobian(u).toarray(), _jacobian_as_sparse_sum(ws, u))


def _cube_stream(t, x):
    """The 2-D stream field in the first two axes, zero in the third."""
    out = np.zeros_like(np.asarray(x, dtype=float))
    out[:, :2] = stream_velocity(t, x[:, :2])
    return out


@pytest.mark.parametrize("problem, cells, spacings", [
    (get_preset("nonlinear"), (4, 4), None),
    (dataclasses.replace(get_preset("nonlinear"), velocity=None), (4, 4),
     None),
    (get_preset("nonlinear"), (5, 3),
     [[0.1, 0.15, 0.2, 0.25, 0.3], [0.5, 0.3, 0.2]]),
    (get_preset("nonlinear"), (1, 1), None),
    (dataclasses.replace(get_preset("nonlinear"), domain=((0.0, 1.0),) * 3,
                         velocity=_cube_stream), (3, 3, 2), None),
])
def test_banded_solve_equals_sparse_direct_solve(problem, cells, spacings):
    mesh = build_tensor_mesh(problem.domain, cells, spacings=spacings)
    ws = build_workspace(problem, mesh, 0.01)
    assert ws.lu is None
    rng = np.random.default_rng(9)
    u = rng.standard_normal(mesh.n_cells)
    rhs = rng.standard_normal(mesh.n_cells)
    want = spla.spsolve(ws.jacobian(u).tocsc(), rhs)
    got = ws._band_solve(ws._summands(u), rhs.copy())
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_singular_newton_jacobian_is_a_solver_error():
    # beta(u) = 4u (L_beta = 4) beside a non-linear f, with tau = 1/4, leaves
    # J = tau A at u = 0, whose kernel holds the constants.  On two cells the
    # elimination is exact and meets a zero pivot; on 2x2 rounding leaves a
    # tiny one and Newton stalls.
    problem = _custom("singular", 1.0, beta=lambda u: 4.0 * np.asarray(u),
                      beta_prime=lambda u: np.full_like(u, 4.0), f=np.tanh,
                      f_prime=lambda u: 1.0 - np.tanh(u)**2, horizon=0.25)
    assert not problem.affine and problem.lipschitz_beta == 4.0
    mesh = build_tensor_mesh(UNIT_SQUARE, (2, 1))
    with pytest.warns(StabilityWarning), \
            pytest.raises(SolverError, match="^singular Jacobian$") as exc:
        run_path(problem, mesh, TimeGrid(1, 0.25),
                 NoisePath(0.25, 1, np.zeros(1), 0, 0))
    assert not isinstance(exc.value, StepFailure)


def test_singular_affine_jacobian_is_a_solver_error():
    # the affine twin of the case above: SuperLU meets the exact zero pivot
    # of J = tau A while factorizing, and its RuntimeError is re-raised
    problem = _custom("singular_affine", 1.0,
                      beta=lambda u: 4.0 * np.asarray(u),
                      beta_prime=lambda u: np.full_like(u, 4.0), horizon=0.25)
    assert problem.affine
    mesh = build_tensor_mesh(UNIT_SQUARE, (2, 1))
    with pytest.warns(StabilityWarning), pytest.raises(
            SolverError, match="^Jacobian factorization failed: .*singular"):
        build_workspace(problem, mesh, 0.25)


def test_nonlinear_newton_converges():
    problem = get_preset("nonlinear")
    mesh = build_tensor_mesh(problem.domain, (8, 8))
    grid = TimeGrid(8, problem.horizon)
    path = sample_path(11, 0, 8, problem.horizon)
    traj = run_path(problem, mesh, grid, path)
    assert max(traj.newton_iterations) >= 2
    assert max(traj.residual_norms) < 1e-10


def test_mass_martingale_identity_additive_noise():
    # g = c, beta = 0: int u^n - int u^0 = c |Lambda| W(t_n)
    problem = get_preset("additive")
    mesh = build_tensor_mesh(problem.domain, (8, 8))
    grid = TimeGrid(32, problem.horizon)
    path = sample_path(6, 0, 128, problem.horizon)
    traj = run_path(problem, mesh, grid, path)
    w = np.concatenate([[0.0], np.cumsum(coarsen(path, 32))])
    m0 = integral(mesh, traj.states[0])
    for n in range(1, 33):
        defect = abs(integral(mesh, traj.states[n]) - m0 - 0.5 * 1.0 * w[n])
        assert defect <= n * 1e-9


def test_mass_identity_general_coefficients():
    problem = get_preset("stochastic")
    mesh = build_tensor_mesh(problem.domain, (8, 8))
    grid = TimeGrid(16, problem.horizon)
    path = sample_path(8, 1, 64, problem.horizon)
    traj = run_path(problem, mesh, grid, path)
    defects = trajectory_mass_defects(traj, problem)
    assert np.all(defects <= np.arange(1, 17) * 1e-9)
    # per-step loop form of the same identity, summed in another order
    m = mesh.measures
    predicted = traj.states[0] @ m + np.cumsum([
        traj.increments[k] * np.dot(m, problem.g(traj.states[k]))
        + grid.tau * np.dot(m, problem.beta(traj.states[k + 1]))
        for k in range(16)])
    np.testing.assert_allclose(defects, np.abs(traj.states[1:] @ m - predicted),
                               rtol=0.0, atol=1e-14)


def test_energy_identity_pure_diffusion_is_tight():
    problem = get_preset("diffusion")
    mesh = build_tensor_mesh(problem.domain, (16, 16))
    grid = TimeGrid(16, problem.horizon)
    path = NoisePath(problem.horizon, 16, np.zeros(16), 0, 0)
    traj = run_path(problem, mesh, grid, path)
    excess = energy_balance_defects(traj)
    # equality up to accumulated solver tolerance, and never above it
    assert np.max(np.abs(excess)) <= 1e-9


def test_energy_inequality_with_upwind_convection():
    problem = get_preset("convection")
    mesh = build_tensor_mesh(problem.domain, (16, 16))
    grid = TimeGrid(16, problem.horizon)
    path = NoisePath(problem.horizon, 16, np.zeros(16), 0, 0)
    traj = run_path(problem, mesh, grid, path)
    excess = energy_balance_defects(traj)
    assert np.all(excess <= 1e-9)
    # upwinding strictly dissipates here
    assert excess[-1] < 0.0


def test_downwind_mutation_breaks_energy_inequality(monkeypatch):
    problem = get_preset("convection")
    mesh = build_tensor_mesh(problem.domain, (16, 16))
    grid = TimeGrid(16, problem.horizon)
    path = NoisePath(problem.horizon, 16, np.zeros(16), 0, 0)

    def downwind_cells(m, v):
        return np.where(v >= 0.0, m.edge_cells[:, 1], m.edge_cells[:, 0])

    monkeypatch.setattr(ops, "upwind_cells", downwind_cells)
    traj = run_path(problem, mesh, grid, path)
    excess = energy_balance_defects(traj)
    assert np.max(excess) > 1e-9


def test_convection_steps_with_the_velocity():
    # one step of f = id, beta = 0, g = 0 solves (diag(m) + tau A + C) u =
    # m u0, C built face by face from the face velocities; the datum lacks
    # the x <-> y reflection symmetry that maps the stream field to its
    # negative, so a reversed velocity changes the step
    problem = get_preset("convection")
    mesh = build_tensor_mesh(problem.domain, (5, 4))
    tau = 0.01
    u0 = 1.0 + np.random.default_rng(3).random(mesh.n_cells)
    ws = StepWorkspace(problem, mesh, tau)
    u, _, _ = ws.advance(u0, 0.0, StepperParams())

    v = ops.edge_velocity(problem.velocity, mesh, 0.0, tau)
    assert np.any(v > 0.0) and np.any(v < 0.0)
    conv = np.zeros((mesh.n_cells, mesh.n_cells))
    for j, (k, l) in enumerate(mesh.edge_cells):
        upstream = k if v[j] >= 0.0 else l
        flux = tau * mesh.edge_measures[j] * v[j]
        conv[k, upstream] += flux
        conv[l, upstream] -= flux
    system = (np.diag(mesh.measures) + tau * ops.TpfaOperator(mesh)
              .stiffness.toarray() + conv)
    expected = np.linalg.solve(system, mesh.measures * u0)
    np.testing.assert_allclose(u, expected, rtol=1e-12, atol=0.0)


def test_trajectory_is_deterministic():
    problem = get_preset("stochastic")
    mesh = build_tensor_mesh(problem.domain, (6, 6))
    grid = TimeGrid(8, problem.horizon)
    path = sample_path(1234, 5, 32, problem.horizon)
    a = run_path(problem, mesh, grid, path)
    b = run_path(problem, mesh, grid, path)
    assert np.array_equal(a.states, b.states)


def test_states_depend_only_on_past_increments():
    problem = get_preset("stochastic")
    mesh = build_tensor_mesh(problem.domain, (5, 5))
    grid = TimeGrid(12, problem.horizon)
    path = sample_path(2, 0, 12, problem.horizon)
    cut = 7
    inc = path.increments.copy()
    inc[cut:] = 0.0
    truncated = NoisePath(path.horizon, path.n_fine, inc, path.seed,
                          path.path_index)
    a = run_path(problem, mesh, grid, path)
    b = run_path(problem, mesh, grid, truncated)
    assert np.array_equal(a.states[:cut + 1], b.states[:cut + 1])
    assert not np.array_equal(a.states[cut + 1], b.states[cut + 1])


def test_step_failure_carries_step_index():
    # the affine preset takes the direct step when iterations are allowed;
    # with none it must fail the residual check at u^{n-1} like Newton does
    for preset in ("nonlinear", "stochastic"):
        problem = get_preset(preset)
        mesh = build_tensor_mesh(problem.domain, (4, 4))
        grid = TimeGrid(4, problem.horizon)
        path = sample_path(3, 3, 4, problem.horizon)
        params = StepperParams(max_newton_iterations=0)
        with pytest.raises(StepFailure) as info:
            run_path(problem, mesh, grid, path, params)
        assert info.value.step == 1
        assert info.value.residual is not None and info.value.residual > 0.0


@pytest.mark.parametrize("settings", [
    {"max_newton_iterations": -1},
    {"newton_tol": 0.0},
    {"newton_tol": -1e-11},
    {"newton_tol": float("nan")},
], ids=["negative_iterations", "zero_tol", "negative_tol", "nan_tol"])
def test_stepper_params_reject_bad_newton_settings(settings):
    with pytest.raises(ValueError, match=next(iter(settings))):
        StepperParams(**settings)
    assert StepperParams(max_newton_iterations=0).max_newton_iterations == 0


def _blowup():
    # deriving noise_factorizes compares g(s) with g(1) s, which is
    # inf * 0 at s = 0 for this g
    with np.errstate(invalid="ignore"):
        return _custom("blowup", 1.0, g=lambda u: np.full_like(
            np.asarray(u, dtype=float), np.inf))


def test_non_finite_step_is_a_solver_error():
    mesh = build_tensor_mesh(UNIT_SQUARE, (3, 3))
    path = NoisePath(0.2, 1, np.array([0.5]), 0, 0)
    with pytest.raises(SolverError) as info:
        run_path(_blowup(), mesh, TimeGrid(1, 0.2), path)
    assert not isinstance(info.value, StepFailure)


def test_non_finite_state_in_a_block_is_a_solver_error():
    # the case above, three paths stepped as one block
    mesh = build_tensor_mesh(UNIT_SQUARE, (3, 3))
    ws = build_workspace(_blowup(), mesh, 0.2)
    with pytest.raises(SolverError, match=r"^singular Jacobian \(non-finite "
                                          r"state\)$") as info:
        integrate_workspace(ws, np.ones(mesh.n_cells), np.full((3, 1), 0.5),
                            StepperParams())
    assert not isinstance(info.value, StepFailure)


# beta(u) = 0.2u + 0.05 max(u - 5, 0)^3 is affine on the sample grid [-5, 5]
# but not beyond, and the datum lies above 5: the LU of the Jacobian at zero
# is only a chord, so some step needs a second iteration
BEYOND_SAMPLES = dataclasses.replace(
    get_preset("stochastic"), name="beyond_samples",
    u0=lambda x: 6.0 + 0.5 * np.prod(np.cos(np.pi * x), axis=-1),
    beta=lambda u: 0.2 * u + 0.05 * np.maximum(u - 5.0, 0.0) ** 3,
    beta_prime=lambda u: 0.2 + 0.15 * np.maximum(u - 5.0, 0.0) ** 2)


def test_direct_step_checks_the_true_residual():
    # every step must meet the residual contract with the true beta
    problem = BEYOND_SAMPLES
    assert problem.affine and problem.lipschitz_beta == 0.2
    mesh = build_tensor_mesh(problem.domain, (8, 8))
    grid = TimeGrid(8, problem.horizon)
    path = sample_path(4, 0, 8, problem.horizon)
    params = StepperParams()
    traj = run_path(problem, mesh, grid, path, params)
    assert max(traj.newton_iterations) >= 2
    ws = build_workspace(problem, mesh, grid.tau)
    for n in range(1, grid.n_steps + 1):
        prev = traj.states[n - 1]
        r = ws.residual(traj.states[n], prev, traj.increments[n - 1])
        scale = max(1.0, np.sqrt(np.sum(mesh.measures * prev**2)))
        assert np.sqrt(np.sum(r * r / mesh.measures)) <= params.newton_tol * scale


def test_stability_warning_on_large_tau_lbeta():
    problem = _custom("stiff_reaction", 1.0, beta=_identity, beta_prime=_one,
                      f=_zero, f_prime=_zero, horizon=0.8)
    mesh = build_tensor_mesh(UNIT_SQUARE, (2, 2))
    with pytest.warns(StabilityWarning):
        run_path(problem, mesh, TimeGrid(1, 0.8),
                 NoisePath(0.8, 1, np.zeros(1), 0, 0))


def test_build_workspace_warns_on_large_tau_lbeta():
    problem = _custom("stiff_reaction", 1.0, beta=_identity, beta_prime=_one,
                      f=_zero, f_prime=_zero, horizon=0.8)
    mesh = build_tensor_mesh(UNIT_SQUARE, (2, 2))
    with pytest.warns(StabilityWarning, match="tau \\* L_beta = 0.8"):
        build_workspace(problem, mesh, 0.8)


def test_run_path_refuses_a_path_with_another_horizon():
    problem = get_preset("stochastic")
    mesh = build_tensor_mesh(problem.domain, (2, 2))
    with pytest.raises(CouplingError, match="horizon"):
        run_path(problem, mesh, TimeGrid(4, problem.horizon),
                 sample_path(1, 0, 4, 2.0 * problem.horizon))


@pytest.mark.parametrize("preset", ["diffusion", "nonlinear"])
def test_newton_advance_matches_run_path_step(preset):
    # affine (a direct solve) and Newton on the banded LU
    problem = get_preset(preset)
    mesh = build_tensor_mesh(problem.domain, (6, 6))
    prev = cell_average(problem.u0, mesh)
    ws = build_workspace(problem, mesh, 0.01)
    assert (ws.lu is None) is not problem.affine
    u, iterations, residual = ws.advance(prev.values, 0.0, StepperParams())
    assert type(u) is np.ndarray and u.shape == (mesh.n_cells,)
    assert type(iterations) is int and type(residual) is float
    grid = TimeGrid(1, 0.01 * 1)
    # same tau, zero noise: one run_path step must agree bitwise
    traj = run_path(dataclasses.replace(problem, horizon=0.01),
                    mesh, grid, NoisePath(0.01, 1, np.zeros(1), 0, 0))
    assert np.array_equal(traj.states[1], u)
    assert traj.newton_iterations == [iterations]
    assert traj.residual_norms == [residual]
    assert 1 <= iterations <= 2
    assert l2_norm_sq(mesh, u) <= l2_norm_sq(mesh, prev.values)


@pytest.mark.parametrize("preset, cells", [
    ("stochastic", (8, 8)),          # affine: one direct SuperLU solve a step
    ("nonlinear", (8, 8)),           # Newton on the banded LU
    ("heat3d", (3, 3, 2)),
])
def test_integrate_workspace_keeps_exactly_the_requested_rows(preset, cells):
    problem = get_preset(preset)
    mesh = build_tensor_mesh(problem.domain, cells)
    n = 16
    ws = build_workspace(problem, mesh, TimeGrid(n, problem.horizon).tau)
    u0 = cell_average(problem.u0, mesh).values
    inc = coarsen(sample_path(21, 3, 64, problem.horizon), n)
    params = StepperParams()
    full, iters, resid = integrate_workspace(ws, u0, inc, params)
    assert full.shape == (n + 1, mesh.n_cells)
    for rows in ([n], [0], [0, 5, n], [3, 4, 9], list(range(n + 1))):
        kept, kept_iters, kept_resid = integrate_workspace(
            ws, u0, inc, params, np.array(rows))
        assert np.array_equal(kept, full[rows])
        assert kept_iters == iters and kept_resid == resid
    # run_path steps through the same loop: a path whose block sums are the
    # increments gives the same trajectory bit for bit
    path = NoisePath(problem.horizon, n, inc, 21, 3)
    traj = run_path(problem, mesh, TimeGrid(n, problem.horizon), path, params)
    assert np.array_equal(traj.states, full)
    assert traj.newton_iterations == iters and traj.residual_norms == resid


@pytest.mark.parametrize("rows", [[3, 2], [1, 1], [-1, 4], [0, 9], [[0, 1]],
                                  [0.0, 8.0]])
def test_integrate_workspace_rejects_bad_rows(rows):
    problem = get_preset("stochastic")
    mesh = build_tensor_mesh(problem.domain, (4, 4))
    ws = build_workspace(problem, mesh, TimeGrid(8, problem.horizon).tau)
    u0 = cell_average(problem.u0, mesh).values
    with pytest.raises(ValueError, match="rows"):
        integrate_workspace(ws, u0, np.zeros(8), StepperParams(),
                            np.array(rows))


_GRADED = [[0.1, 0.15, 0.2, 0.25, 0.3], [0.5, 0.3, 0.2]]


@pytest.mark.parametrize("problem, cells, spacings", [
    (get_preset("nonlinear"), (8, 8), None),          # with convection
    (dataclasses.replace(get_preset("nonlinear"), velocity=None), (8, 8),
     None),
    (get_preset("nonlinear"), (5, 3), _GRADED),
    (dataclasses.replace(get_preset("heat3d"), f=np.tanh,
                         f_prime=lambda u: 1.0 - np.tanh(u) ** 2),
     (3, 3, 2), None),
    (get_preset("stochastic"), (8, 8), None),         # affine: direct only
    (BEYOND_SAMPLES, (8, 8), None),                   # affine with chords
], ids=["nonlinear", "nonlinear_no_velocity", "nonlinear_graded",
        "heat3d_tanh", "stochastic_affine", "beyond_samples_affine"])
def test_batch_width_changes_no_bit(problem, cells, spacings):
    # every path of a batch equals its one-path run bit for bit, so the
    # studies' outputs do not depend on how paths are chunked; a BLAS or
    # numpy build that sums a column of a multi-vector product in another
    # order fails here
    mesh = build_tensor_mesh(problem.domain, cells, spacings=spacings)
    n = 8
    ws = build_workspace(problem, mesh, TimeGrid(n, problem.horizon).tau)
    assert (ws.lu is None) is not problem.affine
    u0 = cell_average(problem.u0, mesh).values
    inc = np.stack([coarsen(sample_path(17, p, 4 * n, problem.horizon), n)
                    for p in range(17)])
    params = StepperParams()
    one = [integrate_workspace(ws, u0, row, params) for row in inc]
    for states, iterations, residuals in one:
        assert states.shape == (n + 1, mesh.n_cells)
        assert all(type(it) is int for it in iterations)
        assert all(type(r) is float for r in residuals)
    if problem.affine:
        # of the affine rows, only chords beyond the samples iterate again
        most = max(max(iterations) for _, iterations, _ in one)
        assert (most > 1) is (problem is BEYOND_SAMPLES)
    for width in (1, 2, 5, 16, 17):
        states, iterations, residuals = integrate_workspace(
            ws, u0, inc[:width], params)
        assert states.shape == (width, n + 1, mesh.n_cells)
        assert iterations.shape == residuals.shape == (width, n)
        for p in range(width):
            assert np.array_equal(states[p], one[p][0])
            assert np.array_equal(iterations[p], one[p][1])
            assert np.array_equal(residuals[p], one[p][2])
    kept, _, _ = integrate_workspace(ws, u0, inc[:5], params, np.array([3, n]))
    assert np.array_equal(kept, np.stack([s[[3, n]] for s, _, _ in one[:5]]))


@pytest.mark.parametrize("preset", ["stochastic", "nonlinear"])
def test_empty_batch_steps_nothing(preset):
    problem = get_preset(preset)
    mesh = build_tensor_mesh(problem.domain, (4, 4))
    ws = build_workspace(problem, mesh, TimeGrid(8, problem.horizon).tau)
    states, iterations, residuals = integrate_workspace(
        ws, cell_average(problem.u0, mesh).values, np.zeros((0, 8)),
        StepperParams())
    assert states.shape == (0, 9, mesh.n_cells)
    assert iterations.shape == residuals.shape == (0, 8)


def test_singular_newton_jacobian_in_a_batch_is_a_solver_error():
    # the case of test_singular_newton_jacobian_is_a_solver_error, three
    # paths at once
    problem = _custom("singular", 1.0, beta=lambda u: 4.0 * np.asarray(u),
                      beta_prime=lambda u: np.full_like(u, 4.0), f=np.tanh,
                      f_prime=lambda u: 1.0 - np.tanh(u)**2, horizon=0.25)
    mesh = build_tensor_mesh(UNIT_SQUARE, (2, 1))
    with pytest.warns(StabilityWarning):
        ws = build_workspace(problem, mesh, 0.25)
    u0 = np.ones(mesh.n_cells)
    with pytest.raises(SolverError, match="^singular Jacobian$") as exc:
        integrate_workspace(ws, u0, np.zeros((3, 1)), StepperParams())
    assert not isinstance(exc.value, StepFailure)


def test_stalled_row_of_a_batch_carries_its_step_index():
    # from a state halfway, every path converges in two iterations a step,
    # except path 2, whose fourth increment is 20 times larger; with two
    # iterations allowed the batch fails where that path alone fails
    problem = get_preset("nonlinear")
    mesh = build_tensor_mesh(problem.domain, (8, 8))
    n = 16
    ws = build_workspace(problem, mesh, TimeGrid(n, problem.horizon).tau)
    inc = np.stack([coarsen(sample_path(5, p, n, problem.horizon), n)
                    for p in range(4)])
    start, _, _ = integrate_workspace(ws, cell_average(problem.u0, mesh).values,
                                      inc[0, :8], StepperParams(), np.array([8]))
    tail = inc[:, 8:].copy()
    tail[2, 3] *= 20.0
    _, iterations, _ = integrate_workspace(ws, start[0], tail, StepperParams())
    assert np.argwhere(iterations > 2).tolist() == [[2, 3]]
    capped = StepperParams(max_newton_iterations=2)
    with pytest.raises(StepFailure, match="^step 4: Newton stalled") as batch:
        integrate_workspace(ws, start[0], tail, capped)
    with pytest.raises(StepFailure) as alone:
        integrate_workspace(ws, start[0], tail[2], capped)
    assert batch.value.step == alone.value.step == 4
    assert batch.value.residual == alone.value.residual > 0.0


@pytest.mark.parametrize("shape", [(4096,), (1, 4096)])
def test_one_path_allocates_no_array_per_step(shape):
    # one path, given as (N,) or (1, N), steps an (n,) state and holds its
    # kept rows: the peak stays far below the (N, len(rows), n) array that
    # reading a batch size off the (N,) increments would allocate
    problem = get_preset("stochastic")
    mesh = build_tensor_mesh(problem.domain, (2, 1))
    n = shape[-1]
    ws = build_workspace(problem, mesh, TimeGrid(n, problem.horizon).tau)
    u0 = cell_average(problem.u0, mesh).values
    inc = np.full(shape, 0.01)
    rows = np.arange(0, n + 1, 16)
    tracemalloc.start()
    try:
        states, _, _ = integrate_workspace(ws, u0, inc, StepperParams(), rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert states.shape == shape[:-1] + (len(rows), mesh.n_cells)
    assert peak < n * len(rows) * mesh.n_cells * 8 / 10
