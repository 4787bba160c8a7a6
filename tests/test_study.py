import dataclasses
import math
import multiprocessing
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fvsde import cli, study
from fvsde.errors import ConfigError, StepFailure
from fvsde.mesh import build_tensor_mesh, injection_map, refine
from fvsde.noise import TimeGrid, coarsen, sample_path
from fvsde.presets import PRESETS, closed_form_heat_reference, get_preset
from fvsde.properties import run_property_suite
from fvsde.scheme import StepperParams, integrate_workspace, run_path
from fvsde.stats import fit_rate, mc_mean_ci
from fvsde.study import default_config, run_rate_study


# -- fit_rate -----------------------------------------------------------------

def test_fit_rate_exact_lines():
    slope, _, resid = fit_rate([(0.1, 0.1), (0.05, 0.05)])
    assert slope == pytest.approx(1.0, abs=1e-12)
    assert resid == pytest.approx(0.0, abs=1e-12)
    slope, _, _ = fit_rate([(0.1, 0.01), (0.05, 0.0025)])
    assert slope == pytest.approx(2.0, abs=1e-12)


def test_fit_rate_perturbed_quadratic():
    rng = np.random.default_rng(0)
    scales = [0.2 / 2**k for k in range(6)]
    pairs = [(s, s**2 * (1.0 + 0.01 * rng.uniform(-1, 1))) for s in scales]
    slope, _, _ = fit_rate(pairs)
    assert 1.95 <= slope <= 2.05


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=-2.5, max_value=2.5),
       st.floats(min_value=0.1, max_value=10.0))
def test_fit_rate_recovers_any_exact_power(p, c):
    scales = [0.5, 0.25, 0.125, 0.0625]
    pairs = [(s, c * s**p) for s in scales]
    slope, intercept, resid = fit_rate(pairs)
    assert slope == pytest.approx(p, abs=1e-9)
    assert resid < 1e-9


def test_fit_rate_domain_errors():
    with pytest.raises(ValueError):
        fit_rate([(0.1, 0.1)])
    with pytest.raises(ValueError):
        fit_rate([(0.1, 0.0), (0.05, 0.1)])
    with pytest.raises(ValueError):
        fit_rate([(-0.1, 0.1), (0.05, 0.1)])


# -- mc_mean_ci ---------------------------------------------------------------

def test_mc_mean_ci_constant_samples():
    mean, ci = mc_mean_ci([3.0, 3.0, 3.0])
    assert mean == 3.0
    assert ci == 0.0


def test_mc_mean_ci_two_samples_hand_value():
    # mean 1, sample std sqrt(2), ci = 1.96 * sqrt(2) / sqrt(2) = 1.96
    mean, ci = mc_mean_ci([0.0, 2.0])
    assert mean == pytest.approx(1.0)
    assert ci == pytest.approx(1.96)


def test_mc_mean_ci_permutation_invariant_bits():
    rng = np.random.default_rng(4)
    samples = rng.standard_normal(33).tolist()
    a = mc_mean_ci(samples)
    b = mc_mean_ci(list(reversed(samples)))
    rng.shuffle(samples)
    c = mc_mean_ci(samples)
    assert a == b == c


def test_mc_mean_ci_needs_two():
    with pytest.raises(ValueError):
        mc_mean_ci([1.0])


# -- closed-form reference ----------------------------------------------------

def test_heat_reference_initial_and_mean():
    x = np.random.default_rng(1).random((64, 2))
    np.testing.assert_allclose(
        closed_form_heat_reference(x, 0.0),
        np.cos(np.pi * x[:, 0]) * np.cos(np.pi * x[:, 1]))
    # spatial mean is 0 for all t: integrate on a fine grid
    g = (np.arange(200) + 0.5) / 200
    xx, yy = np.meshgrid(g, g)
    pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
    assert abs(np.mean(closed_form_heat_reference(pts, 0.3))) < 1e-12


def test_heat_reference_satisfies_pde():
    # finite-difference residual of u_t = Lap(u) at random interior points
    rng = np.random.default_rng(7)
    pts = 0.2 + 0.6 * rng.random((20, 2))
    t = 0.05
    eps = 1e-5
    du_dt = (closed_form_heat_reference(pts, t + eps)
             - closed_form_heat_reference(pts, t - eps)) / (2 * eps)
    lap = np.zeros(20)
    for axis in range(2):
        up = pts.copy(); up[:, axis] += eps
        dn = pts.copy(); dn[:, axis] -= eps
        lap += (closed_form_heat_reference(up, t) - 2 *
                closed_form_heat_reference(pts, t)
                + closed_form_heat_reference(dn, t)) / eps**2
    assert np.max(np.abs(du_dt - lap)) < 1e-6
    # homogeneous Neumann trace: normal derivative vanishes on each face
    edge = np.stack([np.zeros(20), rng.random(20)], axis=1)
    shifted = edge.copy(); shifted[:, 0] += eps
    normal_deriv = (closed_form_heat_reference(shifted, t)
                    - closed_form_heat_reference(edge, t)) / eps
    assert np.max(np.abs(normal_deriv)) < 1e-4


# -- config validation --------------------------------------------------------

def test_config_validation_errors():
    with pytest.raises(ConfigError):
        default_config("unknown-study")
    bad = [
        ("temporal", {"paths": 1}),
        ("temporal", {"steps": (7,), "ref_steps": 1024}),
        ("coupled", {"steps": (8, 16), "levels": 3}),
        ("hoelder", {"ref_steps": 4}),
        ("temporal", {"mesh": (4,)}),
        ("temporal", {"seed": -1}),
        ("temporal", {"seed": 2**64}),
        ("temporal", {"steps": (4,)}),
        ("temporal", {"steps": (8, 8), "ref_steps": 64}),
        ("spatial", {"levels": 1}),
        ("coupled", {"levels": 1, "steps": (8,)}),
        ("projections", {"levels": 2}),
        ("temporal", {"mesh": (4, 4, 4)}),
        ("spatial", {"preset": "heat3d", "mesh": (4, 4)}),
        ("projections", {"mesh": (4, 4, 4)}),
        ("temporal", {"ref_steps": 2**24, "steps": (8, 16)}),
        ("temporal", {"levels": 0}),
        ("temporal", {"workers": 0}),
        # a level that is the reference itself
        ("temporal", {"mesh": (4, 4), "steps": (4, 8), "ref_steps": 8}),
        ("coupled", {"mesh": (4, 4), "levels": 2, "steps": (4, 8),
                     "ref_steps": 8}),
        # zero cell averages of the projections test function
        ("projections", {"mesh": (1, 8)}),
        ("projections", {"mesh": (8, 2)}),
    ]
    for study, overrides in bad:
        with pytest.raises(ConfigError):
            default_config(study, **overrides)
    assert default_config("temporal", seed=2**64 - 1).seed == 2**64 - 1
    # a study takes no setting it does not read: properties reads neither
    # steps nor a preset, spatial and hoelder no step chain
    with pytest.raises(ConfigError):
        default_config("properties", preset="heat3d")
    with pytest.raises(ConfigError):
        default_config("properties", steps=(3,))
    with pytest.raises(ConfigError):
        default_config("spatial", steps=(3,))
    with pytest.raises(ConfigError):
        default_config("hoelder", steps=(3,))


def test_unknown_study_in_a_directly_built_config():
    with pytest.raises(ConfigError, match="unknown study 'bogus'"):
        dataclasses.replace(default_config("temporal"), study="bogus")


def test_zero_error_level_cannot_be_fitted():
    from fvsde.study import RateRow, _report

    rows = [RateRow(0, 0.5, 0.1, 8, 2.0, 0.1),
            RateRow(1, 0.25, 0.05, 8, 0.0, 0.0)]
    with pytest.raises(ConfigError, match="error exactly zero"):
        _report("temporal", rows, "tau", {})


def test_spatial_study_needs_closed_form():
    with pytest.raises(ConfigError, match="closed-form"):
        default_config("spatial", preset="stochastic", levels=3)


@pytest.mark.parametrize("study", ["properties", "projections"])
def test_run_rate_study_refuses_non_rate_studies(study):
    with pytest.raises(ConfigError, match="not a rate study"):
        run_rate_study(default_config(study))


def test_inconclusive_when_ci_swamps_level_gap():
    from fvsde.study import RateRow, _inconclusive

    # adjacent levels a factor 2 apart: log gap ln 2 ~ 0.69
    separated = [RateRow(0, 0.5, 0.1, 8, 2.0, 0.1),
                 RateRow(1, 0.25, 0.05, 8, 1.0, 0.05)]
    overlapping = [RateRow(0, 0.5, 0.1, 8, 2.0, 1.2),
                   RateRow(1, 0.25, 0.05, 8, 1.0, 0.6)]
    assert _inconclusive(separated) is False      # hypot(.05, .05) < ln 2
    assert _inconclusive(overlapping) is True     # hypot(.6, .6) > ln 2
    # one overlapping pair anywhere in the chain is enough
    assert _inconclusive(separated + [RateRow(2, 0.125, 0.025, 8, 0.9,
                                              0.5)]) is True


# -- studies at smoke scale ---------------------------------------------------

def test_spatial_study_smoke():
    (report,) = run_rate_study(default_config("spatial", levels=3))
    assert 0.9 <= report.slope <= 2.2
    errs = [math.sqrt(r.err_mean_sq) for r in report.rows]
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert report.rows[0].n_paths == 1
    assert report.metadata["preset"] == "heat2d"


def test_spatial_study_tau_follows_its_stated_rule():
    (report,) = run_rate_study(default_config("spatial", levels=2))
    assert report.metadata["tau_rule"] == "0.5*h_axis^2"
    problem = get_preset("heat2d")
    mesh = build_tensor_mesh(problem.domain, (8, 8))
    for row in report.rows:
        h_axis = max(float(np.max(s)) for s in mesh.spacings)
        n_steps = int(np.ceil(problem.horizon / (0.5 * h_axis ** 2)))
        assert row.h == mesh.size_h
        assert row.tau == TimeGrid(n_steps, problem.horizon).tau
        mesh = refine(mesh)
    assert len(report.rows) == 2


def test_spatial_study_3d_smoke():
    cfg = default_config("spatial", preset="heat3d", mesh=(8, 8, 8), levels=3)
    (report,) = run_rate_study(cfg)
    assert 0.9 <= report.slope <= 2.2
    errs = [math.sqrt(r.err_mean_sq) for r in report.rows]
    assert all(a > b for a, b in zip(errs, errs[1:]))


def test_temporal_engine_zero_error_against_itself():
    # the N = ref_steps level is the reference itself: error exactly zero
    from fvsde.study import StudyConfig, _PathEngine
    cfg = StudyConfig(study="temporal", preset="stochastic", mesh=(6, 6),
                      levels=1, steps=(8, 16), ref_steps=32, paths=2)
    # past the construction check, which refuses the chain (below)
    object.__setattr__(cfg, "steps", (32, 16))
    engine = _PathEngine(cfg)
    for errors, _ in engine.run_block([0, 1]):   # node errors per level
        assert errors[0][0] == 0.0
        assert errors[1][0] > 0.0
    # and validation refuses the degenerate chain before any path runs
    with pytest.raises(ConfigError, match="reference itself"):
        default_config("temporal", mesh=(6, 6), steps=(32, 16), ref_steps=32,
                       paths=2)


def test_temporal_study_deterministic_degenerate_first_order():
    # g = 0 run: plain implicit Euler, slope near 1
    cfg = default_config("temporal", preset="convection", mesh=(16, 16),
                         steps=(8, 16, 32, 64), ref_steps=256, paths=2)
    (report,) = run_rate_study(cfg)
    assert 0.85 <= report.slope <= 1.3


def test_temporal_nonlinear_rate_in_criterion_2_window():
    # the Newton path: f = tanh, beta = 0.3 sin u, g = 0.5 sin u
    cfg = default_config("temporal", preset="nonlinear", mesh=(8, 8),
                         steps=(8, 16, 32, 64), ref_steps=512, paths=64,
                         workers=2)
    (report,) = run_rate_study(cfg)
    assert report.metadata["noise_factorizes"] is False
    assert 0.35 <= report.slope <= 0.75, report.slope


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_summary_names_the_factorizing_regime(preset):
    from fvsde.study import _base_metadata
    problem = get_preset(preset)
    config = default_config("temporal", preset=preset,
                            mesh=(4,) * len(problem.domain))
    expected = preset not in ("additive", "nonlinear")
    assert _base_metadata(config, problem, {})["noise_factorizes"] is expected


def test_temporal_ci_shrinks_with_more_paths():
    base = default_config("temporal", mesh=(8, 8), steps=(8, 16),
                          ref_steps=128, paths=32)
    (wide,) = run_rate_study(base)
    (narrow,) = run_rate_study(dataclasses.replace(base, paths=128))
    for row_w, row_n in zip(wide.rows, narrow.rows):
        ratio = row_w.ci_half_width / row_n.ci_half_width
        assert 1.4 <= ratio <= 2.6      # 2x expected from 4x the paths


def test_temporal_worker_count_invariance():
    cfg = default_config("temporal", mesh=(8, 8), steps=(4, 8), ref_steps=64,
                         paths=6)
    (serial,) = run_rate_study(cfg)
    (parallel,) = run_rate_study(dataclasses.replace(cfg, workers=3))
    assert serial.rows == parallel.rows
    assert serial.slope == parallel.slope


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the patched settings reach workers only by fork")
def test_step_failure_in_a_worker_reaches_the_caller(monkeypatch, capsys,
                                                     tmp_path):
    # with no Newton iteration allowed, the first step of path 0 stalls;
    # a worker process raises the same failure as the serial run
    monkeypatch.setattr(study, "StepperParams",
                        lambda: StepperParams(max_newton_iterations=0))
    cfg = default_config("temporal", mesh=(4, 4), steps=(2, 4), ref_steps=8,
                         paths=2)
    failures = []
    for workers in (1, 2):
        with pytest.raises(StepFailure) as exc:
            run_rate_study(dataclasses.replace(cfg, workers=workers))
        failures.append((exc.value.step, exc.value.residual))
    assert failures[0] == failures[1]
    assert failures[0][0] == 1 and failures[0][1] > 0.0
    code = cli.main(["temporal", "--mesh", "4x4", "--steps", "2,4",
                     "--ref-steps", "8", "--paths", "2", "--workers", "2",
                     "--out", str(tmp_path / "out")])
    assert code == 3
    lines = capsys.readouterr().err.splitlines()
    assert [line.startswith("solver failure: ") for line in lines] == [True]


def test_coupled_study_smoke():
    cfg = default_config("coupled", mesh=(4, 4), levels=2, steps=(4, 8),
                         ref_steps=64, paths=8)
    (report,) = run_rate_study(cfg)
    errs = [math.sqrt(r.err_mean_sq) for r in report.rows]
    assert errs[0] > errs[1] > 0.0
    assert report.metadata["interpolant"] == "right"
    (left,) = run_rate_study(
        dataclasses.replace(cfg, left_interpolant=True))
    assert left.metadata["interpolant"] == "left"
    assert left.rows != report.rows


@pytest.mark.parametrize("left", [False, True,
                                  pytest.param(None, id="temporal")])
def test_coupled_study_equals_brute_force_over_full_trajectories(left):
    # left is None: the temporal study, whose one node is the final time
    if left is None:
        cfg = default_config("temporal", mesh=(4, 4), steps=(4, 8, 16),
                             ref_steps=64, paths=4)
    else:
        cfg = default_config("coupled", mesh=(4, 4), levels=3,
                             steps=(4, 8, 16), ref_steps=64, paths=4,
                             left_interpolant=left)
    (report,) = run_rate_study(cfg)
    problem = get_preset(cfg.preset)
    meshes = [build_tensor_mesh(problem.domain, cfg.mesh)]
    for _ in range(len(cfg.steps) - 1):
        meshes.append(meshes[-1] if left is None else refine(meshes[-1]))
    ref_mesh, n_ref = meshes[-1], cfg.ref_steps
    per_node = [[] for _ in meshes]     # per level: one row of nodes per path
    for p in range(cfg.paths):
        path = sample_path(cfg.seed, p, n_ref, problem.horizon)
        ref = run_path(problem, ref_mesh, TimeGrid(n_ref, problem.horizon),
                       path).states
        for level, (mesh, n) in enumerate(zip(meshes, cfg.steps)):
            states = run_path(problem, mesh, TimeGrid(n, problem.horizon),
                              path).states
            lift = injection_map(mesh, ref_mesh)
            if left is None:
                pairs = [(n, n_ref)]
            elif left:
                pairs = [(k, k * (n_ref // n)) for k in range(n + 1)]
            else:
                pairs = [(min(k + 1, n), min(k * (n_ref // n) + 1, n_ref))
                         for k in range(n + 1)]
            errors = []
            for c, r in pairs:
                d = states[c][lift] - ref[r]
                errors.append(np.sum(ref_mesh.measures * d * d))
            per_node[level].append(errors)
    for row, errors in zip(report.rows, per_node):
        errors = np.array(errors)
        worst = errors[:, int(np.argmax(errors.mean(axis=0)))]
        mean, ci = mc_mean_ci(worst)
        assert row.err_mean_sq == pytest.approx(mean, rel=1e-12)
        assert row.ci_half_width == pytest.approx(ci, rel=1e-9)


@pytest.mark.parametrize("study, overrides", [
    ("coupled", {"mesh": (4, 4), "levels": 3, "steps": (4, 8, 16),
                 "ref_steps": 512}),
    ("temporal", {"mesh": (16, 16), "steps": (8, 16, 32), "ref_steps": 256}),
])
def test_path_engine_peak_memory_is_below_half_the_reference_history(
        study, overrides):
    # a path must not hold all N_ref + 1 reference states at once
    from fvsde.study import _PathEngine
    engine = _PathEngine(default_config(study, paths=2, **overrides))
    engine.run_block([0])               # the first call settles lazy set-up
    tracemalloc.start()
    try:
        engine.run_block([1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    history = (overrides["ref_steps"] + 1) * engine.ref_mesh.n_cells * 8
    assert peak < 0.5 * history, (peak, history)


@pytest.mark.parametrize("study, overrides", [
    ("temporal", {"preset": "nonlinear", "mesh": (4, 4), "steps": (2, 4),
                  "ref_steps": 8}),
    ("coupled", {"preset": "nonlinear", "mesh": (2, 2), "levels": 2,
                 "steps": (2, 4), "ref_steps": 8}),
    ("hoelder", {"preset": "nonlinear", "mesh": (4, 4), "ref_steps": 8}),
    ("temporal", {"mesh": (4, 4), "steps": (2, 4), "ref_steps": 8}),
])
def test_summary_counts_each_runs_steps_and_newton_iterations(study,
                                                              overrides):
    # levels, then the reference: the one-path sums over every path, for
    # any worker count
    from fvsde.study import _PathEngine
    cfg = default_config(study, paths=3, **overrides)
    engine = _PathEngine(cfg)
    problem = get_preset(cfg.preset)
    steps, iterations = [], []
    for n, ws, u0, _ in engine.runs:
        steps.append(n * cfg.paths)
        iterations.append(sum(
            sum(integrate_workspace(ws, u0, coarsen(sample_path(
                cfg.seed, p, cfg.ref_steps, problem.horizon), n),
                StepperParams())[1]) for p in range(cfg.paths)))
    serial = run_rate_study(cfg)[0].metadata
    parallel = run_rate_study(dataclasses.replace(cfg, workers=2))[0].metadata
    assert serial["steps"] == parallel["steps"] == steps
    assert serial["newton_iterations"] == parallel["newton_iterations"] \
        == iterations
    assert all(type(count) is int
               for count in serial["steps"] + serial["newton_iterations"])
    assert (iterations == steps) is problem.affine


def test_spatial_summary_counts_each_levels_steps_and_iterations():
    (report,) = run_rate_study(default_config("spatial", levels=2))
    steps = [round(report.metadata["horizon"] / row.tau) for row in report.rows]
    assert report.metadata["steps"] == steps
    # the affine step is one direct solve
    assert report.metadata["newton_iterations"] == steps


def test_hoelder_smoke_slopes():
    cfg = default_config("hoelder", mesh=(8, 8), ref_steps=512, paths=16)
    value, gradient = run_rate_study(cfg)
    assert 0.7 <= value.slope <= 1.3
    assert 0.7 <= gradient.slope <= 1.3
    assert value.rows[0].tau == pytest.approx(
        get_preset("lowmode").horizon / 512)


def test_property_suite_all_pass():
    report = run_property_suite(default_config("properties"))
    failed = [c for c in report.checks if not c.passed]
    assert not failed, failed
    names = {c.name for c in report.checks}
    assert {"dibp_identity", "discrete_poincare", "mass_martingale_identity",
            "energy_dissipation_diffusion", "coupling_zero_error"} <= names
