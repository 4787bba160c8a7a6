"""Acceptance suite: every criterion at its stated tolerance.

Run `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line per
criterion, and `pytest -m "not acceptance"` to run every other test.  The
stochastic studies here are the full-size desk-scale runs (M = 64 paths);
the whole module takes a couple of minutes.
"""

import math
import time

import numpy as np
import pytest

from fvsde.discrete_ops import (dibp_gap, h1_seminorm_sq,
                                poincare_constant_estimate)
from fvsde.mesh import build_tensor_mesh, refine
from fvsde.noise import NoisePath, TimeGrid, coarsen, sample_path
from fvsde.presets import get_preset
from fvsde.projections import SmoothFunctionSpec, projection_error_report
from fvsde.scheme import energy_balance_defects, run_path
from fvsde.study import default_config, run_rate_study

pytestmark = pytest.mark.acceptance

UNIT_SQUARE = ((0.0, 1.0), (0.0, 1.0))


def _verdict(num: int, description: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} [{status}] {description}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_deterministic_spatial_order():
    t0 = time.monotonic()
    cfg = default_config("spatial", mesh=(8, 8), levels=4)   # h = 1/8 .. 1/64
    (report,) = run_rate_study(cfg)
    elapsed = time.monotonic() - t0
    ok = 0.9 <= report.slope <= 2.2 and elapsed <= 120.0
    _verdict(1, "deterministic spatial order on (0,1)^2, h=1/8..1/64",
             ok, f"slope {report.slope:.3f} in [0.9, 2.2], {elapsed:.1f}s <= 120s")


def test_criterion_02_strong_temporal_order_half():
    t0 = time.monotonic()
    cfg = default_config("temporal")   # 32^2, N in {8..128}, ref 1024, M=64
    assert cfg.mesh == (32, 32) and cfg.steps == (8, 16, 32, 64, 128)
    assert cfg.ref_steps == 1024 and cfg.paths == 64
    (report,) = run_rate_study(cfg)
    elapsed = time.monotonic() - t0
    ok = 0.35 <= report.slope <= 0.75 and elapsed <= 600.0
    _verdict(2, "strong temporal order 1/2, coupled to N_max=1024, M=64",
             ok, f"slope {report.slope:.3f} in [0.35, 0.75], {elapsed:.0f}s <= 600s")


def test_criterion_03_coupled_refinement():
    cfg = default_config("coupled")    # (1/8, 8) x4 doubling vs (1/64, 512)
    assert cfg.mesh == (8, 8) and cfg.levels == 4
    assert cfg.steps == (8, 16, 32, 64) and cfg.ref_steps == 512
    assert cfg.paths == 64
    (report,) = run_rate_study(cfg)
    ok = 0.35 <= report.slope <= 0.8
    sq = [r.err_mean_sq for r in report.rows]
    ratios = [sq[i] / sq[i + 1] for i in range(len(sq) - 1)]
    ok = ok and all(1.5 <= r <= 3.0 for r in ratios)
    _verdict(3, "coupled tau ~ h refinement vs (1/64, N=512) reference", ok,
             f"slope {report.slope:.3f} in [0.35, 0.8], squared-error "
             f"ratios {[f'{r:.2f}' for r in ratios]} in [1.5, 3.0]")


def test_criterion_04_mass_martingale_identity():
    problem = get_preset("additive")          # g = 0.5, beta = 0
    mesh = build_tensor_mesh(problem.domain, (16, 16))
    grid = TimeGrid(64, problem.horizon)
    m = mesh.measures
    worst = 0.0
    for p in range(4):
        path = sample_path(2468, p, 256, problem.horizon)
        traj = run_path(problem, mesh, grid, path)
        w = np.concatenate([[0.0], np.cumsum(coarsen(path, 64))])
        masses = traj.states @ m
        for n in range(1, 65):
            defect = abs(masses[n] - masses[0] - 0.5 * 1.0 * w[n])
            worst = max(worst, defect / n)
            assert defect <= n * 1e-9
    _verdict(4, "mass martingale identity |mass drift - c|L|W(t_n)| <= n*1e-9",
             True, f"worst per-step defect {worst:.2e}")


def test_criterion_05_dibp_identity_gap():
    meshes = [
        build_tensor_mesh(UNIT_SQUARE, (8, 8)),
        build_tensor_mesh(UNIT_SQUARE, (5, 3),
                          spacings=[[0.1, 0.15, 0.2, 0.25, 0.3],
                                    [0.5, 0.3, 0.2]]),
        build_tensor_mesh(((0.0, 1.0),) * 3, (4, 3, 3)),
    ]
    rng = np.random.default_rng(1357)
    worst = 0.0
    count = 0
    for mesh in meshes:
        for _ in range(67):
            if count == 200:
                break
            w = rng.standard_normal(mesh.n_cells)
            v = rng.standard_normal(mesh.n_cells)
            scale = (np.sqrt(h1_seminorm_sq(mesh, w))
                     * np.sqrt(h1_seminorm_sq(mesh, v)) + 1.0)
            worst = max(worst, dibp_gap(mesh, w, v) / scale)
            count += 1
    ok = worst <= 1e-12 and count == 200
    _verdict(5, "DIBP identity on 200 random pairs across 3 meshes", ok,
             f"worst relative gap {worst:.2e} <= 1e-12")


def test_criterion_06_energy_dissipation():
    details = []
    ok = True
    for preset in ("diffusion", "convection"):
        problem = get_preset(preset)
        mesh = build_tensor_mesh(problem.domain, (16, 16))
        grid = TimeGrid(32, problem.horizon)
        path = NoisePath(problem.horizon, 32, np.zeros(32), 0, 0)
        traj = run_path(problem, mesh, grid, path)
        excess = float(np.max(energy_balance_defects(traj)))
        ok = ok and excess <= 1e-9
        details.append(f"{preset}: excess {excess:.2e}")
    _verdict(6, "per-path energy dissipation (pure diffusion and f=id upwind)",
             ok, "; ".join(details) + " <= 1e-9")


def test_criterion_07_elliptic_projection():
    spec = SmoothFunctionSpec(
        fn=lambda x: np.cos(np.pi * x[:, 0]) * np.cos(2.0 * np.pi * x[:, 1]),
        laplacian=lambda x: -5.0 * np.pi**2 * np.cos(np.pi * x[:, 0])
        * np.cos(2.0 * np.pi * x[:, 1]),
        domain=UNIT_SQUARE)
    meshes = [build_tensor_mesh(UNIT_SQUARE, (8, 8))]
    for _ in range(3):
        meshes.append(refine(meshes[-1]))
    report = projection_error_report(spec, meshes)
    res_ok = all(r <= 1e-11 for r in report.residuals)
    mass_ok = all(d <= 1e-12 for d in report.mass_defects)
    slopes_ok = all(0.9 <= s <= 2.2 for s in report.slopes.values())
    ok = res_ok and mass_ok and slopes_ok
    _verdict(7, "elliptic projection contract and error slopes", ok,
             f"max residual {max(report.residuals):.2e} <= 1e-11, "
             f"max mass defect {max(report.mass_defects):.2e}, slopes "
             + ", ".join(f"{k}={v:.2f}" for k, v in report.slopes.items()))


def test_criterion_08_discrete_poincare_constant():
    target = 1.0 / math.pi**2
    estimates = {}
    for n in (8, 16, 32, 64):
        estimates[n] = poincare_constant_estimate(
            build_tensor_mesh(UNIT_SQUARE, (n, n)))
    rel = abs(estimates[64] - target) / target
    ok = rel <= 0.20
    _verdict(8, "Poincare constant approaches 1/pi^2 by h=1/64", ok,
             f"estimate {estimates[64]:.6f} vs {target:.6f} "
             f"(rel. dev. {rel:.2%} <= 20%)")


def test_criterion_09_time_hoelder_diagnostic():
    value, gradient = run_rate_study(default_config("hoelder"))
    ok = (0.8 <= value.slope <= 1.2
          and 0.8 <= gradient.slope <= 1.2)
    _verdict(9, "time-Hoelder slopes of squared L2 and H1 increments", ok,
             f"L2 slope {value.slope:.3f}, "
             f"H1 slope {gradient.slope:.3f}, window [0.8, 1.2]")


def test_criterion_10_reproducibility(tmp_path):
    from fvsde.cli import main
    args = ["temporal", "--mesh", "8x8", "--steps", "4,8", "--ref-steps",
            "64", "--paths", "6", "--seed", "77"]
    outs = []
    for tag, workers in (("a", "1"), ("b", "2"), ("c", "1")):
        out = tmp_path / tag
        assert main(args + ["--workers", workers, "--out", str(out)]) == 0
        with open(out / "temporal_rates.csv", "rb") as handle:
            outs.append(handle.read())
    ok = outs[0] == outs[1] == outs[2]
    _verdict(10, "byte-identical CSV for repeated runs and any worker count",
             ok, f"{len(outs[0])} bytes, identical across workers 1/2 and reruns")
