"""Refinement sweeps, Monte Carlo error estimation and rate fitting.

Strong errors are always computed with coupled noise: one fine Brownian path
per path index, block-summed to every coarser grid, so that the sampled
differences isolate discretization error from sampling error.  Spatially
nested comparisons evaluate the coarse field on the finer partition through
the parent-cell map.

All studies reduce Monte Carlo samples in a fixed order independent of the
worker count, so reports (and the CSV files written from them) are
bit-identical for any --workers value.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import discrete_ops as ops
from .discrete_ops import TpfaOperator
from .errors import ConfigError
from .fields import CellField
from .mesh import (TensorMesh, build_tensor_mesh, cell_average, inject,
                   injection_map, refine, validate_admissibility)
from .noise import MAX_FINE_STEPS, NoisePath, TimeGrid, coarsen, sample_path
from .presets import get_preset
from .projections import (SmoothFunctionSpec, centered_projection,
                          elliptic_projection, elliptic_residual)
from .scheme import (StepperParams, build_workspace, energy_balance_defects,
                     integrate_workspace, run_path, trajectory_mass_defects)
from .stats import fit_rate, mc_mean_ci

__all__ = [
    "StudyConfig",
    "RateRow",
    "RateReport",
    "HoelderReport",
    "PropertyReport",
    "default_config",
    "run_spatial_rate_study",
    "run_temporal_rate_study",
    "run_coupled_rate_study",
    "run_hoelder_diagnostic",
    "run_property_suite",
    "fit_rate",
    "mc_mean_ci",
]

STUDIES = ("properties", "spatial", "temporal", "coupled", "hoelder",
           "projections")

_DEFAULTS: dict[str, dict] = {
    "properties":  {"preset": "stochastic", "mesh": (8, 8), "levels": 3,
                    "steps": (8,), "ref_steps": 64, "paths": 4},
    "spatial":     {"preset": "heat2d", "mesh": (8, 8), "levels": 4,
                    "steps": (), "ref_steps": 1, "paths": 2},
    "temporal":    {"preset": "stochastic", "mesh": (32, 32), "levels": 1,
                    "steps": (8, 16, 32, 64, 128), "ref_steps": 1024,
                    "paths": 64},
    "coupled":     {"preset": "stochastic", "mesh": (8, 8), "levels": 4,
                    "steps": (8, 16, 32, 64), "ref_steps": 512, "paths": 64},
    "hoelder":     {"preset": "lowmode", "mesh": (16, 16), "levels": 1,
                    "steps": (), "ref_steps": 2048, "paths": 64},
    "projections": {"preset": "stochastic", "mesh": (8, 8), "levels": 4,
                    "steps": (), "ref_steps": 1, "paths": 2},
}

HOELDER_SEPARATIONS = (1, 2, 4)


@dataclass(frozen=True)
class StudyConfig:
    """Everything needed to reproduce a study run."""

    study: str = "properties"
    preset: str = "stochastic"
    mesh: tuple[int, ...] = (8, 8)
    levels: int = 3
    steps: tuple[int, ...] = (8,)
    ref_steps: int = 64
    paths: int = 4
    seed: int = 12345
    workers: int = 1
    out_dir: str | None = None
    left_interpolant: bool = False

    def validate(self) -> "StudyConfig":
        if self.study not in STUDIES:
            raise ConfigError(f"unknown study {self.study!r}; "
                              f"choose from {STUDIES}")
        if len(self.mesh) not in (2, 3) or any(n < 1 for n in self.mesh):
            raise ConfigError(f"mesh counts must be 2 or 3 positive integers, "
                              f"got {self.mesh}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must lie in [0, 2**64), got {self.seed}")
        if self.paths < 2:
            raise ConfigError("paths must be >= 2 (confidence intervals need "
                              "at least two samples)")
        if self.levels < 1:
            raise ConfigError("levels must be >= 1")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if not 1 <= self.ref_steps <= MAX_FINE_STEPS:
            raise ConfigError(f"ref_steps must lie in [1, 2**23] (exact noise "
                              f"lattice sums), got {self.ref_steps}")
        for n in self.steps:
            if n < 1 or self.ref_steps % n != 0:
                raise ConfigError(
                    f"step count {n} does not divide ref_steps={self.ref_steps}")
        if self.study == "coupled" and len(self.steps) != self.levels:
            raise ConfigError("coupled study needs one step count per level")
        if self.study == "temporal" and (
                len(self.steps) < 2 or len(set(self.steps)) != len(self.steps)):
            raise ConfigError("temporal study needs a chain of at least 2 "
                              "distinct step counts")
        if self.study in ("spatial", "coupled") and self.levels < 2:
            raise ConfigError(f"{self.study} study needs at least 2 levels")
        if self.study == "projections" and self.levels < 3:
            raise ConfigError("projections study needs at least 3 levels")
        dim = 2 if self.study == "projections" else len(
            get_preset(self.preset).domain)
        if len(self.mesh) != dim:
            raise ConfigError(f"{self.study} with preset {self.preset!r} "
                              f"needs a {dim}-D mesh, got {self.mesh}")
        if self.study == "hoelder" and self.ref_steps < 2 * max(HOELDER_SEPARATIONS):
            raise ConfigError("hoelder study needs ref_steps >= "
                              f"{2 * max(HOELDER_SEPARATIONS)}")
        return self


def default_config(study: str, **overrides) -> StudyConfig:
    """Config with per-study defaults, selectively overridden."""
    if study not in STUDIES:
        raise ConfigError(f"unknown study {study!r}; choose from {STUDIES}")
    base = dict(_DEFAULTS[study])
    base.update(overrides)
    return StudyConfig(study=study, **base).validate()


@dataclass(frozen=True)
class RateRow:
    level: int
    h: float
    tau: float
    n_paths: int
    err_mean_sq: float
    ci_half_width: float


@dataclass
class RateReport:
    """Error table across refinement levels with a fitted log-log slope."""

    study: str
    rows: list[RateRow]
    scale_name: str                 # which column the slope is fitted against
    slope: float
    intercept: float
    fit_residual: float
    slopes_so_far: list[float]
    metadata: dict = field(default_factory=dict)
    inconclusive: bool = False

    @property
    def errors(self) -> list[float]:
        return [math.sqrt(r.err_mean_sq) for r in self.rows]


@dataclass
class HoelderReport:
    value: RateReport
    gradient: RateReport


def _report(study: str, rows: list[RateRow], scale_name: str,
            metadata: dict) -> RateReport:
    """Fit the rate of the rows' errors against their h (or tau) column.

    Squared increments ("dt" scale) are fitted as they are; every other
    study fits the root of its mean squared error.
    """
    scales = [r.h if scale_name == "h" else r.tau for r in rows]
    fit_errors = [r.err_mean_sq if scale_name == "dt"
                  else math.sqrt(r.err_mean_sq) for r in rows]
    if any(e <= 0.0 for e in fit_errors):
        raise ConfigError(
            f"{study}: a level has error exactly zero (it coincides with the "
            "reference); drop it from the refinement chain")
    slope, intercept, resid = fit_rate(list(zip(scales, fit_errors)))
    so_far = [float("nan")]
    for i in range(2, len(rows) + 1):
        so_far.append(fit_rate(list(zip(scales[:i], fit_errors[:i])))[0])
    return RateReport(study, rows, scale_name, slope, intercept, resid,
                      so_far, metadata)


def _mc_report(study: str, config: StudyConfig, columns, h_tau,
               scale_name: str, metadata: dict) -> RateReport:
    """Monte Carlo reduction: one row per column of per-path samples, with
    its (h, tau) pair."""
    rows = [RateRow(i, h, tau, config.paths, *mc_mean_ci(samples))
            for i, (samples, (h, tau)) in enumerate(zip(columns, h_tau))]
    report = _report(study, rows, scale_name, metadata)
    report.inconclusive = _inconclusive(rows)
    return report


def _inconclusive(rows: list[RateRow]) -> bool:
    """Adjacent levels whose sampling uncertainty swamps their separation.

    Relative CI half-widths combine in quadrature; coupling makes adjacent
    level errors positively correlated, so this is still conservative.
    """
    for a, b in zip(rows, rows[1:]):
        gap = abs(math.log(a.err_mean_sq) - math.log(b.err_mean_sq))
        rel = math.hypot(a.ci_half_width / a.err_mean_sq,
                         b.ci_half_width / b.err_mean_sq)
        if rel >= gap:
            return True
    return False


def _base_metadata(config: StudyConfig, problem, extra: dict) -> dict:
    params = StepperParams()
    return {
        "preset": config.preset,
        "seed": config.seed,
        "paths": config.paths,
        "mesh": list(config.mesh),
        "horizon": problem.horizon,
        "newton_tol": params.newton_tol,
        "tau_lbeta_margin": params.stability_margin,
        "commit": os.environ.get("FVSDE_COMMIT", "unknown"),
        **extra,
    }


def _levels(config: StudyConfig, problem) -> tuple[list, tuple | None]:
    """The study's (mesh, n_steps) levels and its reference level.

    temporal: one mesh, the step chain; coupled: nested meshes, one step
    count each; hoelder: the reference alone; spatial: nested meshes with
    tau ~ h^2 (no reference).
    """
    mesh = build_tensor_mesh(problem.domain, config.mesh)
    ref = (mesh, config.ref_steps)
    if config.study == "temporal":
        return [(mesh, n) for n in config.steps], ref
    if config.study == "hoelder":
        return [], ref
    meshes = [mesh]
    for _ in range(config.levels - 1):
        meshes.append(refine(meshes[-1]))
    if config.study == "coupled":
        return list(zip(meshes, config.steps)), (meshes[-1], config.ref_steps)
    levels = []
    for m in meshes:
        hx = max(float(np.max(sp)) for sp in m.spacings)
        levels.append((m, max(1, math.ceil(problem.horizon / (0.5 * hx * hx)))))
    return levels, None


# ---------------------------------------------------------------------------
# Monte Carlo engine
# ---------------------------------------------------------------------------

class _PathEngine:
    """Coupled runs of every level against the reference, path by path.

    Path p samples one Brownian path at the reference resolution, runs the
    reference on it and every level on its block sums, and hands the states
    to the study's comparator.  Each mesh gets one TPFA operator and one u0;
    each level one workspace.  Worker processes build their own engine.
    """

    def __init__(self, config: StudyConfig):
        self.config = config
        self.problem = get_preset(config.preset)
        self.params = StepperParams()
        levels, (self.ref_mesh, ref_steps) = _levels(config, self.problem)
        per_mesh: dict[TensorMesh, tuple] = {}
        self.runs = []                  # (n_steps, workspace, u0), ref last
        for mesh, n_steps in levels + [(self.ref_mesh, ref_steps)]:
            if mesh not in per_mesh:
                per_mesh[mesh] = (TpfaOperator(mesh),
                                  cell_average(self.problem.u0, mesh).values)
            tpfa, u0 = per_mesh[mesh]
            ws = build_workspace(self.problem, mesh,
                                 TimeGrid(n_steps, self.problem.horizon).tau,
                                 tpfa)
            self.runs.append((n_steps, ws, u0))
        self.compare = _COMPARATORS[config.study]
        self.lifts = [injection_map(ws.mesh, self.ref_mesh)
                      for _, ws, _ in self.runs[:-1]]

    def run_one(self, path_index: int):
        path = sample_path(self.config.seed, path_index,
                           self.config.ref_steps, self.problem.horizon)
        states = [integrate_workspace(ws, u0, coarsen(path, n), self.params)[0]
                  for n, ws, u0 in self.runs]
        return self.compare(self, states[:-1], states[-1])


def _final_time(engine: _PathEngine, levels, ref) -> np.ndarray:
    """Squared final-time L2 distance of each level to the reference."""
    m = engine.ref_mesh.measures
    out = np.empty(len(levels))
    for i, states in enumerate(levels):
        diff = states[-1] - ref[-1]
        out[i] = float(np.dot(m, diff * diff))
    return out


def _shared_nodes(engine: _PathEngine, levels, ref) -> list[np.ndarray]:
    """Squared L2 distance at every shared node, levels lifted to the
    reference mesh (right-interpolant nodes unless configured otherwise)."""
    cfg = engine.config
    out = []
    for (n_steps, _, _), lift, states in zip(engine.runs, engine.lifts, levels):
        ks = np.arange(n_steps + 1)
        if cfg.left_interpolant:
            c_idx, r_idx = ks, ks * (cfg.ref_steps // n_steps)
        else:
            c_idx = np.minimum(ks + 1, n_steps)
            r_idx = np.minimum(ks * (cfg.ref_steps // n_steps) + 1,
                               cfg.ref_steps)
        diff = states[c_idx][:, lift] - ref[r_idx]
        out.append((diff * diff) @ engine.ref_mesh.measures)
    return out


def _increments(engine: _PathEngine, levels, ref):
    """Mean squared increments of the reference run at each separation, in
    L2 and in the discrete H1 seminorm."""
    mesh = engine.ref_mesh
    k, l = mesh.edge_cells[:, 0], mesh.edge_cells[:, 1]
    vals = np.empty(len(HOELDER_SEPARATIONS))
    grads = np.empty(len(HOELDER_SEPARATIONS))
    for i, sep in enumerate(HOELDER_SEPARATIONS):
        d = ref[sep:] - ref[:-sep]
        vals[i] = float(np.mean((d * d) @ mesh.measures))
        dd = d[:, k] - d[:, l]
        grads[i] = float(np.mean((dd * dd) @ mesh.transmissibilities))
    return vals, grads


_COMPARATORS = {"temporal": _final_time, "coupled": _shared_nodes,
                "hoelder": _increments}

_WORKER_ENGINE = None


def _worker_init(config: StudyConfig) -> None:
    global _WORKER_ENGINE
    _WORKER_ENGINE = _PathEngine(config)


def _worker_block(indices: list[int]):
    return [_WORKER_ENGINE.run_one(p) for p in indices]


def _map_paths(config: StudyConfig) -> list:
    """Per-path engine results, in path order regardless of worker count."""
    n_workers = min(config.workers, config.paths)
    if n_workers <= 1:
        engine = _PathEngine(config)
        return [engine.run_one(p) for p in range(config.paths)]
    blocks = [list(map(int, b))
              for b in np.array_split(np.arange(config.paths), n_workers)
              if len(b)]
    results: list = []
    with ProcessPoolExecutor(max_workers=n_workers, initializer=_worker_init,
                             initargs=(config,)) as pool:
        futures = [pool.submit(_worker_block, block) for block in blocks]
        for fut in futures:            # submission order == path order
            results.extend(fut.result())
    return results


# ---------------------------------------------------------------------------
# Studies
# ---------------------------------------------------------------------------

def run_spatial_rate_study(config: StudyConfig) -> RateReport:
    """Deterministic mesh-refinement sweep against the closed-form solution.

    Time steps scale like h^2 so the implicit Euler error stays subdominant;
    the error column is the discrete L2 distance between the final state and
    the cell averages of the exact solution.
    """
    config.validate()
    problem = get_preset(config.preset)
    if problem.exact_solution is None:
        raise ConfigError(f"preset {config.preset!r} has no closed-form "
                          "solution; the spatial study needs one")
    params = StepperParams()
    levels, _ = _levels(config, problem)
    rows = []
    for level, (mesh, n_steps) in enumerate(levels):
        tau = TimeGrid(n_steps, problem.horizon).tau
        ws = build_workspace(problem, mesh, tau)
        u0 = cell_average(problem.u0, mesh).values
        states, _, _ = integrate_workspace(ws, u0, np.zeros(n_steps), params)
        exact = cell_average(
            lambda x: problem.exact_solution(x, problem.horizon), mesh).values
        diff = states[-1] - exact
        err_sq = float(np.dot(mesh.measures, diff * diff))
        rows.append(RateRow(level, mesh.size_h, tau, 1, err_sq, 0.0))
    md = _base_metadata(config, problem, {
        "mesh_regularity": [m.regularity for m, _ in levels],
        "tau_rule": "0.5*h_axis^2"})
    return _report("spatial", rows, "h", md)


def run_temporal_rate_study(config: StudyConfig) -> RateReport:
    """Strong time-refinement study, coupled to a fine reference on one mesh.

    Errors are RMS over paths of the final-time discrete L2 distance between
    each coarse run and the reference run driven by the same Brownian path.
    """
    config.validate()
    problem = get_preset(config.preset)
    samples = np.asarray(_map_paths(config))   # (paths, levels)
    levels, (mesh, _) = _levels(config, problem)
    md = _base_metadata(config, problem, {
        "mesh_regularity": mesh.regularity,
        "ref_steps": config.ref_steps,
    })
    return _mc_report("temporal", config, samples.T,
                      [(m.size_h, problem.horizon / n) for m, n in levels],
                      "tau", md)


def run_coupled_rate_study(config: StudyConfig) -> RateReport:
    """Simultaneous tau, h refinement against the finest coupled level.

    Per level, the Monte Carlo mean of the squared discrete L2 distance is
    taken at every shared time node (coarse states lifted through the
    parent-cell map, right-interpolant node convention unless configured
    otherwise); the level error is the sup over nodes.
    """
    config.validate()
    problem = get_preset(config.preset)
    results = _map_paths(config)   # [path][level] -> per-node array
    levels, _ = _levels(config, problem)
    columns = []
    for level in range(len(levels)):
        stacked = np.stack([results[p][level] for p in range(config.paths)])
        columns.append(stacked[:, int(np.argmax(stacked.mean(axis=0)))])
    md = _base_metadata(config, problem, {
        "mesh_regularity": [m.regularity for m, _ in levels],
        "ref_steps": config.ref_steps,
        "interpolant": "left" if config.left_interpolant else "right",
    })
    return _mc_report("coupled", config, columns,
                      [(m.size_h, problem.horizon / n) for m, n in levels],
                      "h", md)


def run_hoelder_diagnostic(config: StudyConfig) -> HoelderReport:
    """Mean squared time increments against the separation |t - s|.

    Separations are dyadic multiples of the step; anchors s run over the whole
    trajectory.  Expected slope about 1 for both the squared L2 increment and
    the squared discrete H1-seminorm increment.
    """
    config.validate()
    problem = get_preset(config.preset)
    results = _map_paths(config)
    _, (mesh, _) = _levels(config, problem)
    tau = problem.horizon / config.ref_steps
    md = _base_metadata(config, problem, {
        "mesh_regularity": mesh.regularity,
        "fine_steps": config.ref_steps,
        "separations": list(HOELDER_SEPARATIONS),
    })
    h_dt = [(mesh.size_h, sep * tau) for sep in HOELDER_SEPARATIONS]
    vals = np.stack([r[0] for r in results])     # (paths, separations)
    grads = np.stack([r[1] for r in results])
    return HoelderReport(
        value=_mc_report("hoelder_l2", config, vals.T, h_dt, "dt", md),
        gradient=_mc_report("hoelder_h1", config, grads.T, h_dt, "dt", md))


# ---------------------------------------------------------------------------
# Property suite
# ---------------------------------------------------------------------------

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
            w = CellField(mesh, rng.standard_normal(mesh.n_cells))
            v = CellField(mesh, rng.standard_normal(mesh.n_cells))
            scale = (ops.discrete_h1_seminorm(w) * ops.discrete_h1_seminorm(v)
                     + 1.0)
            rel = ops.dibp_gap(w, v) / scale
            worst = max(worst, rel)
            if rel > 1e-12:
                raise AssertionError(f"relative DIBP gap {rel:.3e}")
    return f"worst relative gap {worst:.2e}"


def _check_tpfa_operator(rng) -> str:
    mesh = build_tensor_mesh(((0.0, 1.0), (0.0, 1.0)), (6, 5))
    op = TpfaOperator(mesh)
    m = mesh.measures
    worst = 0.0
    for _ in range(10):
        w = rng.standard_normal(mesh.n_cells)
        v = rng.standard_normal(mesh.n_cells)
        lw, lv = op.laplacian_values(w), op.laplacian_values(v)
        sym = abs(np.sum(m * lw * v) - np.sum(m * w * lv))
        worst = max(worst, sym)
        if sym > 1e-10:
            raise AssertionError(f"weighted self-adjointness defect {sym:.3e}")
        if np.sum(m * lw * w) > 1e-10:
            raise AssertionError("operator is not negative semidefinite")
    const = op.laplacian_values(np.ones(mesh.n_cells))
    if np.max(np.abs(const)) > 1e-13:
        raise AssertionError("constants are not in the kernel")
    return f"worst self-adjointness defect {worst:.2e}"


def _check_poincare(rng) -> str:
    mesh = build_tensor_mesh(((0.0, 1.0), (0.0, 1.0)), (8, 8))
    cp = ops.poincare_constant_estimate(mesh)
    m = mesh.measures
    for _ in range(30):
        w = rng.standard_normal(mesh.n_cells)
        w -= np.dot(m, w) / m.sum()
        f = CellField(mesh, w)
        lhs = ops.discrete_l2_norm(f) ** 2
        rhs = cp * ops.discrete_h1_seminorm(f) ** 2 + 1e-10
        if lhs > rhs:
            raise AssertionError(f"Poincare violated: {lhs:.6e} > {rhs:.6e}")
    return f"C_p = {cp:.6f}"


def _check_upwind_telescoping(rng) -> str:
    mesh = build_tensor_mesh(((0.0, 1.0), (0.0, 1.0)), (6, 6))
    worst = 0.0
    for _ in range(10):
        vel = ops.EdgeVelocity(mesh, 0.0, 1.0,
                               rng.standard_normal(mesh.n_interior_edges))
        u = CellField(mesh, rng.standard_normal(mesh.n_cells))
        trace = ops.upwind_trace(u, vel)
        flux = mesh.edge_measures * vel.values * trace
        per_cell = np.zeros(mesh.n_cells)
        np.add.at(per_cell, mesh.edge_cells[:, 0], flux)
        np.add.at(per_cell, mesh.edge_cells[:, 1], -flux)
        total = abs(per_cell.sum())
        scale = np.sum(np.abs(flux)) + 1.0
        worst = max(worst, total / scale)
        if total > 1e-12 * scale:
            raise AssertionError(f"upwind flux sum {total:.3e}")
    return f"worst relative defect {worst:.2e}"


def _check_mass_identity(rng) -> str:
    for preset in ("additive", "stochastic"):
        problem = get_preset(preset)
        mesh = build_tensor_mesh(problem.domain, (8, 8))
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


def _check_energy(preset: str) -> str:
    problem = get_preset(preset)
    mesh = build_tensor_mesh(problem.domain, (16, 16))
    grid = TimeGrid(32, problem.horizon)
    path = sample_path(7, 0, 32, problem.horizon)
    traj = run_path(problem, mesh, grid, path)
    excess = energy_balance_defects(traj)
    if np.any(excess > 1e-9):
        raise AssertionError(f"energy excess {excess.max():.3e}")
    return f"max energy excess {excess.max():.2e}"


def _check_projection(rng) -> str:
    spec = SmoothFunctionSpec(
        fn=lambda x: np.cos(np.pi * x[:, 0]) * np.cos(2 * np.pi * x[:, 1]),
        laplacian=lambda x: -5 * np.pi**2 * np.cos(np.pi * x[:, 0])
        * np.cos(2 * np.pi * x[:, 1]),
        domain=((0.0, 1.0), (0.0, 1.0)))
    spec2 = SmoothFunctionSpec(
        fn=lambda x: np.cos(2 * np.pi * x[:, 0]),
        laplacian=lambda x: -4 * np.pi**2 * np.cos(2 * np.pi * x[:, 0]),
        domain=((0.0, 1.0), (0.0, 1.0)))
    mesh = build_tensor_mesh(spec.domain, (12, 12))
    p1 = elliptic_projection(spec, mesh)
    res = elliptic_residual(spec, p1)
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
    w = CellField(coarse, rng.standard_normal(coarse.n_cells))
    lifted = inject(w, fine)
    n_c = ops.discrete_l2_norm(w)
    n_f = ops.discrete_l2_norm(lifted)
    if abs(n_c - n_f) > 1e-13 * (n_c + 1.0):
        raise AssertionError(f"injection changed the norm: {n_c} vs {n_f}")
    again = inject(w, fine)
    if np.max(np.abs(lifted.values - again.values)) != 0.0:
        raise AssertionError("injection is not deterministic")
    return "injection preserves the discrete norm"


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
            norms_sq = (traj.states**2) @ mesh.measures
            acc.append(norms_sq.max())
        sups.append(float(np.mean(acc)))
    ratio = sups[1] / sups[0]
    if not 0.5 <= ratio <= 2.0:
        raise AssertionError(f"sup_n E||u||^2 moved by {ratio:.3f} under "
                             "tau refinement")
    return f"sup_n E||u||^2: {sups[0]:.4f} vs {sups[1]:.4f} across tau levels"


def _check_mesh_geometry() -> str:
    for mesh in _suite_meshes():
        report = validate_admissibility(mesh)
        if not report.ok:
            raise AssertionError("; ".join(report.violations))
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
    config.validate()
    rng = np.random.default_rng(config.seed)
    checks: list[tuple[str, Callable[[], str]]] = [
        ("mesh_admissibility_and_regularity", _check_mesh_geometry),
        ("dibp_identity", lambda: _check_dibp(rng)),
        ("tpfa_self_adjoint_negative_kernel", lambda: _check_tpfa_operator(rng)),
        ("discrete_poincare", lambda: _check_poincare(rng)),
        ("upwind_flux_telescoping", lambda: _check_upwind_telescoping(rng)),
        ("mass_martingale_identity", lambda: _check_mass_identity(rng)),
        ("energy_dissipation_diffusion", lambda: _check_energy("diffusion")),
        ("energy_dissipation_convection", lambda: _check_energy("convection")),
        ("elliptic_projection_contract", lambda: _check_projection(rng)),
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
