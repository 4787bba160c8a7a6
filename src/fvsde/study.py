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

import numpy as np

from .discrete_ops import TpfaOperator, h1_seminorm_sq, l2_norm_sq
from .errors import ConfigError
from .mesh import (TensorMesh, build_tensor_mesh, cell_average, injection_map,
                   refine)
from .noise import MAX_FINE_STEPS, TimeGrid, coarsen, sample_path
from .presets import get_preset
from .scheme import (STABILITY_MARGIN, StepperParams, build_workspace,
                     integrate_workspace)
from .stats import fit_rate, mc_mean_ci

__all__ = [
    "StudyConfig",
    "RateRow",
    "RateReport",
    "default_config",
    "run_rate_study",
]

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

STUDIES = tuple(_DEFAULTS)

HOELDER_SEPARATIONS = (1, 2, 4)

# spatial levels step with tau ~ SPATIAL_TAU_FACTOR h_axis^2, h_axis the
# level's largest cell side
SPATIAL_TAU_FACTOR = 0.5


@dataclass(frozen=True)
class StudyConfig:
    """Everything needed to reproduce a study run; build it with
    :func:`default_config`."""

    study: str
    preset: str
    mesh: tuple[int, ...]
    levels: int
    steps: tuple[int, ...]
    ref_steps: int
    paths: int
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
        if self.study in _COMPARATORS and self.paths < 2:
            raise ConfigError("paths must be >= 2 (confidence intervals need "
                              "at least two samples)")
        if self.levels < 1:
            raise ConfigError("levels must be >= 1")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if not 1 <= self.ref_steps <= MAX_FINE_STEPS:
            raise ConfigError(f"ref_steps must lie in [1, 2**23] (exact noise "
                              f"lattice sums), got {self.ref_steps}")
        # FVSDE_* variables reach every subcommand, so a rule across two
        # settings (here, and the preset's dimension) binds only studies
        # that read both
        for n in self.steps if self.study in ("temporal", "coupled") else ():
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
        # a level on the reference's own mesh and steps has error exactly 0
        if (self.study == "temporal" and self.ref_steps in self.steps
                or self.study == "coupled" and self.steps[-1] == self.ref_steps):
            raise ConfigError(f"{self.study}: a level runs ref_steps="
                              f"{self.ref_steps} on the reference mesh, so it "
                              "is the reference itself; drop it from the chain")
        if self.study == "projections" and self.levels < 3:
            raise ConfigError("projections study needs at least 3 levels")
        problem = get_preset(self.preset)
        dim = 2 if self.study == "projections" else len(problem.domain)
        if self.study != "properties" and len(self.mesh) != dim:
            raise ConfigError(f"{self.study} with preset {self.preset!r} "
                              f"needs a {dim}-D mesh, got {self.mesh}")
        # with fewer than 2 cells in x (or 3 in y) sin(pi x) (or sin(2 pi y))
        # vanishes at every node, so every exact cell average of the test
        # function cos(pi x) cos(2 pi y) is zero: a degenerate base level
        if self.study == "projections" and (self.mesh[0] < 2
                                            or self.mesh[1] < 3):
            raise ConfigError(
                f"projections: cos(pi x) cos(2 pi y) has zero cell averages "
                f"on base mesh {self.mesh}; use at least 2 cells in x and 3 "
                "in y")
        if self.study == "spatial" and problem.exact_solution is None:
            raise ConfigError(f"preset {self.preset!r} has no closed-form "
                              "solution; the spatial study needs one")
        if self.study == "hoelder" and self.ref_steps < 2 * max(HOELDER_SEPARATIONS):
            raise ConfigError("hoelder study needs ref_steps >= "
                              f"{2 * max(HOELDER_SEPARATIONS)}")
        # every preset keeps a uniform state uniform, so the spatial errors
        # and Hoelder increments of a uniform base datum are rounding noise
        if self.study in ("spatial", "hoelder"):
            avg = cell_average(problem.u0,
                               build_tensor_mesh(problem.domain, self.mesh)).values
            spread = float(avg.max() - avg.min())
            if spread <= 1e-12 * max(1.0, float(np.max(np.abs(avg)))):
                raise ConfigError(
                    f"{self.study}: the initial datum of preset {self.preset!r} "
                    f"is uniform on base mesh {self.mesh} (cell averages span "
                    f"{spread:.1e}), so every error is rounding noise; refine "
                    "the base mesh")
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

    @property
    def fit_points(self) -> list[tuple[float, float]]:
        """(scale, error) pairs the slope is fitted on and plotted from: h or
        tau against the root mean squared error ("dt": the mean as it is)."""
        return [(r.h if self.scale_name == "h" else r.tau,
                 r.err_mean_sq if self.scale_name == "dt"
                 else math.sqrt(r.err_mean_sq)) for r in self.rows]


def _report(study: str, rows: list[RateRow], scale_name: str,
            metadata: dict) -> RateReport:
    """Fit the rate of the rows' errors against their h (or tau) column."""
    report = RateReport(study, rows, scale_name, math.nan, math.nan, math.nan,
                        [math.nan], metadata)
    points = report.fit_points
    if any(e <= 0.0 for _, e in points):
        raise ConfigError(
            f"{study}: a level has error exactly zero (it coincides with the "
            "reference); drop it from the refinement chain")
    report.slope, report.intercept, report.fit_residual = fit_rate(points)
    report.slopes_so_far += [fit_rate(points[:i])[0]
                             for i in range(2, len(rows) + 1)]
    return report


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
    return {
        "preset": config.preset,
        "seed": config.seed,
        "paths": config.paths,
        "mesh": list(config.mesh),
        "horizon": problem.horizon,
        "noise_factorizes": problem.noise_factorizes,
        "newton_tol": StepperParams().newton_tol,
        "tau_lbeta_margin": STABILITY_MARGIN,
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
        levels.append((m, max(1, math.ceil(
            problem.horizon / (SPATIAL_TAU_FACTOR * hx * hx)))))
    return levels, None


# ---------------------------------------------------------------------------
# Monte Carlo engine
# ---------------------------------------------------------------------------

def _node_indices(config: StudyConfig,
                  n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """The node pairs (level step index, reference step index) a level of
    n_steps is compared at.  temporal: the final time alone.  coupled: each
    of the n_steps + 1 shared nodes; the right interpolant compares the
    state after the node's step, the left one the state at the node."""
    if config.study == "temporal":
        return np.array([n_steps]), np.array([config.ref_steps])
    ks = np.arange(n_steps + 1)
    ratio = config.ref_steps // n_steps
    if config.left_interpolant:
        return ks, ks * ratio
    return (np.minimum(ks + 1, n_steps),
            np.minimum(ks * ratio + 1, config.ref_steps))


class _PathEngine:
    """Coupled runs of every level against the reference, path by path.

    Path p samples one Brownian path at the reference resolution, runs the
    reference on it and every level on its block sums, and hands the states
    to the study's comparator.  Each mesh gets one TPFA operator and one u0;
    each level one workspace.  Each run stores only the rows its comparator
    reads (None: every state): a level keeps the rows of its node pairs and
    the reference the union of the levels' reference rows; hoelder keeps
    every reference state.  Worker processes build their own engine.
    """

    def __init__(self, config: StudyConfig):
        self.config = config
        self.problem = get_preset(config.preset)
        self.params = StepperParams()
        levels, (self.ref_mesh, ref_steps) = _levels(config, self.problem)
        runs = levels + [(self.ref_mesh, ref_steps)]
        rows: list[np.ndarray | None] = [None] * len(runs)
        if config.study != "hoelder":
            nodes = [_node_indices(config, n) for _, n in levels]
            rows = [np.unique(c_idx) for c_idx, _ in nodes]
            rows.append(np.unique(np.concatenate([r for _, r in nodes])))
            # each level's node pairs, as positions in the two runs' kept rows
            self.nodes = [(np.searchsorted(kept, c_idx),
                           np.searchsorted(rows[-1], r_idx))
                          for (c_idx, r_idx), kept in zip(nodes, rows)]
        per_mesh: dict[TensorMesh, tuple] = {}
        self.runs = []           # (n_steps, workspace, u0, rows), ref last
        for (mesh, n_steps), kept in zip(runs, rows):
            if mesh not in per_mesh:
                per_mesh[mesh] = (TpfaOperator(mesh),
                                  cell_average(self.problem.u0, mesh).values)
            tpfa, u0 = per_mesh[mesh]
            ws = build_workspace(self.problem, mesh,
                                 TimeGrid(n_steps, self.problem.horizon).tau,
                                 tpfa)
            self.runs.append((n_steps, ws, u0, kept))
        self.compare = _COMPARATORS[config.study]
        self.lifts = [injection_map(ws.mesh, self.ref_mesh)
                      for _, ws, _, _ in self.runs[:-1]]

    def run_one(self, path_index: int):
        path = sample_path(self.config.seed, path_index,
                           self.config.ref_steps, self.problem.horizon)
        states = [integrate_workspace(ws, u0, coarsen(path, n), self.params,
                                      kept)[0]
                  for n, ws, u0, kept in self.runs]
        return self.compare(self, states[:-1], states[-1])


def _shared_nodes(engine: _PathEngine, levels, ref) -> list[np.ndarray]:
    """Squared L2 distance at each of a level's node pairs (_node_indices),
    the level lifted to the reference mesh."""
    out = []
    for (c_pos, r_pos), lift, states in zip(engine.nodes, engine.lifts,
                                            levels):
        out.append(l2_norm_sq(engine.ref_mesh,
                              states[c_pos][:, lift] - ref[r_pos]))
    return out


def _increments(engine: _PathEngine, levels, ref):
    """Mean squared increments of the reference run at each separation, in
    L2 and in the discrete H1 seminorm."""
    mesh = engine.ref_mesh
    vals = np.empty(len(HOELDER_SEPARATIONS))
    grads = np.empty(len(HOELDER_SEPARATIONS))
    for i, sep in enumerate(HOELDER_SEPARATIONS):
        d = ref[sep:] - ref[:-sep]
        vals[i] = float(np.mean(l2_norm_sq(mesh, d)))
        grads[i] = float(np.mean(h1_seminorm_sq(mesh, d)))
    return vals, grads


_COMPARATORS = {"temporal": _shared_nodes, "coupled": _shared_nodes,
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

def _spatial_rows(problem, levels) -> list[RateRow]:
    """Deterministic mesh-refinement sweep against the closed-form solution.

    Time steps scale like h^2 so the implicit Euler error stays subdominant;
    the error column is the discrete L2 distance between the final state and
    the cell averages of the exact solution.
    """
    params = StepperParams()
    rows = []
    for level, (mesh, n_steps) in enumerate(levels):
        tau = TimeGrid(n_steps, problem.horizon).tau
        ws = build_workspace(problem, mesh, tau)
        u0 = cell_average(problem.u0, mesh).values
        (final,), _, _ = integrate_workspace(ws, u0, np.zeros(n_steps), params,
                                             np.array([n_steps]))
        exact = cell_average(
            lambda x: problem.exact_solution(x, problem.horizon), mesh).values
        err_sq = float(l2_norm_sq(mesh, final - exact))
        rows.append(RateRow(level, mesh.size_h, tau, 1, err_sq, 0.0))
    return rows


def run_rate_study(config: StudyConfig) -> list[RateReport]:
    """The study's rate reports: one for spatial, temporal and coupled, and
    for hoelder the L2 then the H1-seminorm report.

    temporal and coupled: per level, the Monte Carlo mean of the squared
    discrete L2 distance to the reference run driven by the same Brownian
    path at each of the level's node pairs (_node_indices), and the level
    error is the sup over its pairs.  temporal runs one mesh and compares
    the final time alone; coupled refines tau and h together against the
    finest level, lifts coarse states through the parent-cell map and
    compares every shared time node (right-interpolant node convention
    unless configured otherwise).  hoelder: mean
    squared increments of the reference run against the separation |t - s|,
    dyadic multiples of the step with anchors over the whole trajectory;
    the expected slope is about 1 in both norms.
    """
    config.validate()
    study = config.study
    if study != "spatial" and study not in _COMPARATORS:
        raise ConfigError(f"{study!r} is not a rate study")
    problem = get_preset(config.preset)
    levels, ref = _levels(config, problem)
    if study in ("spatial", "coupled"):
        extra = {"mesh_regularity": [m.regularity for m, _ in levels]}
    else:
        extra = {"mesh_regularity": ref[0].regularity}
    if study == "spatial":
        md = _base_metadata(config, problem,
                            {**extra, "tau_rule":
                             f"{SPATIAL_TAU_FACTOR}*h_axis^2"})
        return [_report(study, _spatial_rows(problem, levels), "h", md)]
    results = _map_paths(config)
    if study == "hoelder":
        md = _base_metadata(config, problem, {
            **extra, "fine_steps": config.ref_steps,
            "separations": list(HOELDER_SEPARATIONS)})
        tau = problem.horizon / config.ref_steps
        h_dt = [(ref[0].size_h, sep * tau) for sep in HOELDER_SEPARATIONS]
        return [_mc_report(f"hoelder_{norm}", config,
                           np.stack([r[i] for r in results]).T, h_dt, "dt", md)
                for i, norm in enumerate(("l2", "h1"))]
    extra["ref_steps"] = config.ref_steps
    h_tau = [(m.size_h, problem.horizon / n) for m, n in levels]
    columns = []
    for level in range(len(levels)):
        stacked = np.stack([results[p][level] for p in range(config.paths)])
        columns.append(stacked[:, int(np.argmax(stacked.mean(axis=0)))])
    if study == "coupled":
        extra["interpolant"] = "left" if config.left_interpolant else "right"
    md = _base_metadata(config, problem, extra)
    return [_mc_report(study, config, columns, h_tau,
                       "tau" if study == "temporal" else "h", md)]
