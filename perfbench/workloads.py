"""The benchmark's workloads: study configs, fixed work and output checks.

Shared by run.py (which launches `python -m fvsde <study>`) and replay.py
(which rebuilds the same config through `fvsde.cli.parse_config`).  This
module imports nothing from fvsde, numpy or scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

DEFAULT_SEED = 12345

# Relative tolerance on each level's err_mean_sq against the values recorded
# at the default seed.  Reordering a solve moves final states by ~1e-13 and
# err_mean_sq by ~1e-11 relative; Monte Carlo noise is ~1e-1 relative (the
# CI half-width over the mean).  1e-6 sits far from both.
REFERENCE_RTOL = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    study: str
    preset: str
    mesh: tuple[int, ...]
    levels: int
    steps: tuple[int, ...]
    ref_steps: int
    paths: int
    workers: int
    cell_steps: int                     # cells x steps summed over all runs
    seeded: bool                        # does --seed change the outputs?
    slope_window: tuple[float, float] | None
    ratio_window: tuple[float, float] | None = None

    def overrides(self, seed: int, workers: int, out: str) -> dict:
        """Config keys as `fvsde.cli.parse_config` takes them."""
        keys = {"preset": self.preset, "mesh": self.mesh,
                "levels": self.levels, "seed": seed, "out": out}
        if self.steps:
            keys.update(steps=self.steps, ref_steps=self.ref_steps,
                        paths=self.paths, workers=workers)
        return keys

    def argv(self, seed: int, workers: int, out: str) -> list[str]:
        """The `fvsde` command line for the same config."""
        args = [self.study]
        for key, value in self.overrides(seed, workers, out).items():
            if isinstance(value, tuple):
                value = ("x" if key == "mesh" else ",").join(map(str, value))
            args += ["--" + key.replace("_", "-"), str(value)]
        return args


WORKLOADS = {w.name: w for w in (
    # Acceptance criterion 2 and the single-process baseline: per-step Python
    # overhead and small LU solves on 1,024 cells, 81,408 steps.
    Workload("temporal-32", "temporal", "stochastic", (32, 32), 1,
             (8, 16, 32, 64, 128), 1024, 64, 1,
             cell_steps=64 * (8 + 16 + 32 + 64 + 128 + 1024) * 32 * 32,
             seeded=True, slope_window=(0.35, 0.75)),
    # Acceptance criterion 3: the only user of the process pool, refine,
    # injection_map and the coupled comparator (a 513 x 4096 history a path).
    Workload("coupled-64", "coupled", "stochastic", (8, 8), 4,
             (8, 16, 32, 64), 512, 64, 2,
             cell_steps=64 * (8 * 64 + 16 * 256 + 32 * 1024 + 64 * 4096
                              + 512 * 4096),
             seeded=True, slope_window=(0.35, 0.8), ratio_window=(1.5, 3.0)),
    # Noise-free, one trajectory: three large LU factorizations and 270
    # large solves.  Per-path or per-step work does not show here.
    Workload("spatial-3d", "spatial", "heat3d", (8, 8, 8), 3, (), 1, 1, 1,
             cell_steps=sum(8 ** 3 * 8 ** l * math.ceil(0.2 * 64 * 4 ** l)
                            for l in range(3)),
             seeded=False, slope_window=(0.9, 2.2)),
    # The only workload on the Newton path: a Jacobian assembly and a fresh
    # sparse solve on every iteration.
    Workload("nonlinear-16", "temporal", "nonlinear", (16, 16), 1,
             (8, 16, 32, 64), 256, 16, 1,
             cell_steps=16 * (8 + 16 + 32 + 64 + 256) * 16 * 16,
             seeded=True, slope_window=None),
)}

# Reduced coupled config run with --workers 1 and 2 once per invocation; the
# two CSVs must be byte-identical (acceptance criterion 10).
IDENTITY_ARGV = ["coupled", "--mesh", "4x4", "--levels", "3", "--steps",
                 "4,8,16", "--ref-steps", "64", "--paths", "6"]

# Counts that do not depend on the seed.
SEED_FREE_COUNTS = ("scheme.steps", "scheme.factorizations",
                    "scheme.lu_fill_nnz")


def parse_rates_csv(text: str) -> list[dict]:
    """Rows of a `<study>_rates.csv` file as dicts of floats (level, n_paths
    as ints)."""
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        rows.append({k: int(v) if k in ("level", "n_paths") else float(v)
                     for k, v in row.items()})
    return rows


def check_rates(w: Workload, seed: int, text: str,
                reference: dict) -> list[str]:
    """Problems with one run's CSV; an empty list means the output is right.

    At the default seed (and at every seed for a workload the seed does not
    affect) each level's err_mean_sq must match the recorded value within
    REFERENCE_RTOL.  At other seeds the acceptance suite's slope and
    squared-error ratio windows apply where the workload has them.
    """
    try:
        rows = parse_rates_csv(text)
    except (ValueError, IndexError) as exc:
        return [f"unreadable CSV: {exc}"]
    n_levels = len(w.steps) if w.study == "temporal" else w.levels
    problems = []
    if len(rows) != n_levels:
        problems.append(f"{len(rows)} CSV rows, want {n_levels}")
        return problems
    errs = [r["err_mean_sq"] for r in rows]
    if not all(math.isfinite(e) and e > 0.0 for e in errs):
        problems.append(f"non-positive or non-finite err_mean_sq {errs}")
    want_paths = w.paths if w.steps else 1
    if any(r["n_paths"] != want_paths for r in rows):
        problems.append(f"n_paths column is not {want_paths}")
    if seed == DEFAULT_SEED or not w.seeded:
        for level, (got, want) in enumerate(zip(errs, reference["err_mean_sq"])):
            if abs(got - want) > REFERENCE_RTOL * abs(want):
                problems.append(f"level {level} err_mean_sq {got!r} differs "
                                f"from reference {want!r}")
        return problems
    slope = rows[-1]["slope_so_far"]
    if w.slope_window and not w.slope_window[0] <= slope <= w.slope_window[1]:
        problems.append(f"slope {slope:.3f} outside {w.slope_window}")
    if w.ratio_window:
        ratios = [a / b for a, b in zip(errs, errs[1:])]
        lo, hi = w.ratio_window
        if not all(lo <= r <= hi for r in ratios):
            problems.append(f"squared-error ratios {ratios} outside {w.ratio_window}")
    return problems
