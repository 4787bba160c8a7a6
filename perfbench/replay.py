"""Set-up probe and traced replay of one workload, in a fresh process.

    python perfbench/replay.py setup WORKLOAD
    python perfbench/replay.py trace WORKLOAD SEED OUT_DIR

`setup` times importing fvsde and building, through the public API, what a
study builds before its first path: every level's mesh, TPFA operator, cell
averages, injection maps and step workspace (including the LU).

`trace` replays the study serially through the public functions of mesh,
discrete_ops, noise, scheme, stats, reporting and cli, with a span around
each call, then times single calls on the workload's own largest workspace.
It writes the study's CSV into OUT_DIR (run.py compares it byte for byte
with the real study's CSV) and the spans into OUT_DIR/trace.json.

Both modes print one JSON object on stdout.  The package is not changed or
patched: every number comes from around calls into it.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import sys
import time
from contextlib import contextmanager

import workloads


class Tracer:
    """Spans (name, parent, start, end) kept in memory, written at the end."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **attrs):
        with self.span(name, **attrs):
            return fn(*args)

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def total_s(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.named(name))

    def mean_us(self, name: str) -> float:
        spans = self.named(name)
        return 1e6 * self.total_s(name) / len(spans)


def per_call_us(fn, budget_s: float = 0.25) -> float:
    """Median time of repeated direct calls: at least three unless one call
    alone exceeds the budget, at most 2000."""
    times = []
    t_end = time.perf_counter() + budget_s
    while True:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
        now = time.perf_counter()
        if (len(times) >= 2000 or (now >= t_end and len(times) >= 3)
                or (now >= t_end and times[0] >= budget_s)):
            return 1e6 * statistics.median(times)


# ---------------------------------------------------------------------------
# Set-up: everything a study builds before its first path
# ---------------------------------------------------------------------------

def build_levels(w: workloads.Workload, cfg, tr: Tracer) -> dict:
    """Mirror of the study's engine construction, one span per public call."""
    from fvsde.discrete_ops import TpfaOperator
    from fvsde.mesh import build_tensor_mesh, cell_average, injection_map, refine
    from fvsde.noise import TimeGrid
    from fvsde.presets import get_preset
    from fvsde.scheme import build_workspace

    problem = get_preset(cfg.preset)
    horizon = problem.horizon
    meshes = [tr.call("mesh.build", build_tensor_mesh, problem.domain, cfg.mesh)]
    for _ in range(cfg.levels - 1):
        meshes.append(tr.call("mesh.build", refine, meshes[-1]))
    u0s = [tr.call("mesh.cell_average", cell_average, problem.u0, m).values
           for m in meshes]
    levels = {"problem": problem, "meshes": meshes, "u0s": u0s}

    def workspace(mesh, n_steps, tpfa=None):
        return tr.call("scheme.build_workspace", build_workspace, problem,
                       mesh, TimeGrid(n_steps, horizon).tau, tpfa,
                       n_cells=mesh.n_cells)

    if w.study == "temporal":                 # one mesh, one TPFA, many tau
        tpfa = tr.call("discrete_ops.tpfa", TpfaOperator, meshes[0])
        levels["workspaces"] = [workspace(meshes[0], n, tpfa) for n in cfg.steps]
        levels["ref_ws"] = workspace(meshes[0], cfg.ref_steps, tpfa)
    elif w.study == "coupled":                # nested meshes, one tau each
        levels["maps"] = [tr.call("mesh.injection_map", injection_map, m,
                                  meshes[-1]) for m in meshes]
        levels["workspaces"] = [workspace(m, n)
                                for m, n in zip(meshes, cfg.steps)]
        levels["ref_ws"] = workspace(meshes[-1], cfg.ref_steps,
                                     levels["workspaces"][-1].tpfa)
        levels["ref_u0"] = tr.call("mesh.cell_average", cell_average,
                                   problem.u0, meshes[-1]).values
    else:                                     # spatial: tau ~ h^2 per level
        levels["n_steps"] = []
        levels["workspaces"] = []
        for m in meshes:
            hx = max(float(max(s)) for s in m.spacings)
            n = max(1, math.ceil(horizon / (0.5 * hx * hx)))
            levels["n_steps"].append(n)
            levels["workspaces"].append(workspace(m, n))
    levels["all_ws"] = levels["workspaces"] + (
        [levels["ref_ws"]] if "ref_ws" in levels else [])
    return levels


def run_setup(w: workloads.Workload) -> dict:
    t0 = time.perf_counter()
    import fvsde
    from fvsde.cli import parse_config

    cfg = parse_config(w.study, None, w.overrides(workloads.DEFAULT_SEED,
                                                  w.workers, "unused"))
    build_levels(w, cfg, Tracer())
    return {"setup_s": time.perf_counter() - t0,
            "fvsde_file": fvsde.__file__}


# ---------------------------------------------------------------------------
# Traced replay
# ---------------------------------------------------------------------------

class Replay:
    """Steps trajectories through integrate_workspace under a span and
    keeps the Newton iterations it reports, per workspace."""

    def __init__(self, tr: Tracer):
        from fvsde.scheme import StepperParams
        self.tr = tr
        self.params = StepperParams()
        self.steps = self.cell_steps = 0
        self.iters: dict[int, list] = {}    # id(ws) -> [ws, iterations]
        self.largest: dict = {}             # the call with the most cell-steps

    def integrate(self, ws, u0, inc):
        from fvsde.scheme import integrate_workspace
        with self.tr.span("scheme.integrate_workspace",
                          n_cells=ws.mesh.n_cells, steps=len(inc)):
            states, iterations, _ = integrate_workspace(ws, u0, inc,
                                                        self.params)
        self.steps += len(inc)
        self.cell_steps += len(inc) * ws.mesh.n_cells
        self.iters.setdefault(id(ws), [ws, 0])[1] += sum(iterations)
        if len(inc) * ws.mesh.n_cells > self.largest.get("work", -1):
            self.largest = {"work": len(inc) * ws.mesh.n_cells, "ws": ws,
                            "states": states, "inc": inc}
        return states

    def counts(self, workspaces) -> dict:
        """Solver counts; the flop and byte figures are computed, not
        measured: a pair of triangular solves does one multiply-add and
        reads one 8-byte value and one 4-byte index per stored L+U entry."""
        fill = {id(ws): ws.lu.L.nnz + ws.lu.U.nnz
                for ws in workspaces if ws.lu is not None}
        iters = sum(its for _, its in self.iters.values())
        solves_x_fill = sum(its * fill[key] for key, (_, its)
                            in self.iters.items() if key in fill)
        return {
            "scheme.steps": self.steps,
            "scheme.newton_iters": iters,
            "scheme.newton_iters_per_step": iters / self.steps,
            # advance assembles one Jacobian per solve when there is no LU
            "scheme.jacobians": sum(its for ws, its in self.iters.values()
                                    if ws.lu is None),
            "scheme.factorizations": len(fill),
            "scheme.lu_fill_nnz": sum(fill.values()),
            "scheme.solve_flops_computed": 2 * solves_x_fill,
            "scheme.solve_bytes_computed": 12 * solves_x_fill,
        }


def _replay_temporal(cfg, lv, rp: Replay):
    """_TemporalEngine.run_one per path, then run_temporal_rate_study."""
    import numpy as np
    from fvsde.noise import coarsen, sample_path
    from fvsde.stats import mc_mean_ci
    from fvsde.study import RateRow

    tr, horizon, mesh = rp.tr, lv["problem"].horizon, lv["meshes"][0]
    u0 = lv["u0s"][0]
    samples = np.empty((cfg.paths, len(cfg.steps)))
    for p in range(cfg.paths):
        with tr.span("path"):
            path = tr.call("noise.sample_path", sample_path, cfg.seed, p,
                           cfg.ref_steps, horizon)
            ref_final = rp.integrate(lv["ref_ws"], u0, path.increments)[-1]
            for i, (n, ws) in enumerate(zip(cfg.steps, lv["workspaces"])):
                inc = tr.call("noise.coarsen", coarsen, path, n)
                diff = rp.integrate(ws, u0, inc)[-1] - ref_final
                samples[p, i] = float(np.dot(mesh.measures, diff * diff))
    rows = []
    with tr.span("stats.reduce"):
        for i, n in enumerate(cfg.steps):
            mean, ci = mc_mean_ci(samples[:, i])
            rows.append(RateRow(i, mesh.size_h, horizon / n, cfg.paths,
                                mean, ci))
    return rows, [r.tau for r in rows], "tau"


def _replay_coupled(cfg, lv, rp: Replay):
    """_CoupledEngine.run_one per path, then run_coupled_rate_study."""
    import numpy as np
    from fvsde.noise import coarsen, sample_path
    from fvsde.stats import mc_mean_ci
    from fvsde.study import RateRow

    tr, horizon, meshes = rp.tr, lv["problem"].horizon, lv["meshes"]
    m_ref = meshes[-1].measures
    per_level: list[list] = [[] for _ in cfg.steps]
    for p in range(cfg.paths):
        with tr.span("path"):
            path = tr.call("noise.sample_path", sample_path, cfg.seed, p,
                           cfg.ref_steps, horizon)
            ref_states = rp.integrate(lv["ref_ws"], lv["ref_u0"],
                                      path.increments)
            for level, n in enumerate(cfg.steps):
                inc = tr.call("noise.coarsen", coarsen, path, n)
                states = rp.integrate(lv["workspaces"][level],
                                      lv["u0s"][level], inc)
                ks = np.arange(n + 1)
                ratio = cfg.ref_steps // n
                if cfg.left_interpolant:
                    c_idx, r_idx = ks, ks * ratio
                else:
                    c_idx = np.minimum(ks + 1, n)
                    r_idx = np.minimum(ks * ratio + 1, cfg.ref_steps)
                diff = states[c_idx][:, lv["maps"][level]] - ref_states[r_idx]
                per_level[level].append((diff * diff) @ m_ref)
    rows = []
    with tr.span("stats.reduce"):
        for level, n in enumerate(cfg.steps):
            stacked = np.stack(per_level[level])
            sup_node = int(np.argmax(stacked.mean(axis=0)))
            mean, ci = mc_mean_ci(stacked[:, sup_node])
            rows.append(RateRow(level, meshes[level].size_h, horizon / n,
                                cfg.paths, mean, ci))
    return rows, [r.h for r in rows], "h"


def _replay_spatial(cfg, lv, rp: Replay):
    """run_spatial_rate_study: one noise-free trajectory per level."""
    import numpy as np
    from fvsde.mesh import cell_average
    from fvsde.study import RateRow

    problem = lv["problem"]
    horizon = problem.horizon
    rows = []
    for level, (mesh, ws, n) in enumerate(zip(lv["meshes"], lv["workspaces"],
                                              lv["n_steps"])):
        final = rp.integrate(ws, lv["u0s"][level], np.zeros(n))[-1]
        exact = rp.tr.call("mesh.cell_average", cell_average,
                           lambda x: problem.exact_solution(x, horizon),
                           mesh).values
        diff = final - exact
        rows.append(RateRow(level, mesh.size_h, horizon / n, 1,
                            float(np.dot(mesh.measures, diff * diff)), 0.0))
    return rows, [r.h for r in rows], "h"


_REPLAYS = {"temporal": _replay_temporal, "coupled": _replay_coupled,
            "spatial": _replay_spatial}


def _write_report(w, cfg, rows, scales, scale_name, tr: Tracer,
                  out_dir: str) -> str:
    """Fit and write the study's artifacts; returns the CSV path."""
    from fvsde.reporting import (RunManifest, rate_report_csv,
                                 rate_report_summary, svg_loglog, write_json,
                                 write_manifest, write_text)
    from fvsde.stats import fit_rate
    from fvsde.study import RateReport

    errs = [math.sqrt(r.err_mean_sq) for r in rows]
    with tr.span("stats.reduce"):
        slope, intercept, resid = fit_rate(list(zip(scales, errs)))
        so_far = [float("nan")] + [fit_rate(list(zip(scales[:i], errs[:i])))[0]
                                   for i in range(2, len(rows) + 1)]
    report = RateReport(w.study, rows, scale_name, slope, intercept, resid,
                        so_far, {"seed": cfg.seed})
    stem = os.path.join(out_dir, w.study)
    with tr.span("reporting.write"):
        write_text(stem + "_rates.csv", rate_report_csv(report))
        write_json(stem + "_summary.json", rate_report_summary(report))
        write_text(stem + "_plot.svg",
                   svg_loglog(report, f"{w.study}: slope {slope:.3f}"))
        write_manifest(os.path.join(out_dir, "manifest.json"), RunManifest(
            config={"workload": w.name, "seed": cfg.seed}, version="replay",
            started="", outputs=[stem + "_rates.csv"]))
    return stem + "_rates.csv"


def _probes(seed: int, lv, rp: Replay) -> dict:
    """Direct calls on the workload's own objects, outside the study span.

    The TPFA and edge-velocity assembly that build_workspace does inside
    itself, and layers a workload never calls (noise on spatial-3d,
    injection_map off coupled-64), are timed here so that every layer has a
    number on every workload.  The single-call scheme timings use the
    workspace with the most cell-steps and a state from its trajectory.
    """
    import numpy as np
    from scipy.sparse.linalg import splu, spsolve
    from fvsde.discrete_ops import TpfaOperator, edge_velocity
    from fvsde.mesh import injection_map
    from fvsde.noise import coarsen, sample_path

    tr, problem, meshes = rp.tr, lv["problem"], lv["meshes"]
    velocity = problem.velocity or (lambda t, x: np.zeros_like(x))
    for ws in lv["all_ws"]:
        tr.call("probe.edge_velocity", edge_velocity, velocity, ws.mesh, 0.0,
                ws.tau)
    if not tr.named("discrete_ops.tpfa"):
        for mesh in meshes:
            tr.call("discrete_ops.tpfa", TpfaOperator, mesh)
    if not tr.named("mesh.injection_map"):
        tr.call("mesh.injection_map", injection_map, meshes[0], meshes[-1])
    if not tr.named("noise.sample_path"):
        path = tr.call("noise.sample_path", sample_path, seed, 0, 1024,
                       problem.horizon)
        tr.call("noise.coarsen", coarsen, path, 8)

    ws, states, inc = (rp.largest[k] for k in ("ws", "states", "inc"))
    k = len(inc) // 2 + 1
    prev, cand, d_w = states[k - 1], states[k], float(inc[k - 1])
    r = ws.residual(prev, prev, d_w)
    jac = ws.jacobian(prev).tocsr()
    lu = ws.lu if ws.lu is not None else splu(jac.tocsc())
    return {
        "scheme.residual_us": per_call_us(lambda: ws.residual(cand, prev, d_w)),
        "scheme.solve_us": per_call_us(lambda: lu.solve(-r)),
        "scheme.advance_us": per_call_us(
            lambda: ws.advance(prev, d_w, rp.params)),
        "scheme.jacobian_us": per_call_us(lambda: ws.jacobian(prev)),
        "scheme.spsolve_us": per_call_us(lambda: spsolve(jac, -r)),
    }


# Spans around public calls made inside the study span; none nests another.
_STUDY_CALLS = ("cli.parse_config", "mesh.build", "mesh.cell_average",
                "mesh.injection_map", "discrete_ops.tpfa",
                "scheme.build_workspace", "scheme.integrate_workspace",
                "noise.sample_path", "noise.coarsen", "stats.reduce",
                "reporting.write")


def run_trace(w: workloads.Workload, seed: int, out_dir: str) -> dict:
    tr = Tracer()
    with tr.span("cli.import"):
        import fvsde.cli
    rp = Replay(tr)
    with tr.span("study") as study:
        cfg = tr.call("cli.parse_config", fvsde.cli.parse_config, w.study,
                      None, w.overrides(seed, w.workers, out_dir))
        lv = build_levels(w, cfg, tr)
        rows, scales, scale_name = _REPLAYS[w.study](cfg, lv, rp)
        csv_path = _write_report(w, cfg, rows, scales, scale_name, tr, out_dir)
    study_done = time.monotonic()
    n_study_spans = len(tr.spans)
    with tr.span("probes"):
        direct = _probes(seed, lv, rp)

    step_acc: dict[int, list] = {}
    for s in tr.named("scheme.integrate_workspace"):
        acc = step_acc.setdefault(s["n_cells"], [0.0, 0])
        acc[0] += s["end"] - s["start"]
        acc[1] += s["steps"]
    step_us = {n: 1e6 * t / k for n, (t, k) in sorted(step_acc.items())}
    child_s = sum(s["end"] - s["start"] for s in tr.spans[:n_study_spans]
                  if s["name"] in _STUDY_CALLS)
    # serial time spent on paths: what the worker pool divides
    path_s = (tr.total_s("path") if tr.named("path")
              else tr.total_s("scheme.integrate_workspace"))
    layers = {
        "mesh.build_s": tr.total_s("mesh.build"),
        "mesh.cell_average_s": tr.total_s("mesh.cell_average"),
        "mesh.injection_map_s": tr.total_s("mesh.injection_map"),
        "discrete_ops.tpfa_s": tr.total_s("discrete_ops.tpfa"),
        "discrete_ops.edge_velocity_s": tr.total_s("probe.edge_velocity"),
        "noise.sample_path_us": tr.mean_us("noise.sample_path"),
        "noise.coarsen_us": tr.mean_us("noise.coarsen"),
        "scheme.build_workspace_s": tr.total_s("scheme.build_workspace"),
        "scheme.step_us": step_us[max(step_us)],
        "scheme.step_us_coarse": step_us[min(step_us)],
        **direct,
        **rp.counts(lv["all_ws"]),
        "study.self_s": study["end"] - study["start"] - child_s,
        "stats.reduce_s": tr.total_s("stats.reduce"),
        "reporting.write_s": tr.total_s("reporting.write"),
        "cli.import_s": tr.total_s("cli.import"),
    }
    with open(os.path.join(out_dir, "trace.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": w.name, "seed": seed, "spans": tr.spans,
                   "layers": layers}, fh)
    return {"layers": layers, "path_s": path_s, "cell_steps": rp.cell_steps,
            "study_done": study_done, "step_us_by_cells": step_us,
            "csv": csv_path}


def main(argv: list[str]) -> int:
    w = workloads.WORKLOADS[argv[1]]
    if argv[0] == "setup":
        result = run_setup(w)
    else:
        os.makedirs(argv[3], exist_ok=True)
        result = run_trace(w, int(argv[2]), argv[3])
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
