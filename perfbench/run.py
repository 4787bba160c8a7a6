"""fvsde benchmark: time to a rate verdict, and where it goes.

    python3 perfbench/run.py --workload temporal-32 [--seed 12345]
                             [--seconds 15] [--trace 0|1]
    python3 perfbench/run.py --workload all        # every workload in turn

Run from anywhere inside a source checkout; the package is taken from
`src/` next to this directory and is not installed or modified.

--trace 0 (end to end, tracing off): checks that CSVs do not depend on the
worker count, times the set-up in fresh processes, then runs the study as a
fresh `python -m fvsde <study>` process again and again for --seconds,
checking every run's CSV.  Reports medians over the runs.

--trace 1 (per layer): runs the study once untraced (and once serially when
it uses workers), then replays it through the package's public functions
with a span around each call (replay.py).  The replay's CSV must equal the
study's byte for byte, and its counts the recorded ones.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics named in BENCHMARK.json.  The exit code is 0 only when every
check passed; 2 when the checkout has no fvsde sources.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS_DIR = ROOT / ".perfbench_runs"
SETUP_REPEATS = 3
PROCESS_TIMEOUT_S = 120
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def study_env() -> dict:
    """No FVSDE_* variable (they override the workload config), one BLAS or
    OpenMP thread per process, the checkout's sources on the path, and no
    bytecode written into them (compiling fvsde costs a few ms)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("FVSDE_")}
    env.update({var: "1" for var in THREAD_VARS})
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    return env


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def provenance() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}" + ("d" if kind == "Data" else "")] = size
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    return {"nproc": nproc(), "cpu_count": os.cpu_count(), "cpu": cpu,
            "caches": caches, "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "scipy": importlib.metadata.version("scipy"), "commit": commit}


@dataclass
class Proc:
    code: int
    started: float          # time.monotonic() at launch
    wall_s: float           # launch to exit
    peak_rss_mb: float      # largest resident set of it and its workers
    stdout: str
    stderr: str


def launch(args: list[str], log_dir: Path, tag: str) -> Proc:
    """Run `python <args>` in the checkout and wait for it and its workers.

    os.wait4 reports the peak RSS of the process and of every child it
    reaped, so a study's pool workers are included.
    """
    out_path, err_path = log_dir / f"{tag}.out", log_dir / f"{tag}.err"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        started = time.monotonic()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT,
                                env=study_env(), stdout=out, stderr=err)
        watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.monotonic() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, started, wall, usage.ru_maxrss / 1024.0,
                out_path.read_text(), err_path.read_text())


class Run:
    """One invocation on one workload: launched processes and problems."""

    def __init__(self, w: workloads.Workload, seed: int, reference: dict):
        self.w, self.seed, self.reference = w, seed, reference
        self.workers = min(w.workers, nproc())
        self.dir = RUNS_DIR / w.name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def process(self, args: list[str], tag: str) -> Proc | None:
        """Launch, count, and return the process if it exited 0."""
        self.attempted += 1
        proc = launch(args, self.dir, tag)
        if proc.code != 0:
            self.fail(tag, f"exit {proc.code}: {proc.stderr.strip()[-400:]}")
            return None
        return proc

    def fail(self, tag: str, problem: str) -> None:
        self.failed += 1
        self.problems.append(f"{tag}: {problem}")

    def study(self, tag: str, workers: int | None = None):
        """Run the study once; returns (process, CSV bytes) or None."""
        out = self.dir / tag
        proc = self.process(["-m", "fvsde", *self.w.argv(
            self.seed, workers or self.workers, str(out))], tag)
        if proc is None:
            return None
        csv = (out / f"{self.w.study}_rates.csv").read_bytes()
        problems = workloads.check_rates(self.w, self.seed, csv.decode(),
                                         self.reference)
        if problems:
            self.fail(tag, "; ".join(problems))
            return None
        return proc, csv

    def identity_check(self) -> None:
        """Reduced coupled config: CSV bytes for --workers 1 and 2 agree."""
        csvs = []
        for workers in (1, 2):
            tag = f"identity-w{workers}"
            out = self.dir / tag
            if self.process(["-m", "fvsde", *workloads.IDENTITY_ARGV,
                             "--workers", str(workers), "--seed",
                             str(self.seed), "--out", str(out)], tag):
                csvs.append((out / "coupled_rates.csv").read_bytes())
        if len(csvs) == 2 and csvs[0] != csvs[1]:
            self.fail("identity", "coupled CSV differs between --workers 1 "
                      "and --workers 2")

    def replay(self, mode: str, tag: str, *extra: str):
        proc = self.process([str(HERE / "replay.py"), mode, self.w.name,
                             *extra], tag)
        if proc is None:
            return None, None
        return proc, json.loads(proc.stdout.strip().splitlines()[-1])


def measure_e2e(run: Run, seconds: float) -> dict:
    w = run.w
    run.identity_check()                  # also warms the bytecode cache
    setups = []
    for i in range(SETUP_REPEATS):
        _, result = run.replay("setup", f"setup{i}")
        if result is None:
            continue
        if Path(result["fvsde_file"]).resolve() != ROOT / "src/fvsde/__init__.py":
            run.fail(f"setup{i}", f"imported fvsde from {result['fvsde_file']}")
        setups.append(result["setup_s"])
    walls, rss, csvs = [], [], []
    n_runs, t_end = 0, time.monotonic() + seconds
    while n_runs == 0 or time.monotonic() < t_end:
        tag = f"run{n_runs}"
        n_runs += 1
        done = run.study(tag)
        if done is None:
            continue
        proc, csv = done
        walls.append(proc.wall_s)
        rss.append(proc.peak_rss_mb)
        csvs.append(csv)
        print(f"  {tag}: wall {proc.wall_s:.3f} s, peak RSS "
              f"{proc.peak_rss_mb:.1f} MB")
    if any(c != csvs[0] for c in csvs):
        run.fail("runs", "CSV differs between repeated runs at one seed")
    print(f"  {len(walls)} timed runs, {len(setups)} set-ups; "
          f"failed_frac {run.failed / run.attempted:.4g} "
          f"({run.failed}/{run.attempted})")
    if not walls or not setups:
        return {}
    wall = statistics.median(walls)
    return {"wall_s": wall, "cell_steps_per_s": w.cell_steps / wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(rss),
            "ok_frac": 1.0 - run.failed / run.attempted}


def measure_layers(run: Run) -> dict:
    w = run.w
    run.identity_check()
    done = run.study("study")
    if done is None:
        return {}
    proc, csv = done
    serial_wall = proc.wall_s
    if run.workers > 1:
        serial = run.study("study-serial", workers=1)
        if serial is None:
            return {}
        serial_wall = serial[0].wall_s
        if serial[1] != csv:
            run.fail("study-serial", "CSV differs from the pooled run")
    replay_proc, result = run.replay("trace", "replay", str(run.seed),
                                     str(run.dir / "replay"))
    if result is None:
        return {}
    if Path(result["csv"]).read_bytes() != csv:
        run.fail("replay", "replayed CSV differs from the study's")
    if result["cell_steps"] != w.cell_steps:
        run.fail("replay", f"{result['cell_steps']} cell-steps, "
                 f"want {w.cell_steps}")
    print(f"  study wall {proc.wall_s:.3f} s with {run.workers} worker(s), "
          f"serial {serial_wall:.3f} s; replay to end of study span "
          f"{result['study_done'] - replay_proc.started:.3f} s")
    layers = result["layers"]
    expected = run.reference["counts"]
    checked = (expected if run.seed == workloads.DEFAULT_SEED or not w.seeded
               else workloads.SEED_FREE_COUNTS)
    for name in checked:
        if layers[name] != expected[name]:
            run.fail("replay", f"{name} = {layers[name]}, recorded "
                     f"{expected[name]}")
    layers["study.parallel_efficiency"] = (
        result["path_s"] / (run.workers * proc.wall_s))
    layers["trace.overhead_s"] = (
        result["study_done"] - replay_proc.started - serial_wall)
    print("  integrate_workspace us per step by mesh cells: "
          + ", ".join(f"{n}: {us:.1f}"
                      for n, us in result["step_us_by_cells"].items()))
    print(f"  spans in {run.dir / 'replay' / 'trace.json'}")
    return layers


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 spec: dict, reference: dict) -> dict:
    w = workloads.WORKLOADS[name]
    kind = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    print(f"{name} (seed {seed}, {'traced replay' if trace else 'end to end'})")
    run = Run(w, seed, reference[name])
    values = measure_layers(run) if trace else measure_e2e(run, seconds)
    missing = [m for m in units if m not in values]
    if missing and not run.problems:
        run.problems.append(f"no value for {missing}")
    for problem in run.problems:
        print(f"  FAILED {problem}")
    for metric, unit in units.items():
        if metric in values:
            print(f"  {metric:32s} {values[metric]:.6g} {unit}")
    return {"correct": not run.problems, "attempted": max(run.attempted, 1),
            "failed": run.failed,
            "metrics": {m: {"value": values[m], "unit": u}
                        for m, u in units.items() if m in values}}


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "fvsde" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no fvsde sources under {ROOT / 'src'}\n")
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        reference = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    print("provenance " + json.dumps(provenance()))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace),
                               spec, reference) for n in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{m}": v for n, r in results.items()
                             for m, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
