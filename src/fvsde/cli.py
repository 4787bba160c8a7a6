"""Command-line entry points.

Subcommands: properties, spatial, temporal, coupled, hoelder, projections,
mesh-info.  Configuration comes from (lowest to highest precedence) per-study
defaults, a key=value config file, FVSDE_* environment variables, and flags.

Exit codes: 0 success, 1 invariant failure, 2 config error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from datetime import datetime, timezone

from . import __version__
from .errors import ConfigError, FvsdeError, SolverError
from .mesh import build_tensor_mesh, refine, validate_admissibility
from .projections import cosine_mode_spec, projection_error_report
from .properties import run_property_suite
from .reporting import (RunManifest, fmt, property_report_text,
                        rate_report_csv, rate_report_summary, svg_loglog,
                        write_json, write_manifest, write_text)
from .study import STUDIES, StudyConfig, default_config, run_rate_study

ENV_PREFIX = "FVSDE_"

_CONFIG_KEYS = ("study", "preset", "mesh", "levels", "steps", "ref_steps",
                "paths", "seed", "workers", "out", "left_interpolant")


def _parse_mesh(text: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(p) for p in text.lower().split("x"))
    except ValueError:
        raise ConfigError(f"cannot parse mesh spec {text!r} (want NxM or NxMxP)")
    if len(parts) not in (2, 3) or min(parts) < 1:
        raise ConfigError(f"mesh spec {text!r} needs 2 or 3 positive counts")
    return parts


def _parse_steps(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.replace(" ", "").split(",") if p)
    except ValueError:
        raise ConfigError(f"cannot parse step list {text!r}")


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"cannot parse boolean {text!r}")


def _coerce(key: str, value: str):
    if key == "mesh":
        return _parse_mesh(value)
    if key == "steps":
        return _parse_steps(value)
    if key in ("levels", "ref_steps", "paths", "seed", "workers"):
        try:
            return int(value)
        except ValueError:
            raise ConfigError(f"key {key!r} wants an integer, got {value!r}")
    if key == "left_interpolant":
        return _parse_bool(value)
    return value


def _read_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: "
                          f"{exc.strerror}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"config file {path!r} is not UTF-8 text") from None
    out: dict = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        out[key] = _coerce(key, value)
    return out


def _env_overrides() -> dict:
    out = {}
    for key in _CONFIG_KEYS:
        raw = os.environ.get(ENV_PREFIX + key.upper())
        if raw is not None:
            out[key] = _coerce(key, raw)
    return out


def parse_config(study: str, config_path: str | None = None,
                 cli_overrides: dict | None = None) -> StudyConfig:
    """Merge defaults, config file, environment and flags into a StudyConfig."""
    merged: dict = {}
    if config_path is not None:
        merged.update(_read_config_file(config_path))
    merged.update(_env_overrides())
    if cli_overrides:
        merged.update({k: v for k, v in cli_overrides.items() if v is not None})
    selected = merged.pop("study", study)
    if selected != study:
        raise ConfigError(f"config selects study {selected!r} but the "
                          f"subcommand is {study!r}")
    return default_config(study, out_dir=merged.pop("out", None), **merged)


class _Parser(argparse.ArgumentParser):
    """Usage errors are config errors: one stderr line, exit 2."""

    def error(self, message: str):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fvsde",
        description="Finite-volume solver for stochastic convection-diffusion "
                    "with Monte Carlo convergence-rate studies.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_study(name: str, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--preset", help="problem preset name")
        p.add_argument("--seed", help="master seed")
        p.add_argument("--paths", help="Monte Carlo path count")
        p.add_argument("--levels", help="number of refinement levels")
        p.add_argument("--steps", help="comma-separated step-count chain")
        p.add_argument("--ref-steps", dest="ref_steps",
                       help="reference (finest) step count")
        p.add_argument("--mesh", help="base mesh, e.g. 32x32 or 8x8x8")
        p.add_argument("--workers", help="worker processes")
        p.add_argument("--out", help="output directory")
        p.add_argument("--left-interpolant", action="store_const", const="1",
                       dest="left_interpolant",
                       help="compare at nodes with the left interpolant")
        return p

    for name in STUDIES:
        if name == "projections":
            add_study(name, "projection error sweep over nested meshes")
        elif name == "properties":
            add_study(name, "run every discrete invariant on seeded inputs")
        else:
            add_study(name, f"{name} convergence-rate study")

    mesh_p = sub.add_parser("mesh-info", help="build a mesh and export its "
                                              "summary as JSON")
    mesh_p.add_argument("--mesh", required=True, help="e.g. 16x16 or 4x4x4")
    mesh_p.add_argument("--out", help="output directory (prints when omitted)")
    return parser


def _cli_overrides(args: argparse.Namespace) -> dict:
    """The flags given, parsed like config-file values."""
    given = {key: getattr(args, key, None) for key in _CONFIG_KEYS}
    return {key: _coerce(key, v) for key, v in given.items() if v is not None}


def _make_out_dir(path: str) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path!r}: "
                          f"{exc.strerror}") from None


def _emit_rate_outputs(report, out_dir: str, stem: str) -> list[str]:
    files = []
    csv_path = os.path.join(out_dir, f"{stem}_rates.csv")
    write_text(csv_path, rate_report_csv(report))
    files.append(csv_path)
    json_path = os.path.join(out_dir, f"{stem}_summary.json")
    write_json(json_path, rate_report_summary(report))
    files.append(json_path)
    svg_path = os.path.join(out_dir, f"{stem}_plot.svg")
    write_text(svg_path, svg_loglog(report, f"{stem}: slope {report.slope:.3f}"))
    files.append(svg_path)
    return files


def _run_study_command(args: argparse.Namespace) -> int:
    started = datetime.now(timezone.utc).isoformat()
    t0 = time.monotonic()
    config = parse_config(args.command, args.config, _cli_overrides(args))
    out_dir = config.out_dir or f"fvsde-out-{config.study}"
    _make_out_dir(out_dir)
    outputs: list[str] = []
    status = 0

    if config.study == "properties":
        report = run_property_suite(config)
        text = property_report_text(report)
        sys.stdout.write(text)
        path = os.path.join(out_dir, "properties.txt")
        write_text(path, text)
        outputs.append(path)
        status = 0 if report.all_passed else 1
    elif config.study == "projections":
        outputs += _run_projections(config, out_dir)
    else:
        for report in run_rate_study(config):
            outputs += _emit_rate_outputs(report, out_dir, report.study)
            _print_report(report)

    manifest = RunManifest(
        config={k: list(v) if isinstance(v, tuple) else v
                for k, v in config.__dict__.items()},
        version=__version__,
        started=started,
        finished=datetime.now(timezone.utc).isoformat(),
        outputs=sorted(outputs),
        exit_status=status,
        wall_time_seconds=time.monotonic() - t0,
    )
    write_manifest(os.path.join(out_dir, "manifest.json"), manifest)
    return status


def _print_report(report) -> None:
    flag = "  [inconclusive]" if report.inconclusive else ""
    sys.stdout.write(
        f"{report.study}: slope {fmt(report.slope)} vs {report.scale_name} "
        f"over {len(report.rows)} levels{flag}\n")


def _run_projections(config: StudyConfig, out_dir: str) -> list[str]:
    spec = cosine_mode_spec()
    meshes = [build_tensor_mesh(spec.domain, config.mesh)]
    for _ in range(config.levels - 1):
        meshes.append(refine(meshes[-1]))
    report = projection_error_report(spec, meshes)
    lines = ["h,elliptic_error,centered_error,seminorm_gap"]
    lines += [",".join(map(fmt, row)) for row in report.rows()]
    csv_path = os.path.join(out_dir, "projections_rates.csv")
    write_text(csv_path, "\n".join(lines) + "\n")
    json_path = os.path.join(out_dir, "projections_summary.json")
    write_json(json_path, {
        "slopes": report.slopes,
        "residuals": report.residuals,
        "mass_defects": report.mass_defects,
        "sizes": report.sizes,
    })
    sys.stdout.write(f"projections: slopes {report.slopes}\n")
    return [csv_path, json_path]


def _run_mesh_info(args: argparse.Namespace) -> int:
    counts = _parse_mesh(args.mesh)
    if args.out:
        _make_out_dir(args.out)
    mesh = build_tensor_mesh([(0.0, 1.0)] * len(counts), counts)
    report = validate_admissibility(mesh)
    summary = mesh.to_summary_dict()
    summary["admissibility_violations"] = report.violations
    if args.out:
        path = os.path.join(args.out, "mesh.json")
        write_json(path, summary)
        sys.stdout.write(f"wrote {path}\n")
    else:
        write = sys.stdout.write
        write(f"cells={summary['n_cells']} interior_edges="
              f"{summary['n_interior_edges']} h={fmt(summary['size_h'])} "
              f"reg={fmt(summary['regularity'])}\n")
    return 0 if report.ok else 1


def main(argv: list[str] | None = None) -> int:
    try:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:       # --help and --version
            return int(exc.code or 0)
        if args.command == "mesh-info":
            return _run_mesh_info(args)
        return _run_study_command(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except SolverError as exc:
        sys.stderr.write(f"solver failure: {exc}\n")
        return 3
    except FvsdeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def console_main() -> None:  # pragma: no cover - thin wrapper
    raise SystemExit(main())
