"""Artifact emission: CSV tables, JSON summaries, SVG plots, run manifests.

Floats are formatted with 17 significant digits everywhere, so re-running a
study with the same config and seed reproduces every file byte for byte.
Volatile data (timestamps, wall time) lives only in the manifest.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

from .properties import PropertyReport
from .study import RateReport

__all__ = ["fmt", "rate_report_csv", "rate_report_summary", "svg_loglog",
           "RunManifest", "write_text", "write_manifest"]


def fmt(value: float) -> str:
    return f"{value:.17g}"


CSV_HEADER = "level,h,tau,n_paths,err_mean_sq,ci,slope_so_far"


def rate_report_csv(report: RateReport) -> str:
    """Deterministic CSV of an error table (one line per level)."""
    lines = [CSV_HEADER]
    for row, slope in zip(report.rows, report.slopes_so_far):
        lines.append(",".join([
            str(row.level), fmt(row.h), fmt(row.tau), str(row.n_paths),
            fmt(row.err_mean_sq), fmt(row.ci_half_width), fmt(slope),
        ]))
    return "\n".join(lines) + "\n"


def rate_report_summary(report: RateReport) -> dict:
    return {
        "study": report.study,
        "scale": report.scale_name,
        "slope": report.slope,
        "intercept": report.intercept,
        "fit_residual": report.fit_residual,
        "inconclusive": report.inconclusive,
        "rows": [
            {"level": r.level, "h": r.h, "tau": r.tau, "n_paths": r.n_paths,
             "err_mean_sq": r.err_mean_sq, "ci": r.ci_half_width}
            for r in report.rows
        ],
        "metadata": report.metadata,
    }


def property_report_text(report: PropertyReport) -> str:
    lines = []
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        lines.append(f"{status}  {check.name}: {check.detail}")
    lines.append(f"{'PASS' if report.all_passed else 'FAIL'}  overall")
    return "\n".join(lines) + "\n"


def svg_loglog(report: RateReport, title: str) -> str:
    """Minimal log-log line-and-points plot of error vs scale on a 480 x 360
    canvas; no fit line is drawn, so a slope shows only in the title."""
    width, height = 480, 360
    xs = [row.h if report.scale_name == "h" else row.tau for row in report.rows]
    if report.scale_name == "dt":
        ys = [row.err_mean_sq for row in report.rows]
    else:
        ys = report.errors
    lx = [math.log10(x) for x in xs]
    ly = [math.log10(y) for y in ys]
    pad = 50
    x0, x1 = min(lx), max(lx)
    y0, y1 = min(ly), max(ly)
    spanx = (x1 - x0) or 1.0
    spany = (y1 - y0) or 1.0

    def px(v):
        return pad + (v - x0) / spanx * (width - 2 * pad)

    def py(v):
        return height - pad - (v - y0) / spany * (height - 2 * pad)

    pts = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(lx, ly))
    circles = "".join(
        f'<circle cx="{px(a):.2f}" cy="{py(b):.2f}" r="3.5" fill="#1f4e79"/>'
        for a, b in zip(lx, ly))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.0f}" y="20" text-anchor="middle" '
        f'font-family="monospace" font-size="13">{title}</text>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
        f'y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" '
        f'stroke="black"/>',
        f'<text x="{width / 2:.0f}" y="{height - 12}" text-anchor="middle" '
        f'font-family="monospace" font-size="11">log10({report.scale_name})</text>',
        f'<text x="14" y="{height / 2:.0f}" text-anchor="middle" '
        f'font-family="monospace" font-size="11" '
        f'transform="rotate(-90 14 {height / 2:.0f})">log10(error)</text>',
        f'<polyline points="{pts}" fill="none" stroke="#1f4e79" '
        f'stroke-width="1.5"/>',
        circles,
        f'<text x="{width - pad}" y="{pad - 6}" text-anchor="end" '
        f'font-family="monospace" font-size="11">slope {report.slope:.3f}</text>',
        "</svg>",
    ]
    return "\n".join(parts) + "\n"


def write_text(path: str, content: str) -> None:
    """Atomic write (temp file + rename), so no artifact is left half-written."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="") as handle:
        handle.write(content)
    os.replace(tmp, path)


def write_json(path: str, payload: dict) -> None:
    write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


@dataclass
class RunManifest:
    """Config echo, tool version, timestamps and emitted files for one run."""

    config: dict
    version: str
    started: str
    finished: str = ""
    outputs: list[str] = field(default_factory=list)
    exit_status: int = 0
    wall_time_seconds: float = 0.0


def write_manifest(path: str, manifest: RunManifest) -> None:
    write_json(path, manifest.__dict__)
