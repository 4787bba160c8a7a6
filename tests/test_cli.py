import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fvsde
from fvsde.cli import main, parse_config
from fvsde.errors import ConfigError
from fvsde.presets import PRESETS
from fvsde.study import STUDIES


def _read(path):
    with open(path, "rb") as handle:
        return handle.read()


def test_parse_config_minimal_file(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("study = properties\n# a comment\nseed = 7\n")
    cfg = parse_config("properties", str(cfg_file))
    assert cfg.study == "properties"
    assert cfg.seed == 7
    assert cfg.paths >= 2            # defaults filled


def test_parse_config_rejects_unknown_key(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("frobnicate = 3\n")
    with pytest.raises(ConfigError, match="frobnicate"):
        parse_config("properties", str(cfg_file))


def test_parse_config_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("FVSDE_SEED", "99")
    cfg = parse_config("properties", None)
    assert cfg.seed == 99


def test_parse_config_env_boolean(monkeypatch):
    monkeypatch.setenv("FVSDE_LEFT_INTERPOLANT", "off")
    assert parse_config("coupled", None).left_interpolant is False
    monkeypatch.setenv("FVSDE_LEFT_INTERPOLANT", "maybe")
    with pytest.raises(ConfigError, match="cannot parse boolean 'maybe'"):
        parse_config("coupled", None)


def test_parse_config_rejects_line_without_equals(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("seed = 7\npaths 4\n")
    with pytest.raises(ConfigError, match=r"run.cfg:2: expected key=value"):
        parse_config("temporal", str(cfg_file))


def test_config_study_mismatch(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("study = temporal\n")
    with pytest.raises(ConfigError):
        parse_config("spatial", str(cfg_file))


def test_missing_config_file_exits_2(tmp_path, capsys):
    code = main(["coupled", "--config", str(tmp_path / "missing.cfg")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_non_divisor_steps_exit_2(capsys):
    code = main(["temporal", "--steps", "7,1024", "--ref-steps", "1024"])
    assert code == 2
    assert "1024" in capsys.readouterr().err


def test_single_path_exit_2(capsys):
    assert main(["temporal", "--paths", "1"]) == 2


def test_single_path_is_accepted_by_a_study_without_paths(tmp_path):
    # spatial runs one deterministic trajectory and never reads --paths
    out = tmp_path / "out"
    assert main(["spatial", "--levels", "2", "--paths", "1",
                 "--out", str(out)]) == 0
    assert (out / "spatial_rates.csv").exists()


@pytest.mark.parametrize("study, levels", [("temporal", "1"),
                                           ("coupled", "2")])
def test_level_equal_to_reference_exits_2_before_any_work(
        study, levels, tmp_path, capsys, monkeypatch):
    from fvsde import cli

    started = []
    monkeypatch.setattr(cli, "run_rate_study", started.append)
    out = tmp_path / "out"
    assert main([study, "--mesh", "4x4", "--levels", levels, "--steps", "4,8",
                 "--ref-steps", "8", "--paths", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    assert "reference itself" in err
    assert not started and not out.exists()


def test_properties_subcommand_passes(tmp_path, capsys):
    code = main(["properties", "--seed", "42", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS  overall" in out
    assert (tmp_path / "properties.txt").exists()
    manifest = json.loads(_read(tmp_path / "manifest.json"))
    assert manifest["exit_status"] == 0
    assert manifest["config"]["seed"] == 42


def test_failing_property_suite_exits_1(tmp_path, monkeypatch):
    from fvsde import cli
    from fvsde.properties import PropertyCheck, PropertyReport

    def fake(config):
        return PropertyReport([PropertyCheck("dibp_identity", False, "boom")])

    monkeypatch.setattr(cli, "run_property_suite", fake)
    code = main(["properties", "--out", str(tmp_path)])
    assert code == 1
    text = (tmp_path / "properties.txt").read_text()
    assert "FAIL  dibp_identity" in text


def test_mesh_info_writes_json(tmp_path):
    code = main(["mesh-info", "--mesh", "4x3", "--out", str(tmp_path)])
    assert code == 0
    summary = json.loads(_read(tmp_path / "mesh.json"))
    assert summary["n_cells"] == 12
    assert summary["admissibility_violations"] == []


def test_mesh_info_prints_one_line_without_out(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["mesh-info", "--mesh", "4x3"]) == 0
    assert capsys.readouterr().out == \
        "cells=12 interior_edges=17 h=0.41666666666666669 reg=4\n"
    assert not list(tmp_path.iterdir())


def test_mesh_info_rejects_bad_spec(capsys):
    assert main(["mesh-info", "--mesh", "4xqq"]) == 2


def test_spatial_subcommand_emits_artifacts(tmp_path):
    out = tmp_path / "results"
    code = main(["spatial", "--levels", "3", "--out", str(out)])
    assert code == 0
    for name in ("spatial_rates.csv", "spatial_summary.json",
                 "spatial_plot.svg", "manifest.json"):
        assert (out / name).exists(), name
    manifest = json.loads(_read(out / "manifest.json"))
    assert str(out / "spatial_rates.csv") in manifest["outputs"]
    csv_text = _read(out / "spatial_rates.csv").decode()
    assert csv_text.splitlines()[0] == \
        "level,h,tau,n_paths,err_mean_sq,ci,slope_so_far"
    assert len(csv_text.splitlines()) == 4


def test_reproducible_csv_across_runs_and_workers(tmp_path):
    args = ["temporal", "--mesh", "8x8", "--steps", "4,8",
            "--ref-steps", "64", "--paths", "6", "--seed", "11"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--workers", "1", "--out", str(out1)]) == 0
    assert main(args + ["--workers", "3", "--out", str(out2)]) == 0
    assert _read(out1 / "temporal_rates.csv") == _read(out2 / "temporal_rates.csv")
    assert _read(out1 / "temporal_summary.json") == \
        _read(out2 / "temporal_summary.json")


def test_newton_path_csv_identical_across_runs_and_workers(tmp_path):
    # the nonlinear preset steps through the banded LAPACK solve
    args = ["temporal", "--preset", "nonlinear", "--mesh", "16x16",
            "--steps", "2,4", "--ref-steps", "8", "--paths", "4"]
    runs = [(tmp_path / name, workers) for name, workers
            in (("w1", "1"), ("w2", "2"), ("rerun", "1"))]
    for out, workers in runs:
        assert main(args + ["--workers", workers, "--out", str(out)]) == 0
    first, *others = (_read(out / "temporal_rates.csv") for out, _ in runs)
    assert all(other == first for other in others)


def test_hoelder_subcommand_emits_both_tables(tmp_path):
    out = tmp_path / "h"
    code = main(["hoelder", "--mesh", "8x8", "--ref-steps", "64",
                 "--paths", "4", "--out", str(out)])
    assert code == 0
    assert (out / "hoelder_l2_rates.csv").exists()
    assert (out / "hoelder_h1_rates.csv").exists()


@pytest.mark.parametrize("ci, flagged", [(0.05, False), (0.6, True)])
def test_inconclusive_reaches_summary_and_stdout(ci, flagged, tmp_path,
                                                 capsys, monkeypatch):
    from fvsde import cli
    from fvsde.study import RateReport, RateRow, _inconclusive

    rows = [RateRow(0, 0.5, 0.1, 4, 2.0, 2 * ci),
            RateRow(1, 0.25, 0.05, 4, 1.0, ci)]
    report = RateReport("temporal", rows, "tau", 1.0, 0.0, 0.0,
                        [float("nan"), 1.0], {}, _inconclusive(rows))
    monkeypatch.setattr(cli, "run_rate_study", lambda config: [report])
    assert main(["temporal", "--out", str(tmp_path)]) == 0
    summary = json.loads(_read(tmp_path / "temporal_summary.json"))
    assert summary["inconclusive"] is flagged
    flag = "  [inconclusive]" if flagged else ""
    assert capsys.readouterr().out == \
        f"temporal: slope 1 vs tau over 2 levels{flag}\n"


def test_projections_subcommand(tmp_path):
    out = tmp_path / "p"
    code = main(["projections", "--levels", "3", "--out", str(out)])
    assert code == 0
    assert (out / "projections_rates.csv").exists()
    summary = json.loads(_read(out / "projections_summary.json"))
    assert set(summary["slopes"]) == {"elliptic", "centered", "seminorm_gap"}


@pytest.mark.parametrize("argv", [
    ["temporal", "--seed", "-1"],
    ["temporal", "--seed", str(2**64)],
    ["temporal", "--steps", "4"],
    ["spatial", "--levels", "1"],
    ["projections", "--levels", "2"],
    ["temporal", "--mesh", "4x4x4"],
    ["projections", "--mesh", "1x1"],
    ["temporal", "--ref-steps", "16777216"],
    ["mesh-info", "--mesh", "0x4"],
    ["temporal", "--bogus"],
    ["temporal", "--seed"],
    ["frobnicate"],
    [],
    ["mesh-info"],
    ["temporal", "--seed", "abc"],
    ["temporal", "--steps", "4,x"],
    ["temporal", "--preset", "nope"],
    ["spatial", "--preset", "stochastic"],
    ["projections", "--preset", "nope"],
    # the test function's cell averages vanish on these base meshes
    ["projections", "--mesh", "2x2"],
    ["projections", "--mesh", "1x4"],
    ["projections", "--mesh", "3x1"],
    # the initial datum is uniform on these base meshes
    ["spatial", "--levels", "3", "--mesh", "1x4"],
    ["spatial", "--preset", "heat3d", "--levels", "2", "--mesh", "1x2x2"],
    ["hoelder", "--mesh", "1x4"],
    ["hoelder", "--mesh", "1x1"],
    ["hoelder", "--preset", "stochastic", "--mesh", "4x1"],
])
def test_bad_config_exits_2_in_one_line(argv, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_help_and_version_print_to_stdout_and_exit_0(capsys):
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: fvsde")
    assert main(["--version"]) == 0
    assert capsys.readouterr().out == f"{fvsde.__version__}\n"


def test_bad_paths_exit_2_in_one_line_before_any_work(tmp_path, capsys,
                                                      monkeypatch):
    from fvsde import cli

    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    latin1 = tmp_path / "latin1.cfg"
    latin1.write_bytes(b"seed = 7  # caf\xe9\n")
    started = []
    monkeypatch.setattr(cli, "run_rate_study", started.append)
    for argv in (["spatial", "--levels", "2", "--out", str(blocker)],
                 ["spatial", "--out", str(blocker / "sub")],
                 ["mesh-info", "--mesh", "4x4", "--out", str(blocker)],
                 ["spatial", "--config", str(tmp_path)],
                 ["spatial", "--config", str(latin1)]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err
    assert not started


def test_bad_seed_exits_2_without_traceback(tmp_path):
    env = {k: v for k, v in os.environ.items() if not k.startswith("FVSDE_")}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(fvsde.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "fvsde", "temporal", "--seed", "-1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "seed" in proc.stderr


_FUZZ_STUDIES = [s for s in STUDIES if s != "properties"]


@st.composite
def _study_argv(draw):
    """A tiny study command line with at most one key drawn from bad values."""
    study = draw(st.sampled_from(_FUZZ_STUDIES))
    preset = draw(st.sampled_from(sorted(PRESETS)))
    bad = draw(st.sampled_from([None, "seed", "paths", "levels", "mesh",
                                "steps"]))
    dim = 3 if preset == "heat3d" and study != "projections" else 2
    if bad == "mesh":
        dim = 5 - dim
    levels = draw(st.integers(1 if bad == "levels" else 2, 3))
    ref_steps = draw(st.sampled_from([8, 16]))
    step_values = [n for n in (1, 2, 4, 8, 16) if ref_steps % n == 0]
    if bad == "steps":
        step_values += [3, 2 * ref_steps]
    n_steps = levels if study == "coupled" else draw(st.integers(2, 3))
    seeds = (st.sampled_from([-1, -2**63, 2**64, 2**64 + 7]) if bad == "seed"
             else st.integers(0, 2**64 - 1))
    argv = [
        study, "--preset", preset, "--seed", str(draw(seeds)),
        "--paths", str(draw(st.sampled_from([1, 0]) if bad == "paths"
                            else st.integers(2, 3))),
        "--levels", str(levels),
        "--mesh", "x".join(str(draw(st.integers(1, 4))) for _ in range(dim)),
        "--steps", ",".join(str(draw(st.sampled_from(step_values)))
                            for _ in range(n_steps)),
        "--ref-steps", str(ref_steps),
        "--workers", str(draw(st.integers(1, 2))),
    ]
    if draw(st.booleans()):
        argv.append("--left-interpolant")
    return argv


@settings(max_examples=100, deadline=None)
@given(argv=_study_argv())
def test_cli_argv_fuzz(argv):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(argv + ["--out", out])
    assert code in (0, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
