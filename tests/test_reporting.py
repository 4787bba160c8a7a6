from fvsde.cli import main
from fvsde.reporting import svg_loglog
from fvsde.study import default_config, run_rate_study


def test_svg_plot_is_deterministic():
    (report,) = run_rate_study(default_config("spatial", levels=3))
    a = svg_loglog(report, "spatial")
    b = svg_loglog(report, "spatial")
    assert a == b
    assert a.startswith("<svg ") and a.rstrip().endswith("</svg>")
    assert "slope" in a


def test_solver_failure_exit_code(monkeypatch, capsys, tmp_path):
    from fvsde import cli
    from fvsde.errors import StepFailure

    def boom(config):
        raise StepFailure("step 3: Newton stalled", step=3, residual=1.0)

    monkeypatch.setattr(cli, "run_rate_study", boom)
    code = main(["temporal", "--mesh", "4x4", "--steps", "2,4",
                 "--ref-steps", "8", "--paths", "2",
                 "--out", str(tmp_path / "out")])
    assert code == 3
    assert "solver failure" in capsys.readouterr().err
