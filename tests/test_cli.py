"""Command-line integration tests.

These call ifa.cli.main() in process so exit codes and stderr can be
asserted cheaply; full subprocess round trips live in the acceptance suite.
"""
from __future__ import annotations

import numpy as np
import pytest

from ifa.cli import main
from ifa.io import read_json, write_json


def run(*argv):
    return main([str(a) for a in argv])


def simulate_panel(tmp_path, *, n=80, j=8, k=1, seed=0, extra=()):
    out = tmp_path / f"sim_{n}_{j}_{k}_{seed}"
    code = run(
        "--command", "simulate", "--n", n, "--j", j, "--k", k,
        "--seed", seed, "--output-dir", out, *extra,
    )
    assert code == 0
    return out


class TestSimulateCommand:
    def test_shape_and_artifacts(self, tmp_path):
        out = simulate_panel(tmp_path, n=100, j=10)
        lines = (out / "data.csv").read_text().splitlines()
        assert len(lines) == 101
        assert all(len(line.split(",")) == 10 for line in lines)
        assert (out / "truth.json").exists()
        assert (out / "manifest.json").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        a = simulate_panel(tmp_path / "a", seed=7)
        b = simulate_panel(tmp_path / "b", seed=7)
        for name in ("data.csv", "truth.json", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_manifest_hash_tracks_config(self, tmp_path):
        a = simulate_panel(tmp_path / "a", seed=1)
        b = simulate_panel(tmp_path / "b", seed=2)
        assert (
            read_json(a / "manifest.json")["config_hash"]
            != read_json(b / "manifest.json")["config_hash"]
        )

    def test_missing_output_dir_is_user_error(self, capsys):
        assert run("--command", "simulate") == 2
        assert "output-dir" in capsys.readouterr().err

    def test_gpc_probit_rejected(self, tmp_path, capsys):
        code = run(
            "--command", "simulate", "--model", "gpc", "--link", "probit",
            "--categories", "3", "--output-dir", tmp_path / "x",
        )
        assert code == 2
        assert "logit" in capsys.readouterr().err

    def test_invalid_spec_is_user_error(self, tmp_path, capsys):
        code = run(
            "--command", "simulate", "--missing-rate", "1.5",
            "--output-dir", tmp_path / "x",
        )
        assert code == 2
        assert "missing" in capsys.readouterr().err.lower()


class TestFitCommand:
    def test_svd_exits_zero(self, tmp_path):
        panel = simulate_panel(tmp_path)
        out = tmp_path / "svd"
        code = run(
            "--command", "fit", "--estimator", "svd", "--k", 1,
            "--input", panel / "data.csv", "--output-dir", out, "--seed", 0,
        )
        assert code == 0
        params = read_json(out / "params.json")
        assert params["estimator"] == "svd"
        assert len(params["items"]) == 8
        assert (out / "trajectory.csv").exists()
        assert (out / "timing.txt").exists()
        manifest = read_json(out / "manifest.json")
        assert manifest["outputs"] == sorted(
            ["params.json", "trajectory.csv", "timing.txt"]
        )

    def test_em_k5_redirects_to_stochastic_engines(self, tmp_path, capsys):
        panel = simulate_panel(tmp_path)
        code = run(
            "--command", "fit", "--estimator", "em", "--k", 5,
            "--input", panel / "data.csv", "--output-dir", tmp_path / "em5",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "stem" in err and "sa" in err

    def test_stem_with_k_at_least_items_exits_2(self, tmp_path, capsys):
        panel = simulate_panel(tmp_path, n=200, j=3, seed=4)
        code = run(
            "--command", "fit", "--estimator", "stem", "--k", 3,
            "--input", panel / "data.csv", "--output-dir", tmp_path / "stem3",
        )
        assert code == 2
        assert "k+1 persons and items" in capsys.readouterr().err

    def test_malformed_csv_names_row_and_column(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("q1,q2\n1,0\n1,what\n")
        code = run(
            "--command", "fit", "--estimator", "svd", "--k", 1,
            "--input", bad, "--output-dir", tmp_path / "out",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "row 2" in err and "'q2'" in err

    def test_max_iters_cap_exits_3_with_results(self, tmp_path):
        panel = simulate_panel(tmp_path)
        out = tmp_path / "capped"
        with pytest.warns(UserWarning):
            code = run(
                "--command", "fit", "--estimator", "em", "--k", 1,
                "--max-iters", 1, "--input", panel / "data.csv",
                "--output-dir", out,
            )
        assert code == 3
        assert (out / "params.json").exists()
        assert (out / "trajectory.csv").exists()

    def test_numerical_failure_exits_4_without_traceback(self, tmp_path, monkeypatch, capsys):
        import ifa.cli

        def diverging_fit(*args, **kwargs):
            raise RuntimeError("EM marginal log-likelihood decreased; the M step diverged")

        monkeypatch.setattr(ifa.cli, "fit_em_quadrature", diverging_fit)
        panel = simulate_panel(tmp_path)
        code = run(
            "--command", "fit", "--estimator", "em", "--k", 1,
            "--input", panel / "data.csv", "--output-dir", tmp_path / "em",
        )
        assert code == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "numerical failure" in err and "decreased" in err
        assert "Traceback" not in err

    def test_seeded_stochastic_fit_reproduces_bytes(self, tmp_path):
        panel = simulate_panel(tmp_path)
        outputs = []
        for name in ("run1", "run2"):
            out = tmp_path / name
            code = run(
                "--command", "fit", "--estimator", "stem", "--k", 1,
                "--total-iters", 30, "--burn-in", 10, "--seed", 11,
                "--input", panel / "data.csv", "--output-dir", out,
            )
            assert code == 0
            outputs.append((out / "params.json").read_bytes())
        assert outputs[0] == outputs[1]

    def test_binary_model_on_ordinal_data_rejected(self, tmp_path, capsys):
        panel = simulate_panel(
            tmp_path, extra=("--model", "graded", "--categories", "3")
        )
        code = run(
            "--command", "fit", "--estimator", "svd", "--k", 1,
            "--model", "binary", "--input", panel / "data.csv",
            "--output-dir", tmp_path / "out",
        )
        assert code == 2
        assert "categories" in capsys.readouterr().err

    def test_config_file_overrides_flags(self, tmp_path):
        panel = simulate_panel(tmp_path)
        config = tmp_path / "config.json"
        write_json(config, {"estimator": "svd", "k": 1})
        out = tmp_path / "from_config"
        code = run(
            "--command", "fit", "--input", panel / "data.csv",
            "--output-dir", out, "--config", config,
        )
        assert code == 0
        assert read_json(out / "params.json")["estimator"] == "svd"

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        panel = simulate_panel(tmp_path)
        config = tmp_path / "config.json"
        write_json(config, {"esimator": "svd"})
        code = run(
            "--command", "fit", "--input", panel / "data.csv",
            "--output-dir", tmp_path / "out", "--config", config,
        )
        assert code == 2
        assert "esimator" in capsys.readouterr().err

    def test_workers_option_removed(self, tmp_path, monkeypatch, capsys):
        # nothing in a fit depends on the core count, so neither may the manifest
        panel = simulate_panel(tmp_path)
        fit = ("--command", "fit", "--estimator", "svd", "--k", 1, "--input", panel / "data.csv")
        monkeypatch.delenv("IFA_WORKERS", raising=False)
        assert run(*fit, "--output-dir", tmp_path / "unset") == 0
        monkeypatch.setenv("IFA_WORKERS", "7")
        assert run(*fit, "--output-dir", tmp_path / "env") == 0
        monkeypatch.setattr("os.cpu_count", lambda: 64)
        assert run(*fit, "--output-dir", tmp_path / "cores") == 0
        runs = ("unset", "env", "cores")
        assert len({(tmp_path / d / "manifest.json").read_bytes() for d in runs}) == 1
        with pytest.raises(SystemExit) as exc:
            run(*fit, "--output-dir", tmp_path / "flag", "--workers", 2)
        assert exc.value.code == 2
        config = tmp_path / "config.json"
        write_json(config, {"workers": 2})
        capsys.readouterr()
        assert run(*fit, "--output-dir", tmp_path / "config", "--config", config) == 2
        assert "unknown config key" in capsys.readouterr().err


class TestEvaluateCommand:
    def fit_and_evaluate(self, tmp_path, estimator, panel, *, fit_extra=()):
        fit_dir = tmp_path / f"fit_{estimator}"
        code = run(
            "--command", "fit", "--estimator", estimator, "--k", 1,
            "--input", panel / "data.csv", "--output-dir", fit_dir,
            "--seed", 0, *fit_extra,
        )
        assert code == 0
        eval_dir = tmp_path / f"eval_{estimator}"
        code = run(
            "--command", "evaluate", "--truth", panel / "truth.json",
            "--input", fit_dir / "params.json", "--output-dir", eval_dir,
        )
        assert code == 0
        return eval_dir

    def test_truth_against_itself_scores_perfectly(self, tmp_path):
        panel = simulate_panel(tmp_path, k=2)
        out = tmp_path / "self"
        code = run(
            "--command", "evaluate", "--truth", panel / "truth.json",
            "--input", panel / "truth.json", "--output-dir", out,
        )
        assert code == 0
        report = read_json(out / "report.json")
        assert report["prob_mse"] == 0.0
        assert report["aligned_loading_loss"] < 1e-12
        assert report["q_loading_loss"] == 0.0
        np.testing.assert_allclose(report["theta_correlation"], 1.0, atol=1e-8)

    def test_report_csv_column_order(self, tmp_path):
        panel = simulate_panel(tmp_path, k=2)
        out = tmp_path / "self"
        run(
            "--command", "evaluate", "--truth", panel / "truth.json",
            "--input", panel / "truth.json", "--output-dir", out,
        )
        header = (out / "report.csv").read_text().splitlines()[0]
        assert header == (
            "prob_mse,aligned_loading_loss,q_loading_loss,theta_corr_1,theta_corr_2"
        )

    def test_dimension_mismatch_is_user_error(self, tmp_path, capsys):
        panel_a = simulate_panel(tmp_path / "a", j=8)
        panel_b = simulate_panel(tmp_path / "b", j=9)
        code = run(
            "--command", "evaluate", "--truth", panel_a / "truth.json",
            "--input", panel_b / "truth.json", "--output-dir", tmp_path / "out",
        )
        assert code == 2
        assert "dimension mismatch" in capsys.readouterr().err

    def test_svd_and_cjmle_rows_are_comparable(self, tmp_path):
        panel = simulate_panel(tmp_path, n=150, j=12)
        svd_eval = self.fit_and_evaluate(tmp_path, "svd", panel)
        cjmle_eval = self.fit_and_evaluate(
            tmp_path, "cjmle", panel, fit_extra=("--max-iters", 60)
        )
        rows = {}
        for name, out in (("svd", svd_eval), ("cjmle", cjmle_eval)):
            header, row = (out / "report.csv").read_text().splitlines()
            assert header.startswith("prob_mse,aligned_loading_loss")
            rows[name] = [float(v) for v in row.split(",")]
        assert len(rows["svd"]) == len(rows["cjmle"]) == 4
        assert all(np.isfinite(rows["svd"])) and all(np.isfinite(rows["cjmle"]))

    def test_marginal_fit_reports_nan_correlations(self, tmp_path):
        panel = simulate_panel(tmp_path)
        with pytest.warns(UserWarning):
            fit_dir = tmp_path / "fit_em"
            code = run(
                "--command", "fit", "--estimator", "em", "--k", 1,
                "--max-iters", 3, "--input", panel / "data.csv",
                "--output-dir", fit_dir,
            )
            assert code == 3
        out = tmp_path / "eval_em"
        code = run(
            "--command", "evaluate", "--truth", panel / "truth.json",
            "--input", fit_dir / "params.json", "--output-dir", out,
        )
        assert code == 0
        report = read_json(out / "report.json")
        assert np.isnan(report["theta_correlation"]).all()
        assert np.isfinite(report["prob_mse"])
