"""Benchmark harness and command-line driver, end to end on small runs."""

import json

import numpy as np
import pytest

from tensorbss.bench import (
    ExperimentSpec,
    SUMMARY_HEADER,
    parse_experiment_spec,
    run_benchmark,
    summary_csv,
    write_manifest,
)
from tensorbss.cli import main, read_matrices, write_matrices
from tensorbss.tensor import read_series, write_series

from oracles import pj_distance


SPEC_TEXT = """\
# tiny smoke benchmark
setting = arma
mixing  = gaussian
dims    = 3,2,2
T       = 200, 400
methods = tsobi, tfobi
lags.tsobi = 1:4
reps    = 3
seed    = 7
out     = bench_out
"""


def write_spec(tmp_path, text=SPEC_TEXT):
    path = tmp_path / "bench.cfg"
    path.write_text(text)
    return path


class TestSpecParsing:
    def test_parses_all_fields(self, tmp_path):
        spec = parse_experiment_spec(write_spec(tmp_path))
        assert spec.setting == "arma" and spec.mixing == "gaussian"
        assert spec.dims == (3, 2, 2)
        assert spec.lengths == (200, 400)
        assert spec.methods == ("tsobi", "tfobi")
        assert spec.lags == {"tsobi": (1, 2, 3, 4)}
        assert spec.replicates == 3 and spec.seed == 7 and spec.out == "bench_out"

    def test_missing_required_key_rejected(self, tmp_path):
        bad = SPEC_TEXT.replace("setting = arma\n", "")
        with pytest.raises(ValueError, match="setting"):
            parse_experiment_spec(write_spec(tmp_path, bad))

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown config keys"):
            parse_experiment_spec(write_spec(tmp_path, SPEC_TEXT + "bogus = 1\n"))

    def test_malformed_line_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="key = value"):
            parse_experiment_spec(write_spec(tmp_path, SPEC_TEXT + "no equals\n"))

    def test_length_shorter_than_lags_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            ExperimentSpec(setting="arma", mixing="haar", lengths=(20,),
                           methods=("tsobi",))

    @pytest.mark.parametrize("method,lags", [("fobi", (0, 1, 2)), ("tsobi", ())])
    def test_unrunnable_lag_override_rejected(self, method, lags):
        with pytest.raises(ValueError, match=f"lags.{method}"):
            ExperimentSpec(setting="arma", mixing="haar", lengths=(200,),
                           methods=(method,), lags={method: lags})

    def test_repeated_method_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="method 'tsobi' is listed more than once"):
            ExperimentSpec(setting="arma", mixing="haar", lengths=(200,),
                           methods=("tsobi", "sobi", "tsobi"))
        spec = SPEC_TEXT.replace("methods = tsobi, tfobi", "methods = tfobi, tsobi, tfobi")
        with pytest.raises(ValueError, match="'tfobi' is listed more than once"):
            parse_experiment_spec(write_spec(tmp_path, spec))

    def test_dims_not_matching_setting_rejected(self):
        with pytest.raises(ValueError, match="6 cells"):
            ExperimentSpec(setting="arma", mixing="haar", dims=(3, 2), lengths=(200,))

    def test_lag_override_for_unlisted_method_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="bogus"):
            parse_experiment_spec(write_spec(tmp_path, SPEC_TEXT + "lags.bogus = 1:3\n"))

    @pytest.mark.parametrize("text", ["1:4:2", "a", "1:"])
    def test_malformed_lag_text_rejected(self, tmp_path, capsys, text):
        spec = SPEC_TEXT.replace("lags.tsobi = 1:4", f"lags.tsobi = {text}")
        with pytest.raises(ValueError, match=f"^lags.tsobi: malformed lag set '{text}': "
                                             "expected 'a:b' or 'a,b,c'"):
            parse_experiment_spec(write_spec(tmp_path, spec))
        assert main(["bench", "--spec", str(tmp_path / "bench.cfg")]) == 1
        assert "lags.tsobi: malformed lag set" in capsys.readouterr().err


class TestRunBenchmark:
    def test_manifest_determinism_and_shape(self, tmp_path):
        spec = parse_experiment_spec(write_spec(tmp_path))
        m1 = run_benchmark(spec)
        m2 = run_benchmark(spec)
        assert len(m1["replicates"]) == 6
        assert len(m1["aggregates"]) == 4  # 2 lengths x 2 methods
        for a1, a2 in zip(m1["aggregates"], m2["aggregates"]):
            assert a1["mean_mdi"] == a2["mean_mdi"]
            assert a1["n_ok"] == 3 and a1["n_failed"] == 0
            assert 0.0 <= a1["mean_mdi"] <= 1.0

    def test_manifest_lists_lag_overrides(self, tmp_path):
        spec = ExperimentSpec(setting="arma", mixing="haar", lengths=(200,),
                              methods=("tsobi",), lags={"tsobi": range(1, 5)})
        write_manifest(run_benchmark(spec), tmp_path / "manifest.json")
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["spec"]["lags"] == {"tsobi": [1, 2, 3, 4]}

    def test_jobs_do_not_change_results(self):
        spec = ExperimentSpec(setting="arma", mixing="haar", lengths=(200,),
                              methods=("tsobi", "sobi"), replicates=3, seed=11)
        serial = run_benchmark(spec, jobs=1)
        parallel = run_benchmark(spec, jobs=2)
        assert serial["replicates"] == parallel["replicates"]
        assert serial["aggregates"] == parallel["aggregates"]

    def test_progress_reported_with_jobs(self):
        spec = ExperimentSpec(setting="arma", mixing="haar", lengths=(200,),
                              methods=("tsobi",), replicates=3, seed=11)
        seen = []
        run_benchmark(spec, jobs=2, progress=lambda done, total: seen.append((done, total)))
        assert seen == [(1, 3), (2, 3), (3, 3)]

    def test_seed_changes_results(self, tmp_path):
        spec = parse_experiment_spec(write_spec(tmp_path))
        base = run_benchmark(spec)["aggregates"][0]["mean_mdi"]
        spec.seed = 8
        assert run_benchmark(spec)["aggregates"][0]["mean_mdi"] != base

    def test_summary_csv_layout(self, tmp_path):
        manifest = run_benchmark(parse_experiment_spec(write_spec(tmp_path)))
        lines = summary_csv(manifest).strip().split("\n")
        assert lines[0] == SUMMARY_HEADER
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[:4] == ["arma", "gaussian", "tsobi", "200"]
        float(first[4]), float(first[5]), int(first[6])

    def test_failed_replicates_recorded_not_averaged(self, monkeypatch):
        import tensorbss.bench as bench_mod

        def broken_unmix(xs, method, lags=None, **kwargs):
            raise np.linalg.LinAlgError("forced failure")

        monkeypatch.setattr(bench_mod, "unmix", broken_unmix)
        spec = ExperimentSpec(setting="arma", mixing="haar", lengths=(100,),
                              methods=("tsobi",), replicates=2, seed=0)
        manifest = run_benchmark(spec)
        agg = manifest["aggregates"][0]
        assert agg["n_failed"] == 2 and agg["n_ok"] == 0
        assert np.isnan(agg["mean_mdi"])
        rep = manifest["replicates"][0]["mdi"]["tsobi"]
        assert isinstance(rep, dict) and "error" in rep

    def test_sweep_capped_fits_recorded(self):
        # vector gfobi on Gaussian ARMA is unidentified; this replicate's
        # diagonalizer runs to the sweep cap, tsobi's converges
        spec = ExperimentSpec(setting="arma", mixing="haar", lengths=(1000,),
                              methods=("tsobi", "gfobi"), replicates=1, seed=0)
        manifest = run_benchmark(spec)
        assert manifest["replicates"][0]["not_converged"] == ["gfobi"]
        counts = {row["method"]: (row["n_ok"], row["n_not_converged"])
                  for row in manifest["aggregates"]}
        assert counts == {"tsobi": (1, 0), "gfobi": (1, 1)}


class TestCliSimulate:
    def test_outputs_and_seed_reproducibility(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        argv = ["simulate", "--setting", "arma", "--mixing", "haar",
                "--T", "150", "--seed", "3"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        for name in ("Z.ts", "X.ts", "mixing.txt"):
            assert (out1 / name).read_text() == (out2 / name).read_text()
        zs = read_series(out1 / "Z.ts")
        assert zs.shape == (150, 3, 2, 2)

    def test_bad_setting_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--setting", "nope", "--mixing", "haar",
                  "--T", "100", "--out", str(tmp_path / "o")])
        assert exc.value.code == 1


class TestCliUnmix:
    def test_unmix_writes_results(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        main(["simulate", "--setting", "arma", "--mixing", "gaussian",
              "--T", "500", "--seed", "5", "--out", str(sim)])
        fit = tmp_path / "fit"
        assert main(["unmix", "--in", str(sim / "X.ts"), "--method", "tsobi",
                     "--out", str(fit)]) == 0
        gammas = read_matrices(fit / "unmixers.txt")
        assert [g.shape for g in gammas] == [(3, 3), (2, 2), (2, 2)]
        rec = read_series(fit / "recovered.ts")
        assert rec.shape == (500, 3, 2, 2)
        diag = json.loads((fit / "diagnostics.json").read_text())
        assert len(diag["diagnostics"]["joint_diag"]) == 3
        assert all(d["converged"] for d in diag["diagnostics"]["joint_diag"])

    def test_explicit_lag_zero_matches_alias_method(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        main(["simulate", "--setting", "sv", "--mixing", "gaussian",
              "--T", "600", "--seed", "6", "--out", str(sim)])
        f1, f2 = tmp_path / "f1", tmp_path / "f2"
        main(["unmix", "--in", str(sim / "X.ts"), "--method", "tgfobi",
              "--lags", "0", "--out", str(f1)])
        main(["unmix", "--in", str(sim / "X.ts"), "--method", "tfobi",
              "--out", str(f2)])
        for a, b in zip(read_matrices(f1 / "unmixers.txt"),
                        read_matrices(f2 / "unmixers.txt")):
            assert pj_distance(a, b) < 1e-10

    @pytest.mark.parametrize("argv,want", [([], list(range(1, 13))),
                                           (["--lags", "3,1,1"], [1, 3])])
    def test_diagnostics_record_the_lags_used(self, tmp_path, capsys, argv, want):
        path = tmp_path / "x.ts"
        write_series(path, np.random.default_rng(8).standard_normal((200, 3, 2)))
        fit = tmp_path / "fit"
        assert main(["unmix", "--in", str(path), "--method", "tsobi",
                     "--out", str(fit)] + argv) == 0
        assert json.loads((fit / "diagnostics.json").read_text())["lags"] == want

    @pytest.mark.parametrize("text", ["1:4:2", "a", "1:", ""])
    def test_malformed_lags_are_usage_error(self, tmp_path, capsys, text):
        path = tmp_path / "x.ts"
        write_series(path, np.random.default_rng(9).standard_normal((200, 3, 2)))
        assert main(["unmix", "--in", str(path), "--method", "tsobi", "--lags", text,
                     "--out", str(tmp_path / "o")]) == 1
        want = (f"malformed lag set '{text}': expected 'a:b' or 'a,b,c'" if text
                else "lag set must be a non-empty set")
        assert want in capsys.readouterr().err

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        # Constant series: rank-deficient covariance -> exit code 2.
        path = tmp_path / "flat.ts"
        write_series(path, np.ones((100, 3)))
        assert main(["unmix", "--in", str(path), "--method", "sobi",
                     "--out", str(tmp_path / "o")]) == 2

    def test_non_finite_input_is_usage_error(self, tmp_path, capsys):
        xs = np.random.default_rng(4).standard_normal((300, 3, 2, 2))
        xs[5, 0, 1, 1] = np.nan
        path = tmp_path / "nan.ts"
        write_series(path, xs)
        assert main(["unmix", "--in", str(path), "--method", "tsobi",
                     "--out", str(tmp_path / "o")]) == 1
        assert "NaN or infinite" in capsys.readouterr().err


class TestCliEvaluate:
    def test_exact_inverse_scores_zero(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        mats = [rng.standard_normal((p, p)) for p in (3, 2)]
        write_matrices(tmp_path / "mixing.txt", mats)
        write_matrices(tmp_path / "unmixers.txt",
                       [np.linalg.inv(a) for a in mats])
        assert main(["evaluate", "--unmixers", str(tmp_path / "unmixers.txt"),
                     "--mixing", str(tmp_path / "mixing.txt")]) == 0
        out = capsys.readouterr().out
        assert float(out.split("\n")[0].removeprefix("mdi=")) < 1e-12

    def test_target_matching_output(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        zs = rng.standard_normal((200, 2, 2))
        write_series(tmp_path / "rec.ts", zs)
        write_series(tmp_path / "targets.ts", -zs)
        assert main(["evaluate", "--recovered", str(tmp_path / "rec.ts"),
                     "--targets", str(tmp_path / "targets.ts")]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 4
        assert all("max_abs_corr=1" in ln for ln in lines)

    def test_constant_target_is_usage_error(self, tmp_path, capsys):
        zs = np.random.default_rng(3).standard_normal((200, 2))
        targets = zs.copy()
        targets[:, 1] = 0.1
        write_series(tmp_path / "rec.ts", zs)
        write_series(tmp_path / "targets.ts", targets)
        assert main(["evaluate", "--recovered", str(tmp_path / "rec.ts"),
                     "--targets", str(tmp_path / "targets.ts")]) == 1
        captured = capsys.readouterr()
        assert "max_abs_corr" not in captured.out
        assert captured.err.startswith("error: target 2 is constant")

    def test_both_or_neither_mode_is_usage_error(self, capsys):
        assert main(["evaluate"]) == 1


class TestCliRankAndBench:
    def test_rank_csv(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        xs = np.column_stack([rng.standard_t(4, 3000), rng.uniform(-1, 1, 3000)])
        write_series(tmp_path / "r.ts", xs)
        assert main(["rank", "--in", str(tmp_path / "r.ts")]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "rank,component,excess_kurtosis"
        assert lines[1].startswith("1,1,")
        assert lines[2].startswith("2,2,")

    def test_bench_end_to_end(self, tmp_path, capsys):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(
            "setting = arma\nmixing = haar\nT = 200\nmethods = tfobi\n"
            "reps = 2\nseed = 1\n"
        )
        out = tmp_path / "res"
        assert main(["bench", "--spec", str(cfg), "--out", str(out)]) == 0
        table = (out / "summary.csv").read_text()
        assert table.startswith(SUMMARY_HEADER)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 1
        assert len(manifest["replicates"]) == 2
        printed = capsys.readouterr().out
        assert SUMMARY_HEADER in printed

    def test_bench_warns_about_sweep_capped_fits(self, tmp_path, capsys, monkeypatch):
        import tensorbss.bench as bench_mod

        real_unmix = bench_mod.unmix

        def capped_unmix(xs, method, lags=None, **kwargs):
            res = real_unmix(xs, method, lags=lags, **kwargs)
            res.diagnostics["joint_diag"][-1]["converged"] = False
            return res

        monkeypatch.setattr(bench_mod, "unmix", capped_unmix)
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(
            "setting = arma\nmixing = haar\nT = 200\nmethods = tfobi\n"
            "reps = 2\nseed = 1\n"
        )
        out = tmp_path / "res"
        assert main(["bench", "--spec", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert [r["not_converged"] for r in manifest["replicates"]] == [["tfobi"], ["tfobi"]]
        assert manifest["aggregates"][0]["n_not_converged"] == 2
        err = capsys.readouterr().err
        assert "warning: 2 replicate-method fits stopped at the sweep cap" in err

    def test_missing_spec_file_is_usage_error(self, tmp_path, capsys):
        assert main(["bench", "--spec", str(tmp_path / "nope.cfg")]) == 1


class TestMatrixFileFormat:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        mats = [rng.standard_normal((p, p)) / 3 for p in (4, 2, 3)]
        path = tmp_path / "m.txt"
        write_matrices(path, mats)
        got = read_matrices(path)
        for a, b in zip(mats, got):
            np.testing.assert_array_equal(a, b)

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("rows=2 cols=2\n1 0\n0 1\n")
        with pytest.raises(ValueError):
            read_matrices(path)

    @pytest.mark.parametrize("header", ["matrices=0", "matrices=-1", "matrices=x",
                                        "matrices=", "rows=2 cols=2"])
    def test_bad_file_header_is_usage_error(self, tmp_path, capsys, header):
        path = tmp_path / "bad.txt"
        path.write_text(header + "\nmode=1 rows=2 cols=2\n1 0\n0 1\n")
        with pytest.raises(ValueError, match="expected 'matrices=<positive integer>'"):
            read_matrices(path)
        assert main(["evaluate", "--unmixers", str(path), "--mixing", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: malformed matrix file header {header!r}")

    @pytest.mark.parametrize("text", [
        "matrices=2\nmode=1 rows=2 cols=2\n1 0\n0 1\n",  # truncated after one block
        "matrices=1\nmode=1 cols=2\n1 0\n0 1\n",  # block header without rows=
        "matrices=1\nmode=1 rows=2 cols=2\n1 0\n",  # block cut short
    ])
    def test_bad_block_header_is_usage_error(self, tmp_path, capsys, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        assert main(["evaluate", "--unmixers", str(path), "--mixing", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err and "matrix block" in err
