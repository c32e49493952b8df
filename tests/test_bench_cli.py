"""Benchmark harness and command-line driver, end to end on small runs."""

import json

import numpy as np
import pytest

from tensorbss import linalg
from tensorbss.bench import (
    ExperimentSpec,
    SUMMARY_HEADER,
    parse_experiment_spec,
    run_benchmark,
    summary_csv,
    write_manifest,
)
from tensorbss.bss import unmix
from tensorbss.cli import main, read_matrices, write_matrices
from tensorbss.simgen import gen_latent_setting, gen_mixing, mix
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

    @pytest.mark.parametrize("field,value,want", [
        ("methods", (), "methods: expected at least one method"),
        ("lengths", (), "lengths: expected at least one series length"),
        ("lengths", (200, 200.5), "lengths: expected integers, got 200.5"),
        ("replicates", 1.5, "replicates: expected an integer, got 1.5"),
        ("seed", 1.5, "seed: expected a non-negative integer, got 1.5"),
        ("lengths", (200, True), "lengths: expected integers, got True"),
        ("replicates", True, "replicates: expected an integer, got True"),
        ("seed", False, "seed: expected a non-negative integer, got False"),
    ], ids=["no-methods", "no-lengths", "float-T", "float-reps", "float-seed",
            "bool-T", "bool-reps", "bool-seed"])
    def test_spec_that_cannot_run_names_the_field(self, field, value, want):
        kwargs = {"lengths": (200,), "methods": ("tsobi",), field: value}
        with pytest.raises(ValueError, match=f"^{want}$"):
            ExperimentSpec(setting="arma", mixing="haar", **kwargs)

    def test_numpy_integers_accepted(self, tmp_path):
        spec = ExperimentSpec(setting="arma", mixing="haar", lengths=(np.int64(200),),
                              methods=("tfobi",), replicates=np.int32(2), seed=np.uint8(3),
                              dims=(np.int64(3), 2, np.int32(2)))
        write_manifest(run_benchmark(spec), tmp_path / "manifest.json")
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert [r["T"] for r in manifest["replicates"]] == [200, 200]
        assert manifest["seed"] == 3 and manifest["spec"]["replicates"] == 2
        assert manifest["spec"]["dims"] == [3, 2, 2]

    def test_non_integer_size_rejected(self):
        # (3, 2, 2.7) used to run on 3x2x2 frames while the manifest listed 2.7
        with pytest.raises(ValueError, match=r"^dims \(3, 2, 2\.7\): every size must be "
                                             r"an integer$"):
            ExperimentSpec(setting="arma", mixing="haar", dims=(3, 2, 2.7), lengths=(200,),
                           methods=("tfobi",))

    @pytest.mark.parametrize("old,new,want", [
        ("methods = tsobi, tfobi", "method = tsobi", "['method']"),
        ("dims    = 3,2,2", "dims = 3,3\nrep = 3", "['rep']"),
    ], ids=["typo-for-required", "with-bad-dims"])
    def test_unknown_key_reported_first(self, tmp_path, old, new, want):
        path = write_spec(tmp_path, SPEC_TEXT.replace(old, new))
        with pytest.raises(ValueError) as exc:
            parse_experiment_spec(path)
        assert str(exc.value) == f"unknown config keys: {want}"

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


    @pytest.mark.parametrize("line,key,text", [
        ("dims    = 3,2,2", "dims", "3,x,2"),
        ("T       = 200, 400", "T", "200,4OO"),
    ])
    def test_malformed_integer_list_names_its_key(self, tmp_path, capsys, line, key, text):
        spec = SPEC_TEXT.replace(line, f"{key} = {text}")
        with pytest.raises(ValueError, match=f"^{key}: expected comma-separated "
                                             f"integers, got '{text}'$"):
            parse_experiment_spec(write_spec(tmp_path, spec))
        assert main(["bench", "--spec", str(tmp_path / "bench.cfg")]) == 1
        assert f"{key}: expected comma-separated integers" in capsys.readouterr().err

    @pytest.mark.parametrize("line,key,text", [
        ("reps    = 3", "reps", "three"),
        ("seed    = 7", "seed", "7,8"),
    ])
    def test_malformed_integer_names_its_key(self, tmp_path, line, key, text):
        spec = SPEC_TEXT.replace(line, f"{key} = {text}")
        with pytest.raises(ValueError, match=f"^{key}: expected an integer, got '{text}'$"):
            parse_experiment_spec(write_spec(tmp_path, spec))


    @pytest.mark.parametrize("line,text,want", [
        ("seed    = 7", "seed = -1", "seed: expected a non-negative integer, got -1"),
        ("dims    = 3,2,2", "dims = -3,-2,2", "dims (-3, -2, 2): every size must be >= 1"),
    ], ids=["seed", "dims"])
    def test_unrunnable_value_names_its_key(self, tmp_path, capsys, line, text, want):
        path = write_spec(tmp_path, SPEC_TEXT.replace(line, text))
        with pytest.raises(ValueError) as exc:
            parse_experiment_spec(path)
        assert str(exc.value) == want
        assert main(["bench", "--spec", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {want}\n"

    def test_repeated_key_rejected(self, tmp_path):
        path = write_spec(tmp_path, SPEC_TEXT + "reps = 1\n")
        with pytest.raises(ValueError) as exc:
            parse_experiment_spec(path)
        assert str(exc.value) == f"{path}:11: key 'reps' is already set on line 8"


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

    def test_jobs_below_one_rejected(self, tmp_path, capsys):
        spec = ExperimentSpec(setting="arma", mixing="haar", lengths=(200,))
        with pytest.raises(ValueError, match="^jobs: expected an integer >= 1, got 0$"):
            run_benchmark(spec, jobs=0)
        path = write_spec(tmp_path)
        assert main(["bench", "--spec", str(path), "--jobs", "0"]) == 1
        assert capsys.readouterr().err == "error: --jobs: expected an integer >= 1, got 0\n"

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
        assert manifest["stage_s"] == {"tsobi": {}}  # no fit succeeded, nothing summed

    def test_sweep_capped_fits_recorded(self, monkeypatch):
        # vector gfobi on Gaussian ARMA is unidentified, and Jacobi alone is
        # slow there: at a cap of 10 sweeps this replicate's gfobi fit is
        # capped and tsobi's converges; at the real cap both converge
        spec = ExperimentSpec(setting="arma", mixing="haar", lengths=(1000,),
                              methods=("tsobi", "gfobi"), replicates=1, seed=0)
        monkeypatch.setattr(linalg, "MAX_SWEEPS", 10)
        manifest = run_benchmark(spec)
        assert manifest["replicates"][0]["not_converged"] == ["gfobi"]
        counts = {row["method"]: (row["n_ok"], row["n_not_converged"])
                  for row in manifest["aggregates"]}
        assert counts == {"tsobi": (1, 0), "gfobi": (1, 1)}
        monkeypatch.undo()
        manifest = run_benchmark(spec)
        assert manifest["replicates"][0]["not_converged"] == []
        assert [row["n_not_converged"] for row in manifest["aggregates"]] == [0, 0]

    def test_manifest_sums_stage_times_and_sweeps(self):
        spec = ExperimentSpec(setting="arma", mixing="haar", lengths=(200,),
                              methods=("tsobi", "gfobi"), replicates=2, seed=0)
        manifest = run_benchmark(spec)
        sweeps = dict.fromkeys(spec.methods, 0)
        for rep in range(2):
            rng = np.random.default_rng([0, 0, rep])  # the harness's split rule
            zs = gen_latent_setting("arma", 200, rng)
            xs = mix(zs, gen_mixing(zs.shape[1:], "haar", rng))
            for m in spec.methods:
                sweeps[m] += sum(d["sweeps_used"] for d in unmix(xs, m).diagnostics["joint_diag"])
        assert list(manifest["stage_s"]) == ["tsobi", "gfobi"]
        for method, sums in manifest["stage_s"].items():
            assert list(sums) == ["whiten", "moments", "joint_diag", "assemble", "sweeps"]
            assert all(v > 0 for v in sums.values())
            assert sums["sweeps"] == sweeps[method]


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


    def test_malformed_dims_name_the_flag(self, tmp_path, capsys):
        assert main(["simulate", "--setting", "arma", "--mixing", "haar", "--dims", "3,x",
                     "--T", "100", "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err == "error: --dims: expected comma-separated integers, got '3,x'\n"

    @pytest.mark.parametrize("flag,want", [
        ("--seed=-1", "--seed: expected a non-negative integer, got -1"),
        ("--dims=-3,-2,2", "dims (-3, -2, 2): every size must be >= 1"),
        ("--T=0", "--T: expected a positive integer, got 0"),
        ("--T=-5", "--T: expected a positive integer, got -5"),
    ], ids=["seed", "dims", "T", "negative-T"])
    def test_unrunnable_value_is_usage_error(self, tmp_path, capsys, flag, want):
        # the flag follows --T 100, so a --T flag overrides it
        assert main(["simulate", "--setting", "arma", "--mixing", "haar",
                     "--T", "100", flag, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: {want}\n"
        assert not (tmp_path / "o").exists()


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
        assert [(d["matrices"], d["matrices_diagonalized"])
                for d in diag["diagnostics"]["joint_diag"]] == [(12, 6), (12, 3), (12, 3)]
        assert all(1 <= d["stall_sweep"] <= d["sweeps_used"]
                   for d in diag["diagnostics"]["joint_diag"])
        # these modes converge within NEWTON_AFTER sweeps, by Jacobi alone
        assert [d["newton_steps"] for d in diag["diagnostics"]["joint_diag"]] == [0, 0, 0]
        stage_s = diag["diagnostics"]["stage_s"]
        assert list(stage_s) == ["whiten", "moments", "joint_diag", "assemble"]
        assert all(v >= 0.0 for v in stage_s.values())

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

    @pytest.mark.parametrize("scale", [1e120, 1e-120])
    def test_exact_inverse_at_extreme_scale_scores_zero(self, tmp_path, capsys, scale):
        # every block is finite, but the Kronecker products of the 3x2x2
        # blocks (scale^3 and scale^-3) overflow and underflow
        rng = np.random.default_rng(7)
        mats = [scale * rng.standard_normal((p, p)) for p in (3, 2, 2)]
        write_matrices(tmp_path / "mixing.txt", mats)
        write_matrices(tmp_path / "unmixers.txt", [np.linalg.inv(a) for a in mats])
        assert main(["evaluate", "--unmixers", str(tmp_path / "unmixers.txt"),
                     "--mixing", str(tmp_path / "mixing.txt")]) == 0
        captured = capsys.readouterr()
        lines = captured.out.split("\n")
        assert float(lines[0].removeprefix("mdi=")) < 1e-12
        assert lines[1] == "assignment=" + ",".join(str(k) for k in range(1, 13))
        assert captured.err == ""

    def test_swapped_mode_sizes_are_usage_error(self, tmp_path, capsys):
        # the Kronecker products are both 6x6, so only the per-mode sizes tell
        rng = np.random.default_rng(5)
        mats = [rng.standard_normal((p, p)) for p in (2, 3)]
        write_matrices(tmp_path / "mixing.txt", mats)
        write_matrices(tmp_path / "unmixers.txt", [np.linalg.inv(a) for a in mats[::-1]])
        assert main(["evaluate", "--unmixers", str(tmp_path / "unmixers.txt"),
                     "--mixing", str(tmp_path / "mixing.txt")]) == 1
        captured = capsys.readouterr()
        assert "mdi=" not in captured.out
        assert captured.err.startswith("error: unmixer sizes [3, 2] do not match "
                                       "the mixing's per-mode sizes [2, 3]")

    def test_one_unmixer_block_must_cover_the_frame(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        mats = [rng.standard_normal((p, p)) for p in (3, 2)]
        write_matrices(tmp_path / "mixing.txt", mats)
        argv = ["evaluate", "--unmixers", str(tmp_path / "unmixers.txt"),
                "--mixing", str(tmp_path / "mixing.txt")]
        # a vector method's unmixer acts on the vectorized 6-cell frames
        write_matrices(tmp_path / "unmixers.txt", [np.linalg.inv(np.kron(mats[1], mats[0]))])
        assert main(argv) == 0
        assert float(capsys.readouterr().out.split("\n")[0].removeprefix("mdi=")) < 1e-12
        write_matrices(tmp_path / "unmixers.txt", [np.linalg.inv(mats[0])])
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: unmixer sizes [3] do not match the mixing's per-mode sizes [3, 2] "
            "(or one block of size 6)\n")

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

    def test_constant_recovered_component_is_one_warning_line(self, tmp_path, capsys):
        zs = np.random.default_rng(3).standard_normal((200, 2))
        rec = zs.copy()
        rec[:, 0] = 0.1
        write_series(tmp_path / "rec.ts", rec)
        write_series(tmp_path / "targets.ts", zs)
        assert main(["evaluate", "--recovered", str(tmp_path / "rec.ts"),
                     "--targets", str(tmp_path / "targets.ts")]) == 0
        captured = capsys.readouterr()
        assert captured.out.strip().split("\n")[1] == "target 2: max_abs_corr=1 component=2"
        assert captured.err == "warning: skipping 1 constant component(s)\n"

    def test_component_index_printed_as_rank_prints_it(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        rec = rng.standard_normal((300, 2, 3))
        rec[::50, 1, 2] += 20.0  # spikes: the largest excess kurtosis
        write_series(tmp_path / "rec.ts", rec)
        write_series(tmp_path / "targets.ts", rec[:, 1, 2:])
        assert main(["evaluate", "--recovered", str(tmp_path / "rec.ts"),
                     "--targets", str(tmp_path / "targets.ts")]) == 0
        assert capsys.readouterr().out == "target 1: max_abs_corr=1 component=2x3\n"
        assert main(["rank", "--in", str(tmp_path / "rec.ts")]) == 0
        assert capsys.readouterr().out.split("\n")[1].startswith("1,2x3,")

    @pytest.mark.parametrize("which", ["rec", "targets"])
    def test_non_finite_series_is_usage_error(self, tmp_path, capsys, which):
        zs = np.random.default_rng(8).standard_normal((200, 2, 2))
        write_series(tmp_path / "rec.ts", zs)
        write_series(tmp_path / "targets.ts", zs)
        bad = zs.copy()
        bad[17, 1, 0] = np.nan
        write_series(tmp_path / f"{which}.ts", bad)
        assert main(["evaluate", "--recovered", str(tmp_path / "rec.ts"),
                     "--targets", str(tmp_path / "targets.ts")]) == 1
        captured = capsys.readouterr()
        assert "max_abs_corr" not in captured.out
        assert captured.err == (f"error: {tmp_path / which}.ts: series body contains "
                                f"NaN or infinite values\n")

    def test_both_or_neither_mode_is_usage_error(self, capsys):
        assert main(["evaluate"]) == 1

    @pytest.mark.parametrize("given,missing", [("--mixing", "--unmixers"),
                                               ("--targets", "--recovered")])
    def test_missing_partner_flag_is_usage_error(self, tmp_path, capsys, given, missing):
        # checked before any file is opened
        assert main(["evaluate", given, str(tmp_path / "absent")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: evaluate {given} needs {missing}\n"


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

    def test_rank_skips_constant_component(self, tmp_path, capsys):
        rng = np.random.default_rng(7)
        xs = np.column_stack([np.full(500, 0.1), rng.standard_t(4, 500)])
        write_series(tmp_path / "r.ts", xs)
        assert main(["rank", "--in", str(tmp_path / "r.ts")]) == 0
        captured = capsys.readouterr()
        lines = captured.out.strip().split("\n")
        assert len(lines) == 2 and lines[1].startswith("1,2,")
        assert captured.err == "warning: skipping 1 constant component(s)\n"

    @pytest.mark.parametrize("header", ["dims=2;T=0", "dims=2,0;T=5"])
    def test_empty_series_header_is_usage_error(self, tmp_path, capsys, header):
        path = tmp_path / "empty.ts"
        path.write_text(header + "\n")
        assert main(["rank", "--in", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: series header '{header}' needs T >= 1 and every dim >= 1\n"
        assert "UserWarning" not in err

    def test_series_value_that_is_not_a_number_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "s.ts"
        path.write_text("dims=2;T=3\n1 2\n3 x\n5 6\n")
        assert main(["rank", "--in", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: could not convert string 'x'")

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_series_value_names_the_file(self, tmp_path, capsys, bad):
        path = tmp_path / "s.ts"
        path.write_text(f"dims=2;T=3\n1 2\n3 {bad}\n5 6\n")
        assert main(["rank", "--in", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: series body contains NaN or infinite values\n"

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

    @pytest.mark.parametrize("header", ["mode=1 rows=x cols=2", "mode=1 rows=2 cols=-2"])
    def test_non_integer_block_size_is_usage_error(self, tmp_path, capsys, header):
        path = tmp_path / "bad.txt"
        path.write_text(f"matrices=1\n{header}\n1 0\n0 1\n")
        assert main(["evaluate", "--unmixers", str(path), "--mixing", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: matrix block 1 of 1 has a malformed header {header!r}, "
            f"expected integer rows and cols\n")

    @pytest.mark.parametrize("bad", ["inf", "nan"])
    def test_non_finite_entry_is_usage_error(self, tmp_path, capsys, bad):
        rng = np.random.default_rng(9)
        mats = [rng.standard_normal((p, p)) for p in (3, 2)]
        write_matrices(tmp_path / "unmixers.txt", [np.linalg.inv(a) for a in mats])
        path = tmp_path / "mixing.txt"
        write_matrices(path, mats)
        lines = path.read_text().split("\n")
        lines[-2] = f"0.5 {bad}"  # the last row of block 2
        path.write_text("\n".join(lines))
        with pytest.raises(ValueError, match="matrix block 2 of 2 contains NaN or infinite"):
            read_matrices(path)
        assert main(["evaluate", "--unmixers", str(tmp_path / "unmixers.txt"),
                     "--mixing", str(path)]) == 1
        captured = capsys.readouterr()
        assert "mdi=" not in captured.out
        assert captured.err == (f"error: {path}: matrix block 2 of 2 contains NaN or "
                                f"infinite values\n")

    def test_row_with_a_non_number_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("matrices=1\nmode=1 rows=2 cols=2\n1 0\n0 x\n")
        assert main(["evaluate", "--unmixers", str(path), "--mixing", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: matrix block 1 of 1 is not 2x2\n"
