"""Tests of the benchmark itself, on small inputs.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the repository's own suite.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tensorbss import bss, cli  # noqa: E402
from tensorbss.bench import ExperimentSpec, run_benchmark  # noqa: E402

SMALL = {
    "arma-mc": lambda seed: workloads.MonteCarlo("arma", 400, seed),
    "sv-mc": lambda seed: workloads.MonteCarlo("sv", 1500, seed),
    "frames-cli": lambda seed: workloads.FramesCli((4, 3, 2), 400, seed),
}


def small_run(name, tmp_path, trace=False, seed=3):
    return run.measure(name, seed, 1e-3, trace, make=SMALL[name], out_dir=tmp_path)


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: unit for k, (unit, _) in run.PER_LAYER.items()}
    assert [w["name"] for w in spec["workloads"]] == ["arma-mc", "frames-cli"]
    assert run.WORKLOADS == tuple(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_smoke_every_workload(name, tmp_path):
    result, problems = small_run(name, tmp_path)
    assert problems == []
    assert result["correct"] and result["attempted"] == 1 and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", ["sv-mc", "frames-cli"])
def test_traced_run_accounts_for_the_operation(name, tmp_path):
    result, problems = small_run(name, tmp_path, trace=True)
    assert problems == [] and result["failed"] == 0
    values = {k: m["value"] for k, m in result["metrics"].items()}
    assert set(values) == set(run.PER_LAYER)
    layer_self = sum(values[k] for k in run.LAYER_SELF.values())
    assert layer_self == pytest.approx(values["trace.op_s"], rel=1e-9)
    assert values["linalg.jd_calls"] > 0 and values["bss.fit.tsobi_s"] > 0
    if name == "frames-cli":
        assert values["cli.unmix_s"] > 0 and values["tensor.io_mb"] > 0
    rows = [json.loads(line) for line in (tmp_path / f"spans-{name}-seed3.jsonl").open()]
    assert {"name", "start", "end", "parent", "op"} <= set(rows[0])
    assert all(r["op"] is not None for r in rows)


def corrupt_first_unmixer(monkeypatch):
    real = bss.unmix

    def unmix(xs, method, **kwargs):
        res = real(xs, method, **kwargs)
        res.mode_unmixers[0] = res.mode_unmixers[0] * 1.001
        return res

    monkeypatch.setattr(bss, "unmix", unmix)
    monkeypatch.setattr(cli, "unmix", unmix)


@pytest.mark.parametrize("name", ["sv-mc", "frames-cli"])
def test_corrupted_unmixer_fails_the_run(name, tmp_path, monkeypatch):
    corrupt_first_unmixer(monkeypatch)
    result, problems = small_run(name, tmp_path)
    assert not result["correct"]
    assert any("deviates from I" in p for p in problems)


def test_reordered_rank_output_fails_the_run(tmp_path, monkeypatch):
    real = cli.kurtosis_rank

    def swapped(recovered):
        entries = real(recovered)
        entries[0], entries[1] = entries[1], entries[0]
        return entries

    monkeypatch.setattr(cli, "kurtosis_rank", swapped)
    result, problems = small_run("frames-cli", tmp_path)
    assert not result["correct"]
    assert any("descending order" in p for p in problems)


def test_rank_check_catches_a_wrong_value_and_a_missing_row():
    rng = np.random.default_rng(0)
    comps = rng.standard_normal((500, 6)) ** 3
    kurt = checks.excess_kurtosis(comps)
    order = np.argsort(-kurt)
    rows = [f"{pos},{k % 3 + 1}x{k // 3 + 1},{kurt[k]:.6g}" for pos, k in enumerate(order, 1)]
    table = "\n".join(["rank,component,excess_kurtosis"] + rows)
    assert checks.rank_problems(table, comps, (3, 2)) == []
    wrong = table.replace(rows[2].split(",")[2], "9.99", 1)
    assert checks.rank_problems(wrong, comps, (3, 2))
    assert checks.rank_problems(table.rsplit("\n", 1)[0], comps, (3, 2))


def test_failing_fit_counts_as_failed_operation(tmp_path, monkeypatch):
    real = bss.unmix

    def unmix(xs, method, **kwargs):
        if len(xs) > 300 and method == "tgjade":  # set-up's warm-up fits 300 frames
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real(xs, method, **kwargs)

    monkeypatch.setattr(bss, "unmix", unmix)
    result, _ = small_run("sv-mc", tmp_path)
    assert result["attempted"] == 1 and result["failed"] == 1


@pytest.mark.parametrize("setting,t", [("arma", 400), ("sv", 1500)])
def test_mc_operations_match_run_benchmark(setting, t):
    seed = 11
    spec = ExperimentSpec(setting, workloads.MIXING, lengths=(t,), methods=workloads.ALL_METHODS,
                          replicates=1, seed=seed)
    expected = run_benchmark(spec)["replicates"][0]["mdi"]
    got = workloads.MonteCarlo(setting, t, seed).operation(0)["mdi"]
    assert got == expected


def test_run_without_library_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "arma-mc",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
