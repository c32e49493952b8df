"""Run alternated benchmark pairs of two commits and write their summary to BENCH_<label>.json.

    python3 tools/bench_pairs.py <parent-rev> <change-rev> --workload arma-mc \\
        --seeds 1 2 3 4 5 6 7 8 9 10 --label <label> [--claim fit_s]

Each side runs from a fresh `git archive` of its commit in a temporary
directory, as `python3 perfbench/run.py --workload W --seed S --seconds N
--trace 0`, one process at a time: one pair per seed, the parent first in
pairs 1, 3, 5, ... and the change first in pairs 2, 4, 6, ...  The summary
lists, per end-to-end metric of `BENCHMARK.json`, each side's median and
quartiles (`statistics.quantiles(n=4, method='inclusive')`), the pairs
each side won, the ratio of the medians and whether the change stays
within the metric's bound, and the verdict of the claim rule: the change
wins at least nine tenths of the pairs, ties counting for neither, and its
median gain exceeds the distance between the parent's quartiles.

Runs with the same label and revisions go into one file, one workload per
run, under `workloads` for a workload that `BENCHMARK.json` lists and
under `information_only` for any other; `--claim M` records the verdict on
metric M of a listed workload as the file's `claim`.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
CLAIM_SHARE = 0.9  # share of pairs the change must win for a claim


def archive(rev: str, dest: Path) -> str:
    """Extract commit `rev` of this repository into `dest`; returns its short hash."""
    short = subprocess.run(["git", "rev-parse", "--short", rev], cwd=ROOT, check=True,
                           capture_output=True, text=True).stdout.strip()
    dest.mkdir()
    tar = subprocess.Popen(["git", "archive", short], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=tar.stdout, check=True)
    if tar.wait() != 0:
        raise SystemExit(f"git archive {rev} failed")
    return short


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in `tree`; returns its result object."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list, metrics: dict) -> dict:
    """Per metric: each side's quartiles, the pairs won and the claim verdict."""
    out = {}
    for name, spec in metrics.items():
        sign = 1.0 if spec["better"] == "lower" else -1.0
        vals = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        # the change's gain in each pair, positive when it is better
        gains = [sign * (a - b) for a, b in zip(vals["parent"], vals["change"])]
        stats = {side: quartiles(vals[side]) for side in SIDES}
        median_gain = sign * (stats["parent"]["median"] - stats["change"]["median"])
        parent_iqr = stats["parent"]["q3"] - stats["parent"]["q1"]
        ratio = stats["change"]["median"] / stats["parent"]["median"]
        better = sum(g > 0 for g in gains)
        out[name] = {
            "unit": spec["unit"], "bound": spec["bound"], **stats,
            "change_better_pairs": better,
            "change_worse_pairs": sum(g < 0 for g in gains),
            "median_ratio_change_to_parent": ratio,
            "within_bound": sign * (ratio - 1.0) <= spec["bound"],
            "median_gain": median_gain,
            "parent_iqr": parent_iqr,
            "claim_met": better >= CLAIM_SHARE * len(pairs) and median_gain > parent_iqr,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--label", required=True)
    parser.add_argument("--claim", help="end-to-end metric whose verdict is the file's claim")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    listed = any(w["name"] == args.workload for w in bench["workloads"])
    if len(args.seeds) < 2:
        parser.error("--seeds: quartiles need at least two pairs")
    if args.claim is not None and args.claim not in metrics:
        parser.error(f"--claim: {args.claim!r} is not an end-to-end metric of BENCHMARK.json")
    if args.claim is not None and not listed:
        parser.error(f"--claim: workload {args.workload!r} is not listed in BENCHMARK.json")
    out_path = ROOT / f"BENCH_{args.label}.json"
    doc = json.loads(out_path.read_text()) if out_path.exists() else None
    if doc is not None and not all(side in doc for side in SIDES):
        parser.error(f"--label: {out_path.name} holds no parent and change revisions, "
                     f"so this tool did not write it; choose another label")
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        revs = {side: archive(rev, trees[side])
                for side, rev in zip(SIDES, (args.parent, args.change))}
        doc = doc or {
            "label": args.label, **revs,
            "command": (f"python3 perfbench/run.py --workload <workload> --seed <seed> "
                        f"--seconds {bench['run_seconds']} --trace 0"),
            "protocol": ("each side run from a fresh `git archive` of its commit, one run at "
                         "a time; the parent first in odd pairs, the change first in even "
                         "pairs; quartiles are statistics.quantiles(n=4, method='inclusive') "
                         "over the runs of a side"),
            "machine": (f"{os.cpu_count()} cores, one BLAS thread (perfbench/run.py pins "
                        f"it), Python {platform.python_version()}, numpy {version('numpy')}, "
                        f"scipy {version('scipy')}"),
        }
        if (doc["parent"], doc["change"]) != (revs["parent"], revs["change"]):
            raise SystemExit(f"{out_path.name} holds {doc['parent']} vs {doc['change']}, "
                             f"not {revs['parent']} vs {revs['change']}")
        pairs = []
        for k, seed in enumerate(args.seeds):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_side(trees[side], args.workload, seed, bench["run_seconds"])
                fit = pair[side]["metrics"].get("fit_s", {}).get("value", float("nan"))
                print(f"pair {k + 1}/{len(args.seeds)} seed {seed} {side}: fit_s {fit:.4f}",
                      flush=True)
            pairs.append(pair)
    block = {
        "summary": summarize(pairs, metrics),
        **{key: {side: [p[side][key] for p in pairs] for side in SIDES}
           for key in ("attempted", "failed")},
        "correct": all(p[side]["correct"] for p in pairs for side in SIDES),
        "pairs": pairs,
    }
    doc.setdefault("workloads" if listed else "information_only", {})[args.workload] = block
    if args.claim is not None:
        s = block["summary"][args.claim]
        doc["claim"] = {"workload": args.workload, "metric": args.claim, "pairs": len(pairs),
                        "change_better_pairs": s["change_better_pairs"],
                        "median_gain": s["median_gain"], "parent_iqr": s["parent_iqr"],
                        "met": s["claim_met"]}
    out_path.write_text(json.dumps(doc, indent=1) + "\n")
    for name, s in block["summary"].items():
        print(f"{args.workload} {name}: parent {s['parent']['median']:.6g} change "
              f"{s['change']['median']:.6g} ({s['change_better_pairs']}/{len(pairs)} pairs "
              f"better, gain {s['median_gain']:.3g} vs parent IQR {s['parent_iqr']:.3g}, "
              f"within bound: {s['within_bound']})")
    print(f"written to {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
