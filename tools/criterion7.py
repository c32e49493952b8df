"""Run the criterion-7 Monte-Carlo comparison and dump it, or compare two dumps.

    OPENBLAS_NUM_THREADS=1 python3 tools/criterion7.py dump <src dir> <out.json>
    python3 tools/criterion7.py compare <a.json> <b.json>

`dump` runs the specs of the criterion-7 fixture in
`tests/test_acceptance.py` with the `src/` of a checkout: gaussian mixing,
seed 2026, 100 replicates, all ten methods, the arma setting at T = 2000
and the sv setting at T = 8000.  It records per cell (setting, method) the
mean MDI, n_ok, `n_not_converged` and the MDI of every replicate (null for
a failed fit).  At one BLAS thread a dump takes several minutes.

`compare` prints, per cell, both means, the largest difference of the
means and of the per-replicate MDIs, and n_ok and the sweep-capped counts
when they differ; for every cell whose mean moved by more than 1e-8 it
lists the replicates that moved by more than 1e-8.  It then prints the
7a-7c verdicts of each dump.  It exits 1 when any n_ok or capped count
differs or any verdict fails on either dump, and 0 otherwise.
"""

import json
import sys
from pathlib import Path

SETTINGS = (("arma", 2000), ("sv", 8000))
METHODS = ("sobi", "gfobi", "gjade", "fobi", "jade",
           "tsobi", "tgfobi", "tgjade", "tfobi", "tjade")
COUNTERPARTS = (("tsobi", "sobi"), ("tgfobi", "gfobi"), ("tgjade", "gjade"),
                ("tfobi", "fobi"), ("tjade", "jade"))
MOVED = 1e-8


def dump(src, out):
    sys.path.insert(0, str(Path(src).resolve()))
    from tensorbss.bench import ExperimentSpec, run_benchmark

    cells = {}
    for setting, t in SETTINGS:
        spec = ExperimentSpec(setting=setting, mixing="gaussian", lengths=(t,),
                              methods=METHODS, replicates=100, seed=2026)
        manifest = run_benchmark(spec)
        for row in manifest["aggregates"]:
            mdis = [r["mdi"][row["method"]] for r in manifest["replicates"]]
            cells[f"{setting}/{row['method']}"] = {
                "mean": row["mean_mdi"], "n_ok": row["n_ok"],
                "n_not_converged": row["n_not_converged"],
                "mdi": [v if isinstance(v, float) else None for v in mdis],
            }
    with open(out, "w") as fh:
        json.dump(cells, fh, indent=1)
        fh.write("\n")
    print(f"{len(cells)} cells written to {out}")


def verdicts(cells):
    """The 7a, 7b and 7c gates of tests/test_acceptance.py on one dump's means."""
    m = {tuple(key.split("/")): c["mean"] for key, c in cells.items()}
    return {
        "7a": m["arma", "tsobi"] < m["arma", "tgfobi"] and m["arma", "tsobi"] < m["arma", "sobi"],
        "7b": m["sv", "tgjade"] < m["sv", "gjade"] and m["sv", "tgjade"] <= m["sv", "tsobi"],
        "7c": all(m[s, tm] < m[s, vm] for s, _ in SETTINGS for tm, vm in COUNTERPARTS),
    }


def compare(a_path, b_path):
    a = json.loads(Path(a_path).read_text())
    b = json.loads(Path(b_path).read_text())
    if set(a) != set(b):
        raise SystemExit(f"the dumps hold different cells: {sorted(set(a) ^ set(b))}")
    counts_differ = False
    print(f"{'cell':14s} {'mean a':>10s} {'mean b':>10s} {'|d mean|':>9s} {'max |d rep|':>11s}")
    for key in a:
        x, y = a[key], b[key]
        reps = [(k, abs(u - v)) for k, (u, v) in enumerate(zip(x["mdi"], y["mdi"]))
                if u is not None and v is not None]
        worst = max((d for _, d in reps), default=0.0)
        dmean = abs(x["mean"] - y["mean"])
        line = f"{key:14s} {x['mean']:10.6f} {y['mean']:10.6f} {dmean:9.2e} {worst:11.2e}"
        for field in ("n_ok", "n_not_converged"):
            if x[field] != y[field]:
                counts_differ = True
                line += f"  {field} {x[field]} -> {y[field]}"
        print(line)
        if dmean > MOVED:
            moved = ", ".join(f"rep {k}: {x['mdi'][k]:.6f} -> {y['mdi'][k]:.6f} ({d:.2e})"
                              for k, d in reps if d > MOVED)
            print(f"  moved by more than {MOVED:g}: {moved}")
    failing = False
    for name, cells in (("a", a), ("b", b)):
        gates = verdicts(cells)
        failing = failing or not all(gates.values())
        print(f"{name}: " + ", ".join(f"{gate} {'holds' if ok else 'FAILS'}"
                                      for gate, ok in gates.items()))
    return int(counts_differ or failing)


if __name__ == "__main__":
    if sys.argv[1] == "dump":
        dump(sys.argv[2], sys.argv[3])
    else:
        sys.exit(compare(sys.argv[2], sys.argv[3]))
