"""Two commits' fits of fixed inputs and criterion-7 cells, compared side by side.

    python3 tools/fit_pairs.py <rev a> <rev b> --label <label> [--repeats 3]

Each revision comes from a fresh `git archive`; its `src/tensorbss` and
`perfbench/workloads.py` are imported side by side in this one process,
with BLAS pinned to one thread.  Each side draws its own inputs with its
own code, so a change to the simulation shows up as changed data (a
replicate's latent series, mixing matrices and mixed series): the arma
(T = 2000) and sv (T = 8000) replicates `default_rng([seed, 0, rep])` of
seeds 301 and 302, reps 0 and 1, haar mixing, fitted by all ten methods;
perfbench's 10x8x3 frames-cli series, fitted by the five tensor ones; and
a larger-frames series, `gen_frames((24, 24, 3), 2000, default_rng([301, 3]))`,
fitted by tsobi and tgjade (about 2.5 s a side per round), whose frames
take the chained mode products and the per-mode whitening QRs.
In each of `repeats` rounds every fit runs on both sides, a first for
even-numbered fits of even rounds and odd of odd rounds, b first otherwise.
Then each side runs its own `tensorbss.bench.run_benchmark` once on the
criterion-7 specs of tests/test_acceptance.py (gaussian mixing, seed 2026,
100 replicates, all ten methods, arma at T = 2000, sv at T = 8000); each of
the 20 cells (setting, method) is a criterion7 record of the replicates'
MDIs (NaN for a failed fit), the mean, `n_ok` and `n_not_converged`.

It prints, and writes to BENCH_<label>.json (never over an existing file):
per kind (criterion7, data, vector, tensor) and field, the largest absolute
and relative difference (to the array's largest |entry|; inf when shapes
differ) and the arrays holding them; every fit mode whose sweep count or
convergence moved; per kind, stage and side the fits' own
`diagnostics["stage_s"]`, each fit's best over the rounds, summed; each
side's 7a-7c verdicts; and (in the file) each side's MDI per fit and mean
per cell, and each replicate that moved by more than 1e-8 in a cell whose
mean did.  It exits 0 when every array is bit-identical, nothing moved and
every verdict holds on both sides, else 1.

Only API the library has had since it recorded `stage_s` is called
(`unmix`, `METHOD_NAMES`, `joint_diag`'s `objective`, `sweeps_used` and
`converged`, `kron_unmixing`, `mdi`, three `simgen` calls, `ExperimentSpec`,
`run_benchmark` and perfbench's `gen_frames`), so either side may be any
commit since then.
"""

import os

if __name__ == "__main__":  # before numpy is imported; importing this module sets nothing
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from importlib.metadata import version  # noqa: E402
from itertools import zip_longest  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from bench_pairs import ROOT, archive  # noqa: E402

SIDES = ("a", "b")
LENGTHS = (("arma", 2000), ("sv", 8000))
REPLICATES = [(setting, t, seed, rep) for setting, t in LENGTHS
              for seed in (301, 302) for rep in (0, 1)]
VECTOR = ("sobi", "gfobi", "gjade", "fobi", "jade")  # each with its tensor counterpart "t" + name
MOVED = 1e-8  # a criterion-7 mean that moves by more has its moved replicates recorded
# frames input name -> (dims, seed of its generator, the methods that fit it)
FRAMES = {"frames": ((10, 8, 3), [301, 2], tuple("t" + v for v in VECTOR)),
          "frames24": ((24, 24, 3), [301, 3], ("tsobi", "tgjade"))}


def load(tree: Path) -> tuple:
    """Import `tree`'s perfbench workloads, with them its tensorbss, and its tensorbss.bench.

    Returns (workloads, bench).  Their names leave `sys.modules` after, so
    that the next tree imports under them too."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    try:
        return importlib.import_module("workloads"), importlib.import_module("tensorbss.bench")
    finally:
        del sys.path[:2]
        for name in [n for n in sys.modules
                     if n.split(".")[0] in ("tensorbss", "workloads", "checks")]:
            del sys.modules[name]


def draw(w) -> dict:
    """Input name -> (series, mixing matrices, data arrays by field), drawn with `w`'s code."""
    inputs = {}
    for setting, t, seed, rep in REPLICATES:
        rng = np.random.default_rng([seed, 0, rep])
        zs = w.simgen.gen_latent_setting(setting, t, rng)
        mats = w.simgen.gen_mixing(zs.shape[1:], "haar", rng)
        xs = w.simgen.mix(zs, mats)
        inputs[f"{setting}/{seed}/{rep}"] = xs, mats, {"latent": [zs], "mixing": list(mats),
                                                       "mixed": [xs]}
    for name, (dims, seed, _) in FRAMES.items():
        xs, mats = w.gen_frames(dims, 2000, np.random.default_rng(seed))
        inputs[name] = xs, mats, {"input": [xs], "mixing": list(mats)}
    return inputs


def fit_record(w, res, mats) -> dict:
    """A fit's arrays by field, and under `modes` each mode's (sweeps, converged)."""
    jd = res.diagnostics["joint_diag"]
    score = w.metrics.mdi(w.metrics.kron_unmixing(res.mode_unmixers),
                          w.metrics.kron_unmixing(mats)).value
    return {"mode_unmixers": list(res.mode_unmixers), "rotations": list(res.rotations),
            "recovered": [res.recovered], "mean": [res.mean],
            "objective": [np.array(d["objective"]) for d in jd], "mdi": [np.array(score)],
            "modes": [(d["sweeps_used"], bool(d["converged"])) for d in jd]}


def criterion7(w, bench) -> dict:
    """The 20 criterion-7 cells as records {("criterion7", "<setting>/<method>"): fields}."""
    cells = {}
    for setting, t in LENGTHS:
        spec = bench.ExperimentSpec(setting=setting, mixing="gaussian", lengths=(t,),
                                    methods=tuple(w.bss.METHOD_NAMES), replicates=100, seed=2026)
        manifest = bench.run_benchmark(spec)
        for row in manifest["aggregates"]:
            mdis = [r["mdi"][row["method"]] for r in manifest["replicates"]]
            cells["criterion7", f"{setting}/{row['method']}"] = {
                "mdi": [np.array([v if isinstance(v, float) else np.nan for v in mdis])],
                "mean": [np.array(row["mean_mdi"])], "n_ok": [np.array(row["n_ok"])],
                "n_not_converged": [np.array(row["n_not_converged"])]}
    return cells


def verdicts(m: dict) -> dict:
    """The 7a, 7b and 7c gates of tests/test_acceptance.py on means m["<setting>/<method>"]."""
    return {
        "7a": m["arma/tsobi"] < m["arma/tgfobi"] and m["arma/tsobi"] < m["arma/sobi"],
        "7b": m["sv/tgjade"] < m["sv/gjade"] and m["sv/tgjade"] <= m["sv/tsobi"],
        "7c": all(m[f"{s}/t{v}"] < m[f"{s}/{v}"] for s, _ in LENGTHS for v in VECTOR),
    }


def compare(a: dict, b: dict) -> tuple:
    """Compare two sides' records, each {(kind, name): {field: list of arrays}}.

    Returns (rows, moved, exit code): rows holds per kind and field the
    largest absolute and relative difference and where each is; moved lists
    the fit modes whose sweep count or convergence flag differs.
    """
    rows, moved = {}, []
    for (kind, name), x in a.items():
        y = b[kind, name]
        for m, (u, v) in enumerate(zip(x.get("modes", ()), y.get("modes", ())), start=1):
            if tuple(u) != tuple(v):
                moved.append(f"{name} mode {m}: sweeps {u[0]} -> {v[0]}, "
                             f"converged {u[1]} -> {v[1]}")
        for field in x.keys() - {"modes"}:
            row = rows.setdefault(f"{kind} {field}", {
                "kind": kind, "field": field, "max_abs": 0.0, "max_abs_at": None,
                "max_rel": 0.0, "max_rel_at": None})
            # a missing mode meets an empty array, so it reads as a shape change
            for m, (u, v) in enumerate(zip_longest(x[field], y[field], fillvalue=np.empty(0))):
                u, v = np.asarray(u), np.asarray(v)
                if u.shape != v.shape:
                    diff = rel = float("inf")
                elif np.array_equal(u, v, equal_nan=True):
                    continue
                else:
                    d = np.abs(u - v)
                    diff = float(d.max()) if np.isfinite(d).all() else float("inf")
                    scale = float(np.abs(u).max())
                    rel = diff / scale if scale > 0 else float("inf")
                at = f"{name} {field}[{m}]"
                if diff > row["max_abs"] or row["max_abs_at"] is None:
                    row.update(max_abs=diff, max_abs_at=at)
                if rel > row["max_rel"] or row["max_rel_at"] is None:
                    row.update(max_rel=rel, max_rel_at=at)
    rows = [rows[key] for key in sorted(rows)]
    return rows, moved, int(bool(moved) or any(row["max_abs_at"] for row in rows))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="first revision")
    parser.add_argument("b", help="second revision")
    parser.add_argument("--label", required=True)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    out_path = ROOT / f"BENCH_{args.label}.json"
    if out_path.exists():
        parser.error(f"--label: {out_path.name} exists; choose another label")
    with tempfile.TemporaryDirectory(prefix="fit-pairs-") as tmp:
        revs = {side: archive(rev, Path(tmp) / side) for side, rev in zip(SIDES, (args.a, args.b))}
        code, bench = {}, {}
        for side in SIDES:
            code[side], bench[side] = load(Path(tmp) / side)
        inputs = {side: draw(w) for side, w in code.items()}
    records = {side: {("data", name): arrays for name, (_, _, arrays) in inputs[side].items()}
               for side in SIDES}
    fits = [("tensor" if tensor_path else "vector", name, method) for name in inputs["a"]
            for method, (_, tensor_path, _) in code["a"].bss.METHOD_NAMES.items()
            if name not in FRAMES or method in FRAMES[name][2]]
    best = {side: {} for side in SIDES}
    for r in range(args.repeats):
        for k, (kind, name, method) in enumerate(fits):
            for side in SIDES if (r + k) % 2 == 0 else SIDES[::-1]:
                xs, mats, _ = inputs[side][name]
                res = code[side].bss.unmix(xs, method)
                key = kind, f"{name}/{method}"
                stages = best[side].setdefault(key, {})
                for stage, s in res.diagnostics["stage_s"].items():
                    stages[stage] = min(stages.get(stage, float("inf")), s)
                if r == 0:
                    records[side][key] = fit_record(code[side], res, mats)
    for side in SIDES:
        records[side].update(criterion7(code[side], bench[side]))
    rows, moved, exit_code = compare(records["a"], records["b"])
    means = {name: {side: float(records[side][kind, name]["mean"][0]) for side in SIDES}
             for kind, name in records["a"] if kind == "criterion7"}
    gates = {side: verdicts({name: m[side] for name, m in means.items()}) for side in SIDES}
    shifted = {}  # per cell whose mean moved: {replicate: [mdi a, mdi b]} of those that moved
    for name, m in means.items():
        if abs(m["a"] - m["b"]) > MOVED:
            u, v = (records[side]["criterion7", name]["mdi"][0] for side in SIDES)
            shifted[name] = {int(k): [float(u[k]), float(v[k])] for k in np.flatnonzero(
                ~np.isclose(u, v, rtol=0.0, atol=MOVED, equal_nan=True))}
    exit_code = int(exit_code or not all(all(g.values()) for g in gates.values()))
    stage_s = {}
    for side in SIDES:
        for (kind, _), stages in best[side].items():
            for stage, s in stages.items():
                stage_s.setdefault(kind, {}).setdefault(stage, dict.fromkeys(SIDES, 0.0))[side] += s
    print(f"{len(fits)} fits, {len(inputs['a'])} inputs and {len(means)} criterion-7 cells "
          f"per side, {revs['a']} vs {revs['b']}")
    for row in rows:
        print(f"{row['kind']:10s} {row['field']:15s} " + (
            "bit-identical" if row["max_abs_at"] is None else
            f"max abs {row['max_abs']:.3e} at {row['max_abs_at']}; "
            f"max rel {row['max_rel']:.1e} at {row['max_rel_at']}"))
    print(f"{len(moved)} fit modes changed sweep count or convergence")
    for line in moved:
        print(f"  {line}")
    for name, reps in shifted.items():
        print(f"criterion-7 {name} mean moved by more than {MOVED:g}: " + ", ".join(
            f"rep {k} {u:.6f} -> {v:.6f}" for k, (u, v) in reps.items()))
    for side in SIDES:
        print(f"criterion 7, {side}: " + ", ".join(
            f"{gate} {'holds' if ok else 'FAILS'}" for gate, ok in gates[side].items()))
    print(f"stage seconds, each fit's best of {args.repeats}, summed:")
    for kind, stages in stage_s.items():
        for stage, t in stages.items():
            print(f"  {kind:6s} {stage:10s} a {t['a']:.4f} b {t['b']:.4f} "
                  f"(b/a {t['b'] / t['a']:.3f})")
    doc = {
        "label": args.label, **revs,
        "command": f"python3 tools/fit_pairs.py {revs['a']} {revs['b']} --label {args.label} "
                   f"--repeats {args.repeats}",
        "machine": (f"{os.cpu_count()} cores, one BLAS thread, Python "
                    f"{platform.python_version()}, numpy {version('numpy')}, "
                    f"scipy {version('scipy')}"),
        "exit_code": exit_code, "differences": rows, "moved": moved, "stage_s": stage_s,
        "mdi": {name: {side: float(records[side][kind, name]["mdi"][0]) for side in SIDES}
                for kind, name in records["a"] if kind in ("vector", "tensor")},
        "criterion7": {"verdicts": gates, "means": means, "moved": shifted},
    }
    out_path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"written to {out_path}; exit {exit_code}")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
