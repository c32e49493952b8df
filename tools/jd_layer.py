"""Time the joint diagonalizer of two commits on fixed arma-mc sets and write BENCH_<label>.json.

    python3 tools/jd_layer.py <rev a> <rev b> --label <label> [--seed 1] [--reps 3] [--repeats 5]

Each revision's `src/tensorbss` is taken from a fresh `git archive` of it and
imported as its own package, so both diagonalizers run in one process on the
same input.  The sets are built once, with revision a's code, as `bss.unmix`
builds them: the arma-mc replicates `default_rng([seed, 0, rep])` for rep in
0..reps-1 (T = 2000, haar mixing, as perfbench draws them), whitened, each
mode flattened and passed to the method's `moments` builder over its default
lags; five vector sets and fifteen tensor mode sets per replicate.

Timing is interleaved: in each of `repeats` rounds every set is diagonalized
by both revisions, a first in even-numbered sets of even rounds and odd of
odd rounds, b first otherwise; each side keeps its best time per set.  BLAS
is pinned to one thread.  The script prints per set the best time, sweeps
and convergence of each side, and the summed best times of the vector and
tensor sets, and writes the same to BENCH_<label>.json.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"  # before numpy is imported

import argparse  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from importlib.metadata import version  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from bench_pairs import ROOT, archive  # noqa: E402

SIDES = ("a", "b")


def load_package(src: Path, name: str):
    """Import `src/tensorbss` under the package name `name`."""
    pkg = src / "tensorbss"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def build_sets(tb, seed: int, reps: int) -> list:
    """(name, (K, p, p) set) for every vector set and tensor mode set of the replicates."""
    bss, moments, simgen, tensor = (importlib.import_module(f"{tb.__name__}.{m}")
                                    for m in ("bss", "moments", "simgen", "tensor"))
    sets = []
    for rep in range(reps):
        rng = np.random.default_rng([seed, 0, rep])
        zs = simgen.gen_latent_setting("arma", 2000, rng)
        xs = simgen.mix(zs, simgen.gen_mixing(zs.shape[1:], "haar", rng))
        for method, (builder, tensor_path, _) in bss.METHOD_NAMES.items():
            series = xs if tensor_path else tensor.series_components(xs)
            ys, _ = bss.whiten(series - series.mean(axis=0))
            for m in range(1, ys.ndim):
                f = tensor.series_flatten(ys, m)
                mats = getattr(moments, builder)(f, bss.method_lags(method))
                sets.append((f"arma/{seed}/{rep}/{method}/mode{m}", tensor_path, mats))
    return sets


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="first revision; its code also builds the sets")
    parser.add_argument("b", help="second revision")
    parser.add_argument("--label", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    if args.reps < 1 or args.repeats < 1:
        parser.error("--reps and --repeats must be at least 1")
    with tempfile.TemporaryDirectory(prefix="jd-layer-") as tmp:
        revs, jd = {}, {}
        for side, rev in zip(SIDES, (args.a, args.b)):
            revs[side] = archive(rev, Path(tmp) / side)
            pkg = load_package(Path(tmp) / side / "src", f"tensorbss_{side}")
            jd[side] = importlib.import_module(f"{pkg.__name__}.linalg").joint_diagonalize
            if side == "a":
                sets = build_sets(pkg, args.seed, args.reps)
        best = {side: [float("inf")] * len(sets) for side in SIDES}
        fits = {side: [None] * len(sets) for side in SIDES}
        for r in range(args.repeats):
            for k, (_, _, mats) in enumerate(sets):
                for side in (SIDES if (r + k) % 2 == 0 else SIDES[::-1]):
                    t0 = perf_counter()
                    res = jd[side](mats)
                    best[side][k] = min(best[side][k], perf_counter() - t0)
                    fits[side][k] = res
    rows = []
    print(f"{'set':28s} {'K':>5s} "
          + " ".join(f"{side + ' ms':>9s} {'sweeps':>6s}" for side in SIDES))
    for k, (name, tensor_path, mats) in enumerate(sets):
        row = {"set": name, "tensor": tensor_path, "matrices": len(mats)}
        for side in SIDES:
            res = fits[side][k]
            row[side] = {"best_s": best[side][k], "sweeps": res.sweeps_used,
                         "converged": res.converged}
        rows.append(row)
        print(f"{name:28s} {len(mats):5d} " + " ".join(
            f"{row[side]['best_s'] * 1e3:9.2f} {row[side]['sweeps']:5d}"
            f"{' ' if row[side]['converged'] else '*'}" for side in SIDES))
    totals = {kind: {side: sum(row[side]["best_s"] for row in rows if row["tensor"] == is_tensor)
                     for side in SIDES}
              for kind, is_tensor in (("vector", False), ("tensor", True))}
    for kind, t in totals.items():
        print(f"{kind} sets: a {t['a'] * 1e3:.1f} ms, b {t['b'] * 1e3:.1f} ms "
              f"(b/a {t['b'] / t['a']:.3f})")
    print("* not converged (sweep cap)")
    doc = {
        "label": args.label, **revs,
        "command": (f"python3 tools/jd_layer.py {revs['a']} {revs['b']} --label {args.label} "
                    f"--seed {args.seed} --reps {args.reps} --repeats {args.repeats}"),
        "protocol": ("sets built once with a's code from the arma-mc replicates "
                     "default_rng([seed, 0, rep]), T = 2000, haar mixing; both sides timed "
                     "on every set in each round, alternating which goes first; best time "
                     "per set and side"),
        "machine": (f"{os.cpu_count()} cores, one BLAS thread, Python "
                    f"{platform.python_version()}, numpy {version('numpy')}, "
                    f"scipy {version('scipy')}"),
        "totals_s": totals,
        "sets": rows,
    }
    out_path = ROOT / f"BENCH_{args.label}.json"
    out_path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"written to {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
