"""Dump every fit of the ten methods and the data it was fitted on, or compare two dumps.

    OPENBLAS_NUM_THREADS=1 python3 tools/fit_fingerprint.py dump <src dir> <out.npz>
    python3 tools/fit_fingerprint.py compare <a.npz> <b.npz>

Dump once with the `src/` of each of two checkouts, with the same BLAS and
thread count, to check that a refactor leaves every fit and every simulated
input unchanged; the comparison prints the largest absolute difference per
kind (vector fit, tensor fit or data) and field, with the array that holds
it and that difference relative to the array's largest |entry|, then every
fit mode whose sweep count or convergence flag differs.  `compare` exits 0
when every array is bit-identical and 1 when any array differs or any
sweep count or convergence flag moved.

Inputs: arma-mc replicates (T = 2000) and sv-mc replicates (T = 8000) of
seeds 301 and 302, reps 0 and 1, drawn as perfbench draws them (haar
mixing, default_rng([seed, 0, rep])), all ten methods; plus a
frames-cli-shaped 2000x10x8x3 series (seed 301), five tensor methods.
Data arrays, under `data/<input>`: each replicate's latent series and
mixing matrices, and the frames series and its mixing matrices.
"""

import sys
from pathlib import Path

import numpy as np


def dump(src, out):
    sys.path.insert(0, str(Path(src).resolve()))
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    from tensorbss import bss, metrics, simgen
    import workloads

    arrays = {}

    def record(key, res, omega):
        for field in ("mode_unmixers", "rotations"):
            for m, a in enumerate(getattr(res, field)):
                arrays[f"{key}|{field}|{m}"] = a
        arrays[f"{key}|recovered"] = res.recovered
        arrays[f"{key}|mean"] = res.mean
        for m, d in enumerate(res.diagnostics["joint_diag"]):
            arrays[f"{key}|diag|{m}"] = np.array(
                [d["objective"], d["sweeps_used"], float(d["converged"])])
        arrays[f"{key}|mdi"] = np.array(
            metrics.mdi(metrics.kron_unmixing(res.mode_unmixers), omega).value)

    def record_data(key, name, series, mats):
        arrays[f"data/{key}|{name}"] = series
        for m, a in enumerate(mats):
            arrays[f"data/{key}|mixing|{m}"] = a

    for setting, t in (("arma", 2000), ("sv", 8000)):
        for seed in (301, 302):
            for rep in (0, 1):
                rng = np.random.default_rng([seed, 0, rep])
                zs = simgen.gen_latent_setting(setting, t, rng)
                mats = simgen.gen_mixing(zs.shape[1:], "haar", rng)
                xs = simgen.mix(zs, mats)
                record_data(f"{setting}/{seed}/{rep}", "latent", zs, mats)
                omega = metrics.kron_unmixing(mats)
                for method in bss.METHOD_NAMES:
                    res = bss.unmix(xs, method)
                    record(f"{setting}/{seed}/{rep}/{method}", res, omega)
    xs, mats = workloads.gen_frames((10, 8, 3), 2000, np.random.default_rng([301, 2]))
    record_data("frames", "input", xs, mats)
    omega = metrics.kron_unmixing(mats)
    for method, (_, tensor_path, _) in bss.METHOD_NAMES.items():
        if tensor_path:
            record(f"frames/{method}", bss.unmix(xs, method), omega)
    np.savez(out, **arrays)
    print(f"{len(arrays)} arrays written to {out}")


def compare(a_path, b_path):
    a, b = np.load(a_path), np.load(b_path)
    if set(a.files) != set(b.files):
        raise SystemExit(f"the dumps hold different arrays: {sorted(set(a.files) ^ set(b.files))}")
    vector = ("sobi", "gfobi", "gjade", "fobi", "jade")
    worst = {}
    moved = []
    for key in sorted(a.files):
        fit, field = key.split("|")[:2]
        kind = ("data" if fit.startswith("data/") else
                "vector" if fit.split("/")[-1] in vector else "tensor")
        x, y = a[key], b[key]
        if field == "diag" and not np.array_equal(x[1:], y[1:]):
            moved.append(f"{fit} mode {int(key.split('|')[2]) + 1}: sweeps {int(x[1])} -> "
                         f"{int(y[1])}, converged {bool(x[2])} -> {bool(y[2])}")
        if x.shape != y.shape:
            diff = float("inf")
        elif np.array_equal(x, y, equal_nan=True):
            diff = 0.0
        else:
            d = np.abs(x - y)
            diff = float(d.max()) if np.isfinite(d).all() else float("inf")
        if diff >= worst.get((kind, field), (0.0,))[0]:
            scale = float(np.abs(x).max()) if x.size else 0.0
            worst[kind, field] = (diff, key, diff / scale if scale > 0 else float("inf"))
    names = {key.split("|")[0] for key in a.files}
    data = sum(name.startswith("data/") for name in names)
    print(f"{len(names) - data} fits and {data} inputs, {len(a.files)} arrays compared")
    for (kind, field), (diff, key, rel) in sorted(worst.items()):
        tag = ("bit-identical" if diff == 0.0 else
               f"max abs diff {diff:.3e} (relative {rel:.1e}) at {key}")
        print(f"{kind:6s} {field:14s} {tag}")
    print(f"{len(moved)} fit modes changed sweep count or convergence")
    for line in moved:
        print(f"  {line}")
    return int(bool(moved) or any(diff != 0.0 for diff, _, _ in worst.values()))


if __name__ == "__main__":
    if sys.argv[1] == "dump":
        dump(sys.argv[2], sys.argv[3])
    else:
        sys.exit(compare(sys.argv[2], sys.argv[3]))
