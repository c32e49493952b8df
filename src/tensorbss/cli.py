"""Command-line driver: simulate | unmix | evaluate | bench | rank.

Exit codes: 0 success, 1 usage error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings

import numpy as np

from . import __version__
from .bench import (_parse_ints, _parse_lags, parse_experiment_spec, run_benchmark,
                    summary_csv, write_manifest)
from .bss import METHOD_NAMES, RankDeficiencyError, method_lags, unmix
from .metrics import kurtosis_rank, max_abs_correlations, mode_mdi
from .simgen import DEFAULT_DIMS, MIXING_KINDS, SETTINGS, gen_latent_setting, gen_mixing, mix
from .tensor import read_series, series_components, write_series

USAGE_ERROR = 1
NUMERICAL_ERROR = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def write_matrices(path, mats) -> None:
    """Write a list of per-mode square matrices as labelled text blocks."""
    with open(path, "w") as fh:
        fh.write(f"matrices={len(mats)}\n")
        for m, a in enumerate(mats, start=1):
            a = np.asarray(a, dtype=float)
            fh.write(f"mode={m} rows={a.shape[0]} cols={a.shape[1]}\n")
            np.savetxt(fh, a, fmt="%.17g")


def read_matrices(path) -> list:
    with open(path) as fh:
        header = fh.readline().strip()
        count = header.removeprefix("matrices=")
        if count == header or not count.isdecimal() or int(count) < 1:
            raise ValueError(f"{path}: malformed matrix file header {header!r}, "
                             f"expected 'matrices=<positive integer>'")
        count = int(count)
        mats = []
        for k in range(1, count + 1):
            line = fh.readline()
            meta = dict(kv.split("=", 1) for kv in line.split() if "=" in kv)
            if "rows" not in meta or "cols" not in meta:
                raise ValueError(f"{path}: matrix block {k} of {count} has no "
                                 f"'rows=... cols=...' header line, got {line.strip()!r}")
            if not (meta["rows"].isdecimal() and meta["cols"].isdecimal()):
                raise ValueError(f"{path}: matrix block {k} of {count} has a malformed "
                                 f"header {line.strip()!r}, expected integer rows and cols")
            rows, cols = int(meta["rows"]), int(meta["cols"])
            try:
                block = np.array([fh.readline().split() for _ in range(rows)], dtype=float)
            except ValueError:  # a value that is not a number, or rows of unequal length
                block = None
            if rows < 1 or block is None or block.shape != (rows, cols):
                raise ValueError(f"{path}: matrix block {k} of {count} is not {rows}x{cols}")
            if not np.isfinite(block).all():
                raise ValueError(f"{path}: matrix block {k} of {count} contains NaN or "
                                 f"infinite values")
            mats.append(block)
    return mats


def _component_text(idx) -> str:
    """A component's 1-based multi-index as the commands print it: `2`, `1x2x1`."""
    return "x".join(str(i) for i in idx)


def cmd_simulate(args) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed: expected a non-negative integer, got {args.seed}")
    if args.T < 1:
        raise ValueError(f"--T: expected a positive integer, got {args.T}")
    rng = np.random.default_rng(args.seed)
    dims = _parse_ints("--dims", args.dims)
    zs = gen_latent_setting(args.setting, args.T, rng, dims=dims)
    mats = gen_mixing(dims, args.mixing, rng)
    xs = mix(zs, mats)
    os.makedirs(args.out, exist_ok=True)
    write_series(os.path.join(args.out, "Z.ts"), zs)
    write_series(os.path.join(args.out, "X.ts"), xs)
    write_matrices(os.path.join(args.out, "mixing.txt"), mats)
    print(f"wrote Z.ts, X.ts, mixing.txt to {args.out} "
          f"(setting={args.setting}, mixing={args.mixing}, T={args.T}, seed={args.seed})")
    return 0


def cmd_unmix(args) -> int:
    lags = method_lags(args.method, None if args.lags is None else _parse_lags(args.lags))
    res = unmix(read_series(args.input), args.method, lags=lags)
    os.makedirs(args.out, exist_ok=True)
    write_series(os.path.join(args.out, "recovered.ts"), res.recovered)
    write_matrices(os.path.join(args.out, "unmixers.txt"), res.mode_unmixers)
    with open(os.path.join(args.out, "diagnostics.json"), "w") as fh:
        json.dump({"method": args.method, "lags": list(lags),
                   "diagnostics": res.diagnostics}, fh, indent=1)
        fh.write("\n")
    for m, info in enumerate(res.diagnostics["joint_diag"], start=1):
        status = "converged" if info["converged"] else "NOT converged"
        print(f"mode {m}: objective={info['objective']:.6g} "
              f"sweeps={info['sweeps_used']} ({status})")
    print(f"wrote recovered.ts, unmixers.txt, diagnostics.json to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    if bool(args.mixing) == bool(args.targets):
        raise ValueError("evaluate needs exactly one of --mixing or --targets")
    if args.mixing and not args.unmixers:
        raise ValueError("evaluate --mixing needs --unmixers")
    if args.targets and not args.recovered:
        raise ValueError("evaluate --targets needs --recovered")
    if args.mixing:
        result = mode_mdi(read_matrices(args.unmixers), read_matrices(args.mixing))
        print(f"mdi={result.value:.12g}")
        print("assignment=" + ",".join(str(v + 1) for v in result.assignment))
        return 0
    recovered = read_series(args.recovered)
    targets = series_components(read_series(args.targets)).T
    for k, (corr, idx) in enumerate(max_abs_correlations(recovered, targets), start=1):
        print(f"target {k}: max_abs_corr={corr:.6g} component={_component_text(idx)}")
    return 0


def cmd_rank(args) -> int:
    recovered = read_series(args.input)
    print("rank,component,excess_kurtosis")
    for pos, (kurt, idx) in enumerate(kurtosis_rank(recovered), start=1):
        print(f"{pos},{_component_text(idx)},{kurt:.6g}")
    return 0


def cmd_bench(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs: expected an integer >= 1, got {args.jobs}")
    spec = parse_experiment_spec(args.spec)
    out = args.out or spec.out

    def progress(done, total):
        if args.verbose:
            print(f"replicate {done}/{total}", file=sys.stderr)

    manifest = run_benchmark(spec, jobs=args.jobs, progress=progress)
    os.makedirs(out, exist_ok=True)
    write_manifest(manifest, os.path.join(out, "manifest.json"))
    table = summary_csv(manifest)
    with open(os.path.join(out, "summary.csv"), "w") as fh:
        fh.write(table)
    print(table, end="")
    failed = sum(row["n_failed"] for row in manifest["aggregates"])
    if failed:
        print(f"warning: {failed} replicate-method runs failed and were "
              f"excluded from the means", file=sys.stderr)
    capped = sum(row["n_not_converged"] for row in manifest["aggregates"])
    if capped:
        print(f"warning: {capped} replicate-method fits stopped at the sweep cap "
              f"without converging", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tensorbss",
                     description="Blind source separation for tensor-valued time series")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a latent series, mix it, write files")
    p.add_argument("--setting", required=True, choices=sorted(SETTINGS))
    p.add_argument("--mixing", required=True, choices=MIXING_KINDS)
    p.add_argument("--dims", default=",".join(map(str, DEFAULT_DIMS)))
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("unmix", help="fit one of the ten methods to a series file")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--method", required=True, choices=sorted(METHOD_NAMES))
    p.add_argument("--lags", help="lag set, 'a:b' or 'a,b,c' (default per method)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_unmix)

    p = sub.add_parser("evaluate", help="score unmixers by MDI or match target signals")
    p.add_argument("--unmixers", help="unmixer matrix file (with --mixing)")
    p.add_argument("--mixing", help="true mixing matrix file")
    p.add_argument("--recovered", help="recovered series file (with --targets)")
    p.add_argument("--targets", help="target signals as a series file")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("rank", help="rank recovered components by excess kurtosis")
    p.add_argument("--in", dest="input", required=True)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("bench", help="run a Monte-Carlo benchmark from a config file")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", help="output directory (default from the spec)")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # library warnings (such as skipped constant components) become
    # `warning: ...` lines, without the source location and line echo
    with warnings.catch_warnings(record=True) as caught:
        try:
            return args.func(args)
        except (RankDeficiencyError, np.linalg.LinAlgError, FloatingPointError) as exc:
            print(f"numerical failure: {exc}", file=sys.stderr)
            return NUMERICAL_ERROR
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return USAGE_ERROR
        finally:
            for w in caught:
                print(f"warning: {w.message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
