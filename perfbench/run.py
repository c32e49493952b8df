"""tensorbss benchmark: one workload, measured for a fixed time, every output checked.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload arma-mc --seed 1 --seconds 58 --trace 0

The library is imported from `src/` of the checkout.  The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer metrics of a traced run with `--trace 1`.  `--workload all`
runs the three workloads in turn and prefixes each metric with its
workload's name.  `BENCHMARK.json` lists arma-mc and frames-cli; sv-mc
runs only on request.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
BLAS_THREADS = "1"  # at most nproc; one thread keeps timings steady on a shared machine
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
WORKLOADS = ("arma-mc", "sv-mc", "frames-cli")

END_TO_END = {  # name -> unit
    "setup_s": "s", "op_s": "s", "fit_s": "s", "tensor_fit_s": "s",
    "mdi_tensor": "1", "peak_rss_mb": "MB",
}
MOMENTS = ("sigma_tau", "b_tau", "b_tau_grid", "mode_cov", "mode_autocov",
           "mode_b_tau", "mode_c_grid")
METHODS = ("sobi", "gfobi", "gjade", "fobi", "jade", "tsobi", "tgfobi", "tgjade",
           "tfobi", "tjade")
LAYER_SELF = {"simgen": "simgen.self_s", "tensor": "tensor.self_s",
              "moments": "moments.self_s", "linalg": "linalg.self_s",
              "bss": "bss.unmix_self_s", "metrics": "metrics.self_s", "cli": "cli.self_s",
              "perfbench": "perfbench.self_s"}
# per-layer metric -> (unit, span name for inclusive time | counter name | None)
PER_LAYER = {
    "simgen.gen_latent_setting_s": ("s", "simgen.gen_latent_setting"),
    "simgen.gen_garch_s": ("s", "simgen.gen_garch"),
    "simgen.mix_s": ("s", "simgen.mix"),
    "tensor.series_mode_product_s": ("s", "tensor.series_mode_product"),
    "tensor.series_flatten_s": ("s", "tensor.series_flatten"),
    "tensor.read_series_s": ("s", "tensor.read_series"),
    "tensor.write_series_s": ("s", "tensor.write_series"),
    "tensor.io_mb": ("MB", "tensor.io_mb"),
    **{f"moments.{f}_s": ("s", f"moments.{f}") for f in MOMENTS},
    **{f"moments.{f}_calls": ("count", f"moments.{f}_calls") for f in MOMENTS},
    "linalg.sym_inv_sqrt_s": ("s", "linalg.sym_inv_sqrt"),
    "linalg.joint_diagonalize_s": ("s", "linalg.joint_diagonalize"),
    "linalg.jd_calls": ("count", "linalg.joint_diagonalize_calls"),
    "linalg.jd_matrices": ("count", "linalg.jd_matrices"),
    "linalg.jd_sweeps": ("count", "linalg.jd_sweeps"),
    "linalg.jd_capped": ("count", "linalg.jd_capped"),
    "linalg.jd_work": ("count", "linalg.jd_work"),
    **{f"bss.fit.{m}_s": ("s", f"bss.unmix[{m}]") for m in METHODS},
    "metrics.mdi_s": ("s", "metrics.mdi"),
    "metrics.kron_unmixing_s": ("s", "metrics.kron_unmixing"),
    "metrics.kurtosis_rank_s": ("s", "metrics.kurtosis_rank"),
    "cli.unmix_s": ("s", "cli.cmd_unmix"),
    "cli.evaluate_s": ("s", "cli.cmd_evaluate"),
    "cli.rank_s": ("s", "cli.cmd_rank"),
    **{name: ("s", None) for name in LAYER_SELF.values()},
    "trace.op_s": ("s", None),
    "trace.untraced_op_s": ("s", None),
    "trace.overhead_s": ("s", None),
    "trace.spans": ("count", None),
}


def load_library():
    """Put the checkout's `src/` first on the path and import the workloads.

    Returns the import time.  Raises FileNotFoundError when the checkout
    holds no tensorbss sources.
    """
    src = ROOT / "src"
    if not (src / "tensorbss" / "__init__.py").is_file():
        raise FileNotFoundError(f"no tensorbss sources under {src}")
    sys.path.insert(0, str(src))
    t0 = perf_counter()
    import workloads  # noqa: F401  (numpy, scipy and tensorbss)
    import_s = perf_counter() - t0
    import tensorbss
    if Path(tensorbss.__file__).resolve().parent != src / "tensorbss":
        raise FileNotFoundError(f"tensorbss imported from {tensorbss.__file__}, not {src}")
    return import_s


def import_again():
    """The import time of `load_library`, taken again in a fresh interpreter.

    `setup_s` takes the median of this process's import and of such
    repeats, because one import's time varies by half between runs.
    """
    code = ("import sys, time; sys.dont_write_bytecode = True; sys.path[:0] = sys.argv[1:]; "
            "t0 = time.perf_counter(); import workloads; print(time.perf_counter() - t0)")
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "src"), str(HERE)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def run_op(wl, rep, tracer=None):
    """Run and check one operation.

    Returns (rep, op seconds, scores or None if it failed, problems).
    Only the scores are kept, so that the fits are freed before the next
    operation and memory does not depend on the number of operations.
    """
    t0 = perf_counter()
    try:
        if tracer is None:
            out = wl.operation(rep)
        else:
            tracer.op = rep
            with tracer.span("perfbench.operation"):
                out = wl.operation(rep)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return rep, perf_counter() - t0, None, []
    op_s = perf_counter() - t0
    try:
        problems = wl.check(out)
    except Exception as exc:
        problems = [f"check raised {type(exc).__name__}: {exc}"]
    return rep, op_s, {"fit_s": out["fit_s"], "mdi": out["mdi"]}, problems


def run_for(seconds, step):
    """Call step(0), step(1), ... back to back while the next call is
    expected to end within `seconds`; always at least once."""
    start = perf_counter()
    rep = 0
    while True:
        step(rep)
        rep += 1
        elapsed = perf_counter() - start
        if elapsed + elapsed / rep > seconds:
            return


def summarize(name, done):
    """correct/attempted/failed over a run, with the run's problems listed."""
    from workloads import ORDERINGS

    ok = [d for d in done if d[2] is not None]
    problems = [f"rep {rep}: {p}" for rep, _, _, found in ok for p in found]
    if name in ORDERINGS and ok:
        better, worse = ORDERINGS[name]
        m_better = statistics.fmean(d[2]["mdi"][better] for d in ok)
        m_worse = statistics.fmean(d[2]["mdi"][worse] for d in ok)
        if not m_better < m_worse:
            problems.append(f"mean MDI {better} {m_better:.4g} is not below "
                            f"{worse} {m_worse:.4g}")
    return {"correct": not problems, "attempted": len(done),
            "failed": len(done) - len(ok)}, problems


def print_ops(name, label, done, tensor_methods):
    """One line per operation, so a run's means can be traced to its operations."""
    for rep, op_s, out, _ in done:
        if out is None:
            print(f"{name} {label} rep {rep}: failed after {op_s:.4f} s")
        else:
            print(f"{name} {label} rep {rep}: op {op_s:.4f} s, fits "
                  f"{sum(out['fit_s'].values()):.4f} s, tensor fits "
                  f"{sum(out['fit_s'][m] for m in tensor_methods):.4f} s")


def end_to_end(done, setup_s, tensor_methods):
    """The end-to-end metrics of an untraced run.

    Times are means over the run's operations, that is the run's measured
    time divided by its operations: the machine's speed drifts over tens
    of seconds, and a mean over the whole run averages more of that drift
    than a median of a few operations.
    """
    ok = [d for d in done if d[2] is not None]
    if not ok:
        return {}
    values = {
        "setup_s": setup_s,
        "op_s": statistics.fmean(d[1] for d in ok),
        "fit_s": statistics.fmean(sum(d[2]["fit_s"].values()) for d in ok),
        "tensor_fit_s": statistics.fmean(
            sum(d[2]["fit_s"][m] for m in tensor_methods) for d in ok),
        "mdi_tensor": statistics.fmean(d[2]["mdi"][m] for d in ok for m in tensor_methods),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(tracer, traced, untraced):
    """Per-operation layer metrics from the spans of the traced operations.

    Sums are divided by the number of traced operations; the overhead
    compares the same replicates run untraced and traced.
    """
    n = len(traced)
    inclusive, self_time = tracer.totals()
    values = {}
    for name, (unit, source) in PER_LAYER.items():
        if source is not None:
            total = tracer.counts[source] if unit != "s" else inclusive.get(source, 0.0)
            values[name] = total / n
    for layer, name in LAYER_SELF.items():
        values[name] = self_time.get(layer, 0.0) / n
    values["trace.op_s"] = inclusive["perfbench.operation"] / n
    values["trace.untraced_op_s"] = statistics.fmean(d[1] for d in untraced)
    values["trace.overhead_s"] = values["trace.op_s"] - values["trace.untraced_op_s"]
    values["trace.spans"] = len(tracer.spans) / n
    return {k: {"value": values[k], "unit": PER_LAYER[k][0]} for k in PER_LAYER}


def measure(name, seed, seconds, trace, make=None, out_dir=OUT_DIR, import_s=0.0):
    """Set up and run one workload; returns (result dict, problems).

    `make` builds the workload from the seed (default: the paper-size
    workload of that name).  A traced run runs each replicate twice in a
    row, untraced and traced, in alternating order, so that the tracing
    overhead is not confounded with drifts in the machine's speed or with
    which run of a pair comes first.
    """
    import workloads
    from spans import Tracer

    wl = (make or workloads.WORKLOADS[name])(seed)
    tensor_methods = workloads.TENSOR_METHODS
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=out_dir)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            wl.setup(workdir)
            setups.append(perf_counter() - t0)
        setup_s = import_s + statistics.median(setups)
        untraced = []
        if not trace:
            run_for(seconds, lambda rep: untraced.append(run_op(wl, rep)))
            print_ops(name, "untraced", untraced, tensor_methods)
            result, problems = summarize(name, untraced)
            result["metrics"] = end_to_end(untraced, setup_s, tensor_methods)
            return result, problems
        tracer = Tracer()
        traced = []

        def pair(rep):
            for traced_now in ((False, True) if rep % 2 == 0 else (True, False)):
                if traced_now:
                    with tracer.installed():
                        traced.append(run_op(wl, rep, tracer))
                else:
                    untraced.append(run_op(wl, rep))

        run_for(seconds, pair)
        tracer.write(os.path.join(out_dir, f"spans-{name}-seed{seed}.jsonl"))
        print_ops(name, "untraced", untraced, tensor_methods)
        print_ops(name, "traced", traced, tensor_methods)
        result, problems = summarize(name, untraced + traced)
        result["metrics"] = per_layer(tracer, traced, untraced)
        return result, problems
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or all three in turn in this process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    try:
        imports = [load_library()]
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: cannot load tensorbss: {exc}", file=sys.stderr)
        return 2
    imports += [import_again() for _ in range(SETUP_REPEATS - 1)]
    import_s = statistics.median(imports)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result, problems = measure(name, args.seed, args.seconds, bool(args.trace),
                                   import_s=import_s)
        for p in problems:
            print(f"check failed: {name}: {p}", file=sys.stderr)
        for key, m in result["metrics"].items():
            print(f"{name} {key} = {m['value']:.6g} {m['unit']}")
        print(f"{name} attempted = {result['attempted']}, failed = {result['failed']}")
        results[name] = result
    if len(names) > 1:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{key}": m for name, r in results.items()
                        for key, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.dont_write_bytecode = True
    sys.exit(main())
