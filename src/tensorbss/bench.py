"""Seeded Monte-Carlo benchmark harness comparing the ten methods by mean MDI."""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, asdict
from functools import partial

import numpy as np

from . import __version__
from .bss import method_lags, unmix
from .metrics import mode_mdi
from .simgen import (DEFAULT_DIMS, MIXING_KINDS, gen_latent_setting, gen_mixing, mix,
                     setting_specs)
from .tensor import _is_int

__all__ = ["ExperimentSpec", "parse_experiment_spec", "run_benchmark", "SUMMARY_HEADER"]

SUMMARY_HEADER = "setting,mixing,method,T,mean_mdi,se_mdi,n_ok"


@dataclass
class ExperimentSpec:
    """One benchmark configuration: setting x mixing x T-grid x methods."""

    setting: str
    mixing: str
    dims: tuple = DEFAULT_DIMS
    lengths: tuple = (1000,)
    methods: tuple = ("tsobi",)
    lags: dict = field(default_factory=dict)  # method name -> lag tuple override
    replicates: int = 1
    seed: int = 0
    out: str = "bench_out"

    def __post_init__(self):
        setting_specs(self.setting, self.dims)
        if self.mixing not in MIXING_KINDS:
            raise ValueError(f"unknown mixing {self.mixing!r}")
        if not self.methods:
            raise ValueError("methods: expected at least one method")
        if not self.lengths:
            raise ValueError("lengths: expected at least one series length")
        bad = [t for t in self.lengths if not _is_int(t)]
        if bad:
            raise ValueError(f"lengths: expected integers, got {bad[0]!r}")
        if not _is_int(self.replicates):
            raise ValueError(f"replicates: expected an integer, got {self.replicates!r}")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if not _is_int(self.seed) or self.seed < 0:
            raise ValueError(f"seed: expected a non-negative integer, got {self.seed}")
        # plain ints, as manifest.json lists them
        self.dims = tuple(int(d) for d in self.dims)
        self.lengths = tuple(int(t) for t in self.lengths)
        self.replicates, self.seed = int(self.replicates), int(self.seed)
        repeated = sorted({m for m in self.methods if self.methods.count(m) > 1})
        if repeated:
            raise ValueError(f"method {repeated[0]!r} is listed more than once")
        unlisted = sorted(set(self.lags) - set(self.methods))
        if unlisted:
            raise ValueError(f"lag overrides for methods not in the method list: {unlisted}")
        max_lag = 0
        for m in self.methods:
            method_lags(m)  # an unknown name is not an error of lags.<name>
            try:
                max_lag = max(max_lag, method_lags(m, self.lags.get(m))[-1])
            except ValueError as exc:
                raise ValueError(f"lags.{m}: {exc}") from exc
        self.lags = {m: tuple(v) for m, v in self.lags.items()}  # as manifest.json lists them
        bad = [t for t in self.lengths if t < 2 * (max_lag + 1)]
        if bad:
            raise ValueError(f"series lengths {bad} too short for max lag {max_lag}")


def _parse_lags(text: str) -> tuple:
    """Read a lag set written as a range 'a:b' (a to b inclusive) or a list 'a,b,c'."""
    try:
        if ":" in text:
            lo, hi = text.split(":")
            return tuple(range(int(lo), int(hi) + 1))
        return tuple(int(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise ValueError(f"malformed lag set {text!r}: expected 'a:b' or 'a,b,c' "
                         f"with integer a, b, c") from None


def _parse_ints(key: str, text: str) -> tuple:
    """Read a comma-separated list of integers given for `key`."""
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ValueError(f"{key}: expected comma-separated integers, got {text!r}") from None


def _parse_int(key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{key}: expected an integer, got {text!r}") from None


_SPEC_KEYS = ("setting", "mixing", "dims", "T", "methods", "reps", "seed", "out")


def parse_experiment_spec(path) -> ExperimentSpec:
    """Parse the flat key-value config format.

    One ``key = value`` pair per line; ``#`` starts a comment; lists are
    comma-separated; lag sets accept ``a:b`` ranges.  Keys: setting,
    mixing, dims, T, methods, reps, seed, out, lags.<method>.
    """
    kv, first_line = {}, {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            if key in kv:
                raise ValueError(f"{path}:{lineno}: key {key!r} is already set on line "
                                 f"{first_line[key]}")
            kv[key], first_line[key] = val, lineno
    unknown = [k for k in kv if k not in _SPEC_KEYS and not k.startswith("lags.")]
    if unknown:
        raise ValueError(f"unknown config keys: {unknown}")
    lags = {}
    for key in [k for k in kv if k.startswith("lags.")]:
        try:
            lags[key.removeprefix("lags.")] = _parse_lags(kv.pop(key))
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from exc
    # an optional key left out takes the ExperimentSpec default
    optional = {name: read(key, kv.pop(key)) for key, name, read in (
        ("dims", "dims", _parse_ints), ("reps", "replicates", _parse_int),
        ("seed", "seed", _parse_int), ("out", "out", lambda key, text: text)) if key in kv}
    try:
        return ExperimentSpec(
            setting=kv.pop("setting"),
            mixing=kv.pop("mixing"),
            lengths=_parse_ints("T", kv.pop("T")),
            methods=tuple(m.strip() for m in kv.pop("methods").split(",")),
            lags=lags,
            **optional,
        )
    except KeyError as exc:
        raise ValueError(f"missing required config key {exc.args[0]!r}") from exc


def _replicate_rng(seed: int, t_index: int, rep: int) -> np.random.Generator:
    # documented split rule: one independent stream per (T index, replicate)
    return np.random.default_rng([seed, t_index, rep])


def _run_replicate(spec: ExperimentSpec, task: tuple) -> tuple:
    """One replicate, `task` = (T index, replicate): simulate, mix, fit, score by MDI.

    Returns the manifest's replicate entry (T, the replicate index, the MDI
    or error per method and, under `not_converged`, the sorted methods
    whose diagonalizer stopped at the sweep cap on any mode), per method
    that fitted its `diagnostics["stage_s"]` and its sweeps summed over
    modes, and the seconds spent outside the fits, under `simulate`
    (generate, draw the mixing, mix) and `score` (`mode_mdi`).
    """
    t_index, rep = task
    t = spec.lengths[t_index]
    t0 = time.perf_counter()
    rng = _replicate_rng(spec.seed, t_index, rep)
    zs = gen_latent_setting(spec.setting, t, rng, dims=spec.dims)
    mats = gen_mixing(spec.dims, spec.mixing, rng)
    xs = mix(zs, mats)
    outside = {"simulate": time.perf_counter() - t0, "score": 0.0}
    out, capped, stages = {}, [], {}
    for method in spec.methods:
        try:
            res = unmix(xs, method, lags=spec.lags.get(method))
            t0 = time.perf_counter()
            out[method] = mode_mdi(res.mode_unmixers, mats).value
            outside["score"] += time.perf_counter() - t0
        except Exception as exc:  # record and keep going; excluded from means
            out[method] = {"error": f"{type(exc).__name__}: {exc}"}
            continue
        modes = res.diagnostics["joint_diag"]
        stages[method] = res.diagnostics["stage_s"], sum(d["sweeps_used"] for d in modes)
        if not all(d["converged"] for d in modes):
            capped.append(method)
    entry = {"T": t, "replicate": rep, "mdi": out, "not_converged": sorted(capped)}
    return entry, stages, outside


def run_benchmark(spec: ExperimentSpec, jobs: int = 1, progress=None) -> dict:
    """Run all replicates and return the manifest dictionary.

    Replicates are independent seeded tasks, so results do not depend on
    `jobs` or scheduling order.  `stage_s` holds, per method, the seconds of
    each fit stage (`unmix`'s `diagnostics["stage_s"]`) and the diagonalizer
    sweeps, each summed over the fits that succeeded.  `replicate_s` holds
    the seconds the replicates spent outside the fits, summed: `simulate`
    (generate the latent series, draw the mixing, mix) and `score`
    (`mode_mdi` of each fit that succeeded).
    """
    if jobs < 1:
        raise ValueError(f"jobs: expected an integer >= 1, got {jobs}")
    start = time.time()
    tasks = [(ti, rep) for ti in range(len(spec.lengths)) for rep in range(spec.replicates)]
    replicates = []
    stage_s = {m: {} for m in spec.methods}
    replicate_s = {"simulate": 0.0, "score": 0.0}
    with ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else nullcontext() as pool:
        run = partial(_run_replicate, spec)
        for entry, stages, outside in (pool.map if pool else map)(run, tasks):
            replicates.append(entry)
            for key, value in outside.items():
                replicate_s[key] += value
            for method, (seconds, sweeps) in stages.items():
                for key, value in (*seconds.items(), ("sweeps", sweeps)):
                    stage_s[method][key] = stage_s[method].get(key, 0) + value
            if progress:
                progress(len(replicates), len(tasks))
    aggregates = []
    for ti, t in enumerate(spec.lengths):
        runs = replicates[ti * spec.replicates:(ti + 1) * spec.replicates]
        for method in spec.methods:
            vals = [run["mdi"][method] for run in runs]
            ok = np.array([v for v in vals if isinstance(v, float)])
            n_ok = ok.size
            mean = float(ok.mean()) if n_ok else float("nan")
            se = float(ok.std(ddof=1) / np.sqrt(n_ok)) if n_ok > 1 else float("nan")
            aggregates.append({
                "setting": spec.setting, "mixing": spec.mixing, "method": method,
                "T": t, "mean_mdi": mean, "se_mdi": se, "n_ok": n_ok,
                "n_failed": len(vals) - n_ok,
                "n_not_converged": sum(method in run["not_converged"] for run in runs),
            })
    return {
        "spec": asdict(spec),
        "seed": spec.seed,
        "library_version": __version__,
        "wall_clock_seconds": time.time() - start,
        "stage_s": stage_s,
        "replicate_s": replicate_s,
        "replicates": replicates,
        "aggregates": aggregates,
    }


def summary_csv(manifest: dict) -> str:
    """Render the aggregate table (fixed header and column order)."""
    lines = [SUMMARY_HEADER]
    for row in manifest["aggregates"]:
        lines.append(
            f"{row['setting']},{row['mixing']},{row['method']},{row['T']},"
            f"{row['mean_mdi']:.12g},{row['se_mdi']:.12g},{row['n_ok']}"
        )
    return "\n".join(lines) + "\n"


def write_manifest(manifest: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")
