"""Seeded Monte-Carlo benchmark harness comparing the ten methods by mean MDI."""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, asdict

import numpy as np

from . import __version__
from .bss import method_lags, unmix
from .metrics import kron_unmixing, mdi
from .simgen import SETTINGS, gen_latent_setting, gen_mixing, mix

__all__ = ["ExperimentSpec", "parse_experiment_spec", "run_benchmark", "SUMMARY_HEADER"]

SUMMARY_HEADER = "setting,mixing,method,T,mean_mdi,se_mdi,n_ok"


@dataclass
class ExperimentSpec:
    """One benchmark configuration: setting x mixing x T-grid x methods."""

    setting: str
    mixing: str
    dims: tuple = (3, 2, 2)
    lengths: tuple = (1000,)
    methods: tuple = ("tsobi",)
    lags: dict = field(default_factory=dict)  # method name -> lag tuple override
    replicates: int = 1
    seed: int = 0
    out: str = "bench_out"

    def __post_init__(self):
        if self.setting not in SETTINGS:
            raise ValueError(f"unknown setting {self.setting!r}")
        if self.mixing not in ("gaussian", "haar"):
            raise ValueError(f"unknown mixing {self.mixing!r}")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed: expected a non-negative integer, got {self.seed}")
        if any(d < 1 for d in self.dims):
            raise ValueError(f"dims: expected sizes >= 1, got {tuple(self.dims)}")
        repeated = sorted({m for m in self.methods if self.methods.count(m) > 1})
        if repeated:
            raise ValueError(f"method {repeated[0]!r} is listed more than once")
        unlisted = sorted(set(self.lags) - set(self.methods))
        if unlisted:
            raise ValueError(f"lag overrides for methods not in the method list: {unlisted}")
        cells = int(np.prod(self.dims))
        models = len(SETTINGS[self.setting]())
        if cells != models:
            raise ValueError(f"dims {tuple(self.dims)} hold {cells} cells, "
                             f"setting {self.setting!r} defines {models} component models")
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
    lags = {}
    for key in [k for k in kv if k.startswith("lags.")]:
        try:
            lags[key.removeprefix("lags.")] = _parse_lags(kv.pop(key))
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from exc
    try:
        spec = ExperimentSpec(
            setting=kv.pop("setting"),
            mixing=kv.pop("mixing"),
            dims=_parse_ints("dims", kv.pop("dims", "3,2,2")),
            lengths=_parse_ints("T", kv.pop("T")),
            methods=tuple(m.strip() for m in kv.pop("methods").split(",")),
            lags=lags,
            replicates=_parse_int("reps", kv.pop("reps", "1")),
            seed=_parse_int("seed", kv.pop("seed", "0")),
            out=kv.pop("out", "bench_out"),
        )
    except KeyError as exc:
        raise ValueError(f"missing required config key {exc.args[0]!r}") from exc
    if kv:
        raise ValueError(f"unknown config keys: {list(kv)}")
    return spec


def _replicate_rng(seed: int, t_index: int, rep: int) -> np.random.Generator:
    # documented split rule: one independent stream per (T index, replicate)
    return np.random.default_rng([seed, t_index, rep])


def _run_replicate(spec: ExperimentSpec, t_index: int, rep: int) -> tuple[dict, list]:
    """One replicate: simulate, mix, run every method, score by MDI.

    Returns the MDI (or error) per method and the sorted methods whose
    diagonalizer stopped at the sweep cap on any mode.
    """
    t = spec.lengths[t_index]
    rng = _replicate_rng(spec.seed, t_index, rep)
    zs = gen_latent_setting(spec.setting, t, rng, dims=spec.dims)
    mats = gen_mixing(spec.dims, spec.mixing, rng)
    xs = mix(zs, mats)
    omega = kron_unmixing(mats)
    out, capped = {}, []
    for method in spec.methods:
        try:
            res = unmix(xs, method, lags=spec.lags.get(method))
            gamma = kron_unmixing(res.mode_unmixers)
            out[method] = mdi(gamma, omega).value
        except Exception as exc:  # record and keep going; excluded from means
            out[method] = {"error": f"{type(exc).__name__}: {exc}"}
            continue
        if not all(d["converged"] for d in res.diagnostics["joint_diag"]):
            capped.append(method)
    return out, sorted(capped)


def run_benchmark(spec: ExperimentSpec, jobs: int = 1, progress=None) -> dict:
    """Run all replicates and return the manifest dictionary.

    Replicates are independent seeded tasks, so results do not depend on
    `jobs` or scheduling order.
    """
    if jobs < 1:
        raise ValueError(f"jobs: expected an integer >= 1, got {jobs}")
    start = time.time()
    tasks = [(ti, rep) for ti in range(len(spec.lengths))
             for rep in range(spec.replicates)]
    args = ([spec] * len(tasks), [ti for ti, _ in tasks], [rep for _, rep in tasks])
    raw = []
    with ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else nullcontext() as pool:
        for result in (pool.map if pool else map)(_run_replicate, *args):
            raw.append(result)
            if progress:
                progress(len(raw), len(tasks))
    replicate_results = [
        {"T": spec.lengths[ti], "replicate": rep, "mdi": raw[k][0], "not_converged": raw[k][1]}
        for k, (ti, rep) in enumerate(tasks)
    ]
    aggregates = []
    for ti, t in enumerate(spec.lengths):
        for method in spec.methods:
            runs = [raw[k] for k, (tj, _) in enumerate(tasks) if tj == ti]
            vals = [mdis[method] for mdis, _ in runs]
            ok = np.array([v for v in vals if isinstance(v, float)])
            n_ok = ok.size
            mean = float(ok.mean()) if n_ok else float("nan")
            se = float(ok.std(ddof=1) / np.sqrt(n_ok)) if n_ok > 1 else float("nan")
            aggregates.append({
                "setting": spec.setting, "mixing": spec.mixing, "method": method,
                "T": t, "mean_mdi": mean, "se_mdi": se, "n_ok": n_ok,
                "n_failed": len(vals) - n_ok,
                "n_not_converged": sum(method in capped for _, capped in runs),
            })
    return {
        "spec": asdict(spec),
        "seed": spec.seed,
        "library_version": __version__,
        "wall_clock_seconds": time.time() - start,
        "replicates": replicate_results,
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
