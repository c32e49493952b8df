"""The benchmark workloads: arma-mc, sv-mc and frames-cli.

A workload is built from its seed, set up three times (`setup_s` takes
the median), and then runs operations closed-loop, back to back.  Each
operation returns what the independent checks need; `check` runs after
the operation's timer has stopped.
"""

from __future__ import annotations

import contextlib
import io
import os
from time import perf_counter

import numpy as np
from scipy.signal import lfilter

from tensorbss import bss, cli, metrics, simgen, tensor

import checks

ALL_METHODS = tuple(bss.METHOD_NAMES)
TENSOR_METHODS = tuple(m for m, (_, tensor_path, _) in bss.METHOD_NAMES.items() if tensor_path)
# Orthogonal mixing: with gaussian mixing some replicates' vectorized frames
# are too ill-conditioned for the vector path's whitening (see README.md).
MIXING = "haar"


class FitFailed(Exception):
    """A fit raised or a CLI call returned a non-zero code; the operation failed."""


def warm_up(rng):
    """Fit every method once on a small 2x2 series, so first-call costs fall in set-up."""
    xs = lfilter([1.0], [1.0, -0.5], rng.standard_normal((300, 2, 2)) ** 3, axis=0)
    for method in ALL_METHODS:
        bss.unmix(xs, method)


class MonteCarlo:
    """One operation is one replicate of a paper setting.

    Replicate `rep` uses the documented split rule `default_rng([seed, 0,
    rep])` and the same call order as `tensorbss bench`: simulate, draw a
    mixing, mix, fit all ten methods, score each by MDI.
    """

    def __init__(self, setting, t, seed, dims=(3, 2, 2)):
        self.setting, self.t, self.seed, self.dims = setting, t, seed, dims

    def setup(self, workdir):
        warm_up(np.random.default_rng([self.seed, 1]))

    def operation(self, rep):
        rng = np.random.default_rng([self.seed, 0, rep])
        zs = simgen.gen_latent_setting(self.setting, self.t, rng, dims=self.dims)
        mats = simgen.gen_mixing(self.dims, MIXING, rng)
        xs = simgen.mix(zs, mats)
        omega = metrics.kron_unmixing(mats)
        fits, fit_s, mdi = {}, {}, {}
        for method in ALL_METHODS:
            t0 = perf_counter()
            try:
                fits[method] = bss.unmix(xs, method)
            except Exception as exc:
                raise FitFailed(f"{method}: {type(exc).__name__}: {exc}") from exc
            fit_s[method] = perf_counter() - t0
            mdi[method] = metrics.mdi(metrics.kron_unmixing(fits[method].mode_unmixers),
                                      omega).value
        return {"xs": xs, "fits": fits, "fit_s": fit_s, "mdi": mdi}

    def check(self, out):
        problems = []
        for method, res in out["fits"].items():
            found = checks.fit_problems(out["xs"], res.mode_unmixers, res.recovered,
                                        res.rotations)
            found += checks.mdi_problems(out["mdi"][method])
            problems += [f"{method}: {p}" for p in found]
        return problems


def gen_frames(dims, t, rng, burn_in=200):
    """A latent tensor series whose cells all differ, mixed by one matrix per mode.

    Cell (i_1, ..., i_r) is an AR(1) series with coefficient phi driven by
    sign(g)|g|^q innovations, g standard normal.  Both phi and q fall
    linearly with the index sum, so every mode's slice averages of the
    autocorrelations and of the (negative) excess kurtosis are strictly
    monotone in the slice index: each tensor method is identified on
    every mode.  Mixing entries are standard normal, redrawn while a
    matrix has condition number above 1e3.
    """
    steps = sum(p - 1 for p in dims)
    level = sum(np.meshgrid(*[np.arange(p) for p in dims], indexing="ij")) / steps
    phi = 0.6 * (1.0 - level)  # 0.6 .. 0
    q = 0.9 - 0.55 * level  # 0.9 .. 0.35, excess kurtosis -0.37 .. -1.69
    g = rng.standard_normal((t + burn_in,) + tuple(dims))
    innov = np.sign(g) * np.abs(g) ** q
    zs = np.empty_like(innov)
    for idx in np.ndindex(*dims):
        cell = (slice(None),) + idx
        zs[cell] = lfilter([1.0], [1.0, -phi[idx]], innov[cell])
    zs = zs[burn_in:]
    zs = (zs - zs.mean(axis=0)) / zs.std(axis=0)
    mats = []
    for p in dims:
        a = rng.standard_normal((p, p))
        while np.linalg.cond(a) > 1e3:
            a = rng.standard_normal((p, p))
        mats.append(a)
    xs = zs
    for ax, a in enumerate(mats, start=1):
        xs = np.moveaxis(np.tensordot(a, xs, axes=(1, ax)), 0, ax)
    return np.ascontiguousarray(xs), mats


def _cli(*argv):
    """Run one tensorbss subcommand in process; returns its standard output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    if code != 0:
        raise FitFailed(f"tensorbss {argv[0]} exited with code {code}")
    return buf.getvalue()


def read_matrix_blocks(path):
    """Parse a matrix file (`matrices=r`, then a header line and rows per block)."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    mats, pos = [], 1
    for _ in range(int(lines[0].removeprefix("matrices="))):
        rows = int(lines[pos].split()[1].removeprefix("rows="))
        mats.append(np.array([[float(v) for v in ln.split()]
                              for ln in lines[pos + 1:pos + 1 + rows]]))
        pos += 1 + rows
    return mats


class FramesCli:
    """One operation runs `tensorbss unmix`, `evaluate --mixing` and `rank`
    in process for each of the five tensor methods on a wide-frame series
    file written at set-up."""

    def __init__(self, dims, t, seed):
        self.dims, self.t, self.seed = dims, t, seed

    def setup(self, workdir):
        self.workdir = workdir
        self.series = os.path.join(workdir, "X.ts")
        self.mixing = os.path.join(workdir, "mixing.txt")
        self.xs, mats = gen_frames(self.dims, self.t, np.random.default_rng([self.seed, 2]))
        tensor.write_series(self.series, self.xs)
        cli.write_matrices(self.mixing, mats)
        warm_up(np.random.default_rng([self.seed, 1]))

    def operation(self, rep):
        fit_s, mdi, ranks = {}, {}, {}
        for method in TENSOR_METHODS:
            out = os.path.join(self.workdir, method)
            t0 = perf_counter()
            _cli("unmix", "--in", self.series, "--method", method, "--out", out)
            fit_s[method] = perf_counter() - t0
            text = _cli("evaluate", "--unmixers", os.path.join(out, "unmixers.txt"),
                        "--mixing", self.mixing)
            mdi[method] = float(text.split()[0].removeprefix("mdi="))
            ranks[method] = _cli("rank", "--in", os.path.join(out, "recovered.ts"))
        return {"fit_s": fit_s, "mdi": mdi, "ranks": ranks}

    def check(self, out):
        problems = []
        for method in TENSOR_METHODS:
            fitdir = os.path.join(self.workdir, method)
            gammas = read_matrix_blocks(os.path.join(fitdir, "unmixers.txt"))
            recovered = np.loadtxt(os.path.join(fitdir, "recovered.ts"), skiprows=1, ndmin=2)
            found = checks.fit_problems(self.xs, gammas, recovered)
            found += checks.mdi_problems(out["mdi"][method])
            found += checks.rank_problems(out["ranks"][method], recovered, self.dims)
            problems += [f"{method}: {p}" for p in found]
        return problems


# paper sizes; the tests build the same workloads smaller
WORKLOADS = {
    "arma-mc": lambda seed: MonteCarlo("arma", 2000, seed),
    "sv-mc": lambda seed: MonteCarlo("sv", 8000, seed),
    "frames-cli": lambda seed: FramesCli((10, 8, 3), 2000, seed),
}

# over a run, the paper's headline ordering: mean MDI of the first below the second
ORDERINGS = {"arma-mc": ("tsobi", "sobi"), "sv-mc": ("tgjade", "gjade")}
