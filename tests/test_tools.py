"""The comparison rule of tools/fit_pairs.py, on synthetic fits (no git, no perfbench)."""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from fit_pairs import compare  # noqa: E402


def side(objective=1.5, sweeps=95, shape=(4, 3)):
    """One data input and one vector fit, as fit_record and draw record them."""
    rng = np.random.default_rng(0)
    return {
        ("data", "arma/301/1"): {"latent": [rng.standard_normal(shape)],
                                 "mixing": [np.eye(3), np.eye(2)]},
        ("vector", "arma/301/1/gfobi"): {
            "mode_unmixers": [np.arange(9.0).reshape(3, 3)], "rotations": [np.eye(3)],
            "recovered": [np.ones((4, 3))], "mean": [np.zeros(3)],
            "objective": [np.array(objective)], "mdi": [np.array(0.25)],
            "modes": [(sweeps, True)]},
    }


def test_identical_fits_exit_zero():
    rows, moved, code = compare(side(), side())
    assert code == 0
    assert moved == []
    assert len(rows) == 8
    assert all(row["max_abs_at"] is None and row["max_abs"] == 0.0 for row in rows)


def test_objective_and_sweep_changes_land_in_their_own_rows():
    rows, moved, code = compare(side(), side(objective=1.5 * (1 + 2**-40), sweeps=97))
    assert code == 1
    assert moved == ["arma/301/1/gfobi mode 1: sweeps 95 -> 97, converged True -> True"]
    changed = [row for row in rows if row["max_abs_at"] is not None]
    assert [(row["kind"], row["field"]) for row in changed] == [("vector", "objective")]
    assert changed[0]["max_abs_at"] == "arma/301/1/gfobi objective[0]"
    assert changed[0]["max_rel"] == 2**-40


def test_shape_change_reads_inf():
    rows, moved, code = compare(side(), side(shape=(5, 3)))
    assert code == 1
    assert moved == []
    (row,) = [row for row in rows if row["max_abs_at"] is not None]
    assert (row["kind"], row["field"]) == ("data", "latent")
    assert row["max_abs_at"] == "arma/301/1 latent[0]"
    assert row["max_abs"] == row["max_rel"] == float("inf")
