"""The comparison rules of tools/fit_pairs.py, on synthetic fits and criterion-7 cells
(no git, no perfbench, no benchmark run)."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from fit_pairs import ROOT, compare, main, verdicts  # noqa: E402


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


def means(**replaced):
    """Criterion-7 means under which 7a-7c hold, but for `replaced` ("<setting>_<method>")."""
    out = {}
    for s in ("arma", "sv"):
        for v in ("sobi", "gfobi", "gjade", "fobi", "jade"):
            out[f"{s}/{v}"], out[f"{s}/t{v}"] = 0.2, 0.1
    out["arma/tsobi"] = 0.05
    return {**out, **{key.replace("_", "/"): m for key, m in replaced.items()}}


def test_verdicts_on_synthetic_means():
    assert verdicts(means()) == {"7a": True, "7b": True, "7c": True}
    # tgjade still beats gjade (7c) but no longer ties or beats tsobi
    assert verdicts(means(sv_tgjade=0.15)) == {"7a": True, "7b": False, "7c": True}


def cell(n_ok=2):
    """One criterion-7 cell as fit_pairs.criterion7 records it; replicate 1 failed."""
    mdi = np.array([0.1, np.nan, 0.3])
    return {("criterion7", "sv/tgjade"): {
        "mdi": [mdi], "mean": [np.array(np.nanmean(mdi))], "n_ok": [np.array(n_ok)],
        "n_not_converged": [np.array(1)]}}


def test_failed_replicate_on_both_sides_compares_equal():
    rows, moved, code = compare(cell(), cell())
    assert code == 0
    assert len(rows) == 4
    assert all(row["max_abs_at"] is None for row in rows)


def test_count_change_gives_a_row_and_exit_one():
    rows, moved, code = compare(cell(), cell(n_ok=3))
    assert code == 1
    assert moved == []
    (row,) = [row for row in rows if row["max_abs_at"] is not None]
    assert (row["kind"], row["field"], row["max_abs"]) == ("criterion7", "n_ok", 1.0)
    assert row["max_abs_at"] == "sv/tgjade n_ok[0]"


def test_existing_record_is_not_overwritten(capsys):
    path = ROOT / "BENCH_mode_mdi.json"
    before = path.read_bytes()
    with pytest.raises(SystemExit) as exc:
        main(["HEAD", "HEAD", "--label", "mode_mdi"])
    assert exc.value.code == 2
    assert "BENCH_mode_mdi.json exists" in capsys.readouterr().err
    assert path.read_bytes() == before
