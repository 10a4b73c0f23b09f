"""Golden science rows: a fixed panel of drops, re-run and compared column by
column with ``golden_rows.csv``.

The file holds the results-CSV columns without ``wall_ms``, floats written
in full (``repr``).  Rewrite it only with a stated change of the science,
by running this module from the repository root:

    PYTHONPATH=src python tests/test_golden.py

which keeps each committed value that the rerun matches within its
tolerance (``RTOL``, ``EXTRAPOLATED_RTOL`` or ``EXACT_SPLIT_ATOL``) and writes
only the values that moved past it, and the rows that are new.
"""

import csv
import math
from collections import Counter
from pathlib import Path

from trihybrid import harness as hn

GOLDEN = Path(__file__).with_name("golden_rows.csv")
COLUMNS = [c for c in hn.CSV_HEADER.split(",") if c != "wall_ms"]

# Seeds 1..3 of each group (seed 1 alone where trials=1), mode all, on the
# stand-in candidate set; the rows are in group order, each group's as
# run_trials orders them.
PANEL = (
    dict(field_mode="far", pmax_dbm=(0.0, 30.0)),
    dict(field_mode="near", pmax_dbm=(0.0, 30.0)),
    dict(n_users=3, n_rf=4, pmax_dbm=(30.0,)),  # N_RF < 2K: the ALS regime
    dict(truncation=10, pmax_dbm=(0.0,)),  # T = 121
    # the large-K drop: 8x8 array, K = 8, N_RF = 16, T = 121
    dict(n_h=8, n_v=8, n_users=8, n_rf=16, truncation=10, trials=1, pmax_dbm=(0.0, 30.0)),
)
PARSE = {"seed": int, "mode": str, "iterations": int}
RTOL = {"sum_rate": 1e-9, "projected_sum_rate": 1e-9, "decomp_residual": 5e-2}
# A rate that ends a fixed-channel solve (a hybrid row's sum_rate, a
# projected row's refit rate) comes out of SQUAREM extrapolation, which in
# the slow tail divides by a small second difference and so amplifies
# rounding-level changes of the input, such as another numpy's summation
# order: permuting the users of the same drops moved such a rate by up to
# 1.6e-6, against 8.6e-15 for the plain loop.  Those values compare within
# the solver's stopping tolerance, 1e-5, the relative rate change it
# treats as settled.  trihybrid rows keep RTOL, though their pattern solves
# extrapolate too: a capped pattern solve is not invariant under such
# changes (the user permutation moved one by 4.3e-3, and a rounding-level
# change of the extrapolation's null-space part moved the large-K drop's
# 30 dBm row by 2.9e-5), so a numpy that rounds differently may move a
# capped trihybrid row past RTOL until the pattern solve converges
# (ROADMAP item 20, step 2).
EXTRAPOLATED_RTOL = 1e-5
# With N_RF >= 2K the decomposition is the exact closed-form split, and its
# residual is rounding plus the final budget scaling: update_fd may leave
# F_D up to MULTIPLIER_TOL = 1e-10 over p_max, so the scaled pair misses F_D
# by about 5e-11 sqrt(p_max).  Such a row's decomp_residual compares to this
# absolute bound times sqrt(p_max), not relative: the two values are both
# rounding-level, and a relative tolerance on them would flake under another
# numpy.  The K = 3, N_RF = 4 group runs alternating least squares and keeps
# RTOL.
EXACT_SPLIT_ATOL = 1e-9


def panel_configs() -> list[hn.RunConfig]:
    return [hn.RunConfig(**{"mode": "all", "trials": 3, "seed": 1, **group}) for group in PANEL]


def panel_rows() -> list[hn.TrialRecord]:
    return [row for config in panel_configs() for row in hn.run_trials(config)]


def panel_exact_split() -> list[bool]:
    """Per panel row, whether its decomposition is the exact split (N_RF >= 2K)."""
    return [
        config.n_rf >= 2 * config.n_users
        for config in panel_configs()
        for _ in range(config.trials * len(config.pmax_dbm) * len(config.modes()))
    ]


def _cell(value) -> str:
    """A float in full, so the compare sees every bit; None as empty."""
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


def write_golden(path=GOLDEN, rows=None, exact=None) -> tuple[Counter, int]:
    """Write ``rows`` (dicts by column; the panel's when None) to ``path``,
    each value in place of the committed one at its row and column unless
    that one matches it within its tolerance, so rounding noise leaves the
    file as it was.  ``exact`` flags the rows whose decomposition is the
    exact split (the panel's when ``rows`` is None; none otherwise).

    Returns how many rows moved past their tolerance in each column, and
    how many rows are new."""
    if rows is None:
        records = panel_rows()
        failed = [row for row in records if row.error is not None]
        if failed:
            raise RuntimeError(f"{len(failed)} panel row(s) failed: {failed[0].error}")
        rows = [{column: getattr(row, column) for column in COLUMNS} for row in records]
        exact = panel_exact_split()
    exact = exact or [False] * len(rows)
    golden = read_golden(path) if path.exists() else []
    moved = Counter()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(COLUMNS)
        for i, row in enumerate(rows):
            if i < len(golden):
                past = [c for c in COLUMNS
                        if not _matches(c, row[c], golden[i], exact[i])]
                moved.update(past)
                row = {c: row[c] if c in past else golden[i][c] for c in COLUMNS}
            out.writerow(_cell(row[column]) for column in COLUMNS)
    return moved, max(0, len(rows) - len(golden))


def read_golden(path=GOLDEN) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == COLUMNS
        return [
            {c: PARSE.get(c, float)(v) if v else None for c, v in row.items()}
            for row in reader
        ]


def _exact_split_bound(golden_row) -> float:
    return EXACT_SPLIT_ATOL * math.sqrt(hn.dbm_to_watts(golden_row["pmax_dbm"]))


def _matches(column, got, golden_row, exact) -> bool:
    """Whether ``got`` matches the golden row's value of ``column``."""
    want, mode = golden_row[column], golden_row["mode"]
    if column not in RTOL or got is None or want is None:
        return got == want
    if column == "decomp_residual" and exact:
        return abs(got - want) <= _exact_split_bound(golden_row)
    extrapolated = column == "projected_sum_rate" or (column, mode) == ("sum_rate", "hybrid")
    rtol = EXTRAPOLATED_RTOL if extrapolated else RTOL[column]
    return math.isclose(got, want, rel_tol=rtol, abs_tol=0.0)


def test_panel_matches_golden_rows():
    golden = read_golden()
    rows = panel_rows()
    exact = panel_exact_split()
    assert len(golden) == len(rows) == len(exact) == 60
    assert sum(exact) == 51  # all but the K = 3, N_RF = 4 group's 9 rows
    assert [row.error for row in rows] == [None] * len(rows)
    moved = {}
    for column in COLUMNS:
        bad = [(i, getattr(row, column), want[column])
               for i, (row, want) in enumerate(zip(rows, golden))
               if not _matches(column, getattr(row, column), want, exact[i])]
        if bad:
            moved[column] = f"{len(bad)} row(s), first (row, got, golden) {bad[0]}"
    assert not moved, f"science columns moved: {moved}"
    assert all(row.decomp_residual <= _exact_split_bound(want)
               for row, want, flag in zip(rows, golden, exact) if flag)


def test_rewrite_keeps_rows_within_tolerance(tmp_path):
    # the rewrite once wrote every row, so last-digit noise of a rerun
    # moved rows that the compare above accepts
    path = tmp_path / "golden.csv"
    row = dict.fromkeys(COLUMNS) | {
        "seed": 1, "mode": "trihybrid", "pmax_dbm": 0.0, "sum_rate": 2.0,
        "iterations": 7, "decomp_residual": 0.25,
    }
    assert write_golden(path, [row, row | {"seed": 2}]) == ({}, 2)
    committed = path.read_text(encoding="utf-8")
    noise = row | {"sum_rate": 2.0 * (1 + 1e-12), "decomp_residual": 0.26}
    assert write_golden(path, [noise, row | {"seed": 2}]) == ({}, 0)
    assert path.read_text(encoding="utf-8") == committed
    # a moved value is written alone, the noise in its row's other values not
    moved = {"sum_rate": 2.0 * (1 + 1e-8)}
    rows = [noise | moved, noise | {"seed": 2, "decomp_residual": 0.5}, row | {"seed": 3}]
    assert write_golden(path, rows) == ({"sum_rate": 1, "decomp_residual": 1}, 1)
    assert read_golden(path) == [
        row | moved, row | {"seed": 2, "decomp_residual": 0.5}, row | {"seed": 3}
    ]
    # an exact-split row's residual compares to 1e-9 sqrt(p_max) absolute
    path = tmp_path / "exact.csv"
    tiny = row | {"decomp_residual": 2e-17}
    assert write_golden(path, [tiny], exact=[True]) == ({}, 1)
    assert write_golden(path, [tiny | {"decomp_residual": 3e-17}], exact=[True]) == ({}, 0)
    assert write_golden(path, [tiny | {"decomp_residual": 4e-11}], exact=[True]) == (
        {"decomp_residual": 1}, 0
    )
    assert write_golden(path, [tiny], exact=[False]) == ({"decomp_residual": 1}, 0)


if __name__ == "__main__":
    moved, new = write_golden()
    print(f"wrote {GOLDEN}: rows moved past tolerance per column {dict(moved)}, {new} new")
