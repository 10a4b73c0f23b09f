"""Golden science rows: a fixed panel of drops, re-run and compared column by
column with ``golden_rows.csv``.

The file holds the results-CSV columns without ``wall_ms``, floats written
in full (``repr``).  Rewrite it only with a stated change of the science,
by running this module from the repository root:

    PYTHONPATH=src python tests/test_golden.py

which keeps each committed row that the rerun matches within ``RTOL`` and
writes only the rows that moved past it, or are new.
"""

import csv
import math
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


def panel_rows() -> list[hn.TrialRecord]:
    rows = []
    for group in PANEL:
        rows += hn.run_trials(hn.RunConfig(**{"mode": "all", "trials": 3, "seed": 1, **group}))
    return rows


def _cell(value) -> str:
    """A float in full, so the compare sees every bit; None as empty."""
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


def write_golden(path=GOLDEN, rows=None) -> None:
    """Write ``rows`` (dicts by column; the panel's when None) to ``path``,
    each in place of the committed row at its index unless that one
    matches it within RTOL, so rounding noise leaves the file as it was."""
    if rows is None:
        records = panel_rows()
        failed = [row for row in records if row.error is not None]
        if failed:
            raise RuntimeError(f"{len(failed)} panel row(s) failed: {failed[0].error}")
        rows = [{column: getattr(row, column) for column in COLUMNS} for row in records]
    golden = read_golden(path) if path.exists() else []
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(COLUMNS)
        for i, row in enumerate(rows):
            if i < len(golden) and all(_matches(c, row[c], golden[i][c]) for c in COLUMNS):
                row = golden[i]
            out.writerow(_cell(row[column]) for column in COLUMNS)


def read_golden(path=GOLDEN) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == COLUMNS
        return [
            {c: PARSE.get(c, float)(v) if v else None for c, v in row.items()}
            for row in reader
        ]


def _matches(column, got, want) -> bool:
    if column not in RTOL or got is None or want is None:
        return got == want
    return math.isclose(got, want, rel_tol=RTOL[column], abs_tol=0.0)


def test_panel_matches_golden_rows():
    golden = read_golden()
    rows = panel_rows()
    assert len(golden) == len(rows) == 60
    assert [row.error for row in rows] == [None] * len(rows)
    moved = {}
    for column in COLUMNS:
        pairs = [(getattr(row, column), want[column]) for row, want in zip(rows, golden)]
        bad = [(i, got, want) for i, (got, want) in enumerate(pairs)
               if not _matches(column, got, want)]
        if bad:
            moved[column] = f"{len(bad)} row(s), first (row, got, golden) {bad[0]}"
    assert not moved, f"science columns moved: {moved}"


def test_rewrite_keeps_rows_within_tolerance(tmp_path):
    # the rewrite once wrote every row, so last-digit noise of a rerun
    # moved rows that the compare above accepts
    path = tmp_path / "golden.csv"
    row = dict.fromkeys(COLUMNS) | {
        "seed": 1, "mode": "trihybrid", "pmax_dbm": 0.0, "sum_rate": 2.0,
        "iterations": 7, "decomp_residual": 0.25,
    }
    write_golden(path, [row, row | {"seed": 2}])
    committed = path.read_text(encoding="utf-8")
    noise = row | {"sum_rate": 2.0 * (1 + 1e-12), "decomp_residual": 0.26}
    write_golden(path, [noise, row | {"seed": 2}])
    assert path.read_text(encoding="utf-8") == committed
    moved = row | {"sum_rate": 2.0 * (1 + 1e-8)}
    write_golden(path, [moved, noise | {"seed": 2}, row | {"seed": 3}])
    assert read_golden(path) == [moved, row | {"seed": 2}, row | {"seed": 3}]


if __name__ == "__main__":
    write_golden()
    print(f"wrote {GOLDEN}")
