#!/usr/bin/env python3
"""Per-layer deltas between two sets of traced benchmark results.

    python3 bench/compare.py OLD NEW

OLD and NEW are traced result files (``bench/out/*-trace1.json``, written by
``bench/run.py --trace 1``) or directories holding them, typically one per
commit.  For each workload present on both sides, every per-layer metric is
printed as the median over that side's runs, with the absolute and relative
change.  A time that moved by more than ``MARGIN`` of its old value, and a
counter that changed, are flagged together with the end-to-end metrics that
``predictions.json`` says they should move, so a perf change can show where
its saving (or cost) appears.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
MARGIN = 0.1  # relative change of a time that is flagged


def load(path: Path) -> dict:
    """Traced results under ``path``, grouped by workload."""
    files = sorted(path.glob("*-trace1.json")) if path.is_dir() else [path]
    if not files:
        raise SystemExit(f"{path}: no traced results")
    grouped: dict = {}
    for file in files:
        with open(file, encoding="utf-8") as fh:
            result = json.load(fh)
        if not result.get("trace") or "per_layer" not in result:
            raise SystemExit(f"{file}: not a traced result")
        grouped.setdefault(result["workload"], []).append(result)
    return grouped


def median_of(results, key):
    return statistics.median(r["per_layer"][key] for r in results)


def describe(machine: dict) -> str:
    return (f"{machine['nproc']} cpus, python {machine['python']}, numpy {machine['numpy']}, "
            f"{machine['blas']}, blas threads {machine['blas_threads']}")


def compare(old: dict, new: dict, predictions: dict) -> list[str]:
    lines = []
    for workload in sorted(set(old) & set(new)):
        a, b = old[workload], new[workload]
        lines.append(f"{workload}: {len(a)} old run(s), {len(b)} new run(s)")
        lines.append(f"  old machine: {describe(a[0]['machine'])}")
        lines.append(f"  new machine: {describe(b[0]['machine'])}")
        lines.append(
            f"  untraced batch_s: {statistics.median(r['end_to_end']['batch_s'] for r in a):.4f}"
            f" -> {statistics.median(r['end_to_end']['batch_s'] for r in b):.4f} s"
        )
        lines.append(f"  {'metric':<34} {'old':>12} {'new':>12} {'delta':>12} {'rel':>8}")
        for name in a[0]["per_layer"]:
            if name not in b[0]["per_layer"]:
                lines.append(f"  {name:<34} missing from the new results")
                continue
            x, y = median_of(a, name), median_of(b, name)
            rel = f"{(y - x) / x:+8.1%}" if x else "       -"
            flag = ""
            if name.endswith((".s", "_s")):
                if abs(y - x) > MARGIN * abs(x):
                    flag = "SLOWER" if y > x else "faster"
            elif x != y:
                flag = "changed"
            pred = predictions.get(name, {})
            note = ""
            if flag and pred.get("moves"):
                where = "" if workload in pred.get("on", []) else "not "
                note = f"  moves {', '.join(pred['moves'])} ({where}predicted here)"
            lines.append(f"  {name:<34} {x:12.6g} {y:12.6g} {y - x:+12.4g} {rel} {flag}{note}")
    for workload in sorted(set(old) ^ set(new)):
        lines.append(f"{workload}: only on one side, not compared")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old", type=Path)
    ap.add_argument("new", type=Path)
    args = ap.parse_args(argv)
    with open(BENCH_DIR / "predictions.json", encoding="utf-8") as fh:
        predictions = json.load(fh)["predictions"]
    print("\n".join(compare(load(args.old), load(args.new), predictions)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
