#!/usr/bin/env python3
"""Generate a synthetic candidate-pattern file in the loader's JSON schema.

The set holds steered cosine-power lobes on quasi-uniform directions, each
normalized to the 4*pi gain-power budget; swap in measured hardware patterns
by writing the same schema.  Each gain is written as one block,
{"shape": [n_theta, n_phi], "base64": <little-endian float64 samples>}; the
loader reads that and the hand-writable nested-list form alike.

    python scripts/make_patterns.py --count 64 --out patterns.json
"""

import argparse

from trihybrid.projection import save_candidates, steered_candidate_set


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=64)
    ap.add_argument("--exponent", type=float, default=2.0)
    ap.add_argument("--n-theta", type=int, default=61)
    ap.add_argument("--n-phi", type=int, default=121)
    ap.add_argument("--out", default="patterns.json")
    args = ap.parse_args()

    cset = steered_candidate_set(
        count=args.count,
        exponent=args.exponent,
        n_theta=args.n_theta,
        n_phi=args.n_phi,
    )
    save_candidates(cset, args.out)
    print(f"wrote {len(cset)} patterns to {args.out}")


if __name__ == "__main__":
    main()
