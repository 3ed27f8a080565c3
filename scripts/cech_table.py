#!/usr/bin/env python3
"""Print a table of dim H^i(P^n, O(d)) for a range of twists.

All ranks are computed exactly over Q from the alternating Cech complex of
the standard chart cover, decomposed by multidegree sign pattern: one
pattern per number r of negative charts, weighted by C(n + 1, r).

Usage:
    python3 scripts/cech_table.py [--n N] [--dmin D] [--dmax D]
"""

import argparse

from noether.cech import TwistData, twisted_cohomology_dims


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=2)
    parser.add_argument("--dmin", type=int, default=-8)
    parser.add_argument("--dmax", type=int, default=5)
    args = parser.parse_args()

    header = ["d"] + [f"h^{i}" for i in range(args.n + 1)] + ["euler"]
    print(" ".join(f"{h:>6}" for h in header))
    for d in range(args.dmin, args.dmax + 1):
        dims = twisted_cohomology_dims(TwistData(args.n, d))
        euler = sum((-1) ** i * dims[i] for i in range(args.n + 1))
        row = [d] + [dims[i] for i in range(args.n + 1)] + [euler]
        print(" ".join(f"{v:>6}" for v in row))


if __name__ == "__main__":
    main()
