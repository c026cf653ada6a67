#!/usr/bin/env python3
"""Sweep the truncation-error bounds over a (t, q) grid for a model family.

Writes one CSV row per grid point with both the single-window and the
chained bound, plus the derived interval count, so the crossover between
the two regimes can be plotted directly.

Usage:
    python scripts/bound_sweep.py --n-sites 8 --out bounds.csv
"""

from __future__ import annotations

import argparse
import csv
import math
import sys

from klocal.bounds import BoundParams, main_rhs, q_schedule, small_time_rhs
from klocal.errors import DomainError, InfeasibleScheduleError
from klocal.models import build_model


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-sites", type=int, default=8)
    parser.add_argument("--coupling", type=float, default=1.0)
    parser.add_argument("--field", type=float, default=1.0)
    parser.add_argument("--q0", type=int, default=1)
    parser.add_argument("--q-max", type=int, default=40)
    parser.add_argument("--t-points", type=int, default=12)
    parser.add_argument("--out", default="bound_sweep.csv")
    args = parser.parse_args(argv)

    h = build_model(
        "long_range_ising",
        {"n_sites": args.n_sites, "alpha": math.inf, "coupling": args.coupling, "field": args.field},
    )
    params = BoundParams.from_operator(h)
    print(f"model: nearest-neighbour Ising chain, N={args.n_sites}, "
          f"k={params.k}, g={params.g}, kappa={params.kappa:.1f}")

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "q", "intervals", "r_t", "small_time_rhs", "main_rhs"])
        for i in range(1, args.t_points + 1):
            t = i * 3.0 / (args.t_points * params.kappa)  # up to 3/kappa
            n = params.intervals(t)
            for q in range(args.q0, args.q_max + 1):
                try:
                    small = small_time_rhs(params, args.q0, q, t, 1.0)
                except DomainError:  # t outside the series window
                    small = math.nan
                try:
                    q_schedule(args.q0, q, n)  # refuses a q below 2**n * q0
                    chained = main_rhs(params, args.q0, q, t, 1.0)
                except InfeasibleScheduleError:
                    chained = math.nan
                writer.writerow([t, q, n, params.r_t(t), small, chained])
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
