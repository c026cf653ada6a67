#!/usr/bin/env python3
"""Measure operator spreading in Pauli weight against the analytic bounds.

Evolves a single-site observable under an Ising chain, decomposes the
evolved operator in the Pauli basis, and reports (a) the squared-weight
mass beyond each locality q and (b) the exact distance to the best
q-local approximation (Frobenius-optimal projection), next to the
chained truncation bound at the same (q, t).

Usage:
    python scripts/spreading_profile.py --n-sites 6 --out spreading.csv
"""

from __future__ import annotations

import argparse
import csv
import math
import sys

from klocal.bounds import BoundParams, main_rhs, q_schedule
from klocal.errors import InfeasibleScheduleError
from klocal.models import build_model
from klocal.oracle import EigenSystem, q_local_project, weight_spectrum
from klocal.pauli import KLocalOperator, PauliString


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-sites", type=int, default=6)
    parser.add_argument("--site", type=int, default=0, help="site carrying the initial Z")
    parser.add_argument("--t-points", type=int, default=10)
    parser.add_argument("--t-max-intervals", type=float, default=2.5,
                        help="largest time in units of 1/kappa")
    parser.add_argument("--out", default="spreading_profile.csv")
    args = parser.parse_args(argv)

    n = args.n_sites
    h = build_model(
        "long_range_ising",
        {"n_sites": n, "alpha": math.inf, "coupling": 1.0, "field": 1.0},
    )
    params = BoundParams.from_operator(h)
    gamma = KLocalOperator(n, {PauliString.from_letters(n, {args.site: "Z"}): 1.0})
    eig = EigenSystem(h, n_max=n)
    print(f"N={n}, k={params.k}, g={params.g}, kappa={params.kappa:.1f}; "
          f"evolving Z on site {args.site}")

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "intervals", "q", "weight_mass_above_q",
                         "distance_to_q_local", "chained_bound"])
        for i in range(1, args.t_points + 1):
            t = i * args.t_max_intervals / (args.t_points * params.kappa)
            evolved = eig.evolve_operator(gamma, t)
            spectrum = weight_spectrum(evolved)
            n_int = params.intervals(t)
            for q in range(1, n + 1):
                _, _, res_op = q_local_project(evolved, q)
                try:
                    q_schedule(1, q, n_int)  # refuses a q below 2**n
                    bound = main_rhs(params, 1, q, t, 1.0)
                except InfeasibleScheduleError:
                    bound = math.nan
                writer.writerow(
                    [t, n_int, q, float(spectrum[q + 1 :].sum()), res_op, bound]
                )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
