#!/usr/bin/env python3
"""Tail profiles and band matrices of evolved product states.

Evolves |+>^N under an Ising chain for several times up to 1/kappa,
then emits (R, tail, fitted-curve) rows for the collective-Z tail
profile and (x, x', norm, bound) rows for the band matrix of the
evolved one-local parent Hamiltonian.

Usage:
    python scripts/concentration_tails.py --n-sites 8 --out-prefix conc
"""

from __future__ import annotations

import argparse
import csv
import math
import sys

from klocal.bounds import BoundParams, band_rhs
from klocal.concentration import (
    ExtensiveObservable,
    band_matrix,
    build_product_state,
    fit_tail_constants,
    tail_profile,
)
from klocal.errors import DomainError
from klocal.models import build_model
from klocal.oracle import EigenSystem
from klocal.pauli import KLocalOperator, PauliString


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-sites", type=int, default=8)
    parser.add_argument("--t-fracs", default="0.25,0.5,1.0",
                        help="times as fractions of 1/kappa, comma-separated")
    parser.add_argument("--out-prefix", default="concentration")
    args = parser.parse_args(argv)

    n = args.n_sites
    h = build_model(
        "long_range_ising",
        {"n_sites": n, "alpha": math.inf, "coupling": 1.0, "field": 1.0},
    )
    params = BoundParams.from_operator(h)
    eig = EigenSystem(h, n_max=n)
    observable = ExtensiveObservable.collective(n, "z", n_max=n)
    parent = KLocalOperator(n, {PauliString.from_letters(n, {i: "X"}): -1.0 for i in range(n)})
    fracs = [float(x) for x in args.t_fracs.split(",")]

    tails_path = f"{args.out_prefix}_tails.csv"
    bands_path = f"{args.out_prefix}_bands.csv"
    with open(tails_path, "w", newline="") as ft, open(bands_path, "w", newline="") as fb:
        tail_writer = csv.writer(ft)
        band_writer = csv.writer(fb)
        tail_writer.writerow(["t", "R", "tail", "fitted_curve"])
        band_writer.writerow(["t", "x", "x_prime", "norm", "bound"])
        for frac in fracs:
            t = frac / params.kappa
            psi = eig.evolve_state(build_product_state("+" * n), t)
            profile = tail_profile(psi, observable)
            try:
                c1, c2 = fit_tail_constants(profile, params, t, n)
            except DomainError:
                c1, c2 = float("nan"), float("nan")
            r_t = params.r_t(t)
            for r, tail in profile.samples:
                fitted = (
                    c1 * math.exp(-r / (c2 * r_t * math.sqrt(t * n)))
                    if math.isfinite(c1) and math.isfinite(c2)
                    else float("nan")
                )
                tail_writer.writerow([t, r, tail, fitted])

            parent_t = eig.evolve_operator(parent, t)
            band = band_matrix(parent_t, observable, float(r_t), n_max=n)
            occupied = [b for b in range(band.n_bins) if band.occupancy[b]]
            for bx in occupied:
                for by in occupied:
                    band_writer.writerow(
                        [t, bx, by, band.norms[bx, by], band_rhs(params, t, n, abs(bx - by))]
                    )
            print(f"t = {t:.5f} ({frac}/kappa): "
                  f"mean <A> = {profile.mean:+.4f}, fitted (c1, c2) = ({c1:.3g}, {c2:.3g})")
    print(f"wrote {tails_path} and {bands_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
