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

from klocal.bounds import BoundParams
from klocal.concentration import concentrate
from klocal.models import build_model
from klocal.oracle import EigenSystem


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
    # r_t = 1 for t <= 1/kappa splits the bins, so every time evolves the parent
    eig = EigenSystem(h, n_max=n)
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
            found = concentrate(h, params, "+" * n, t, n_max=n, eigensystem=eig)
            for r, tail, curve in found.tails:
                tail_writer.writerow([t, r, tail, math.nan if curve is None else curve])
            for entry in found.bands:
                band_writer.writerow([t, *entry])
            c1, c2 = found.fitted or (math.nan, math.nan)
            print(f"t = {t:.5f} ({frac}/kappa): "
                  f"mean <A> = {found.profile.mean:+.4f}, fitted (c1, c2) = ({c1:.3g}, {c2:.3g})")
    print(f"wrote {tails_path} and {bands_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
