"""Sweep the time horizon and track the ECF distance to the scaling limit.

Covers the three regimes: short-time inner-stable, long-time outer-stable,
and long-time Gaussian (outer index above two).  Writes one CSV per regime
with columns h, distance.  Each point is the `layerlab limit-check` routine
(limits.limit_target_and_samples: Gaussian-compensated terminals, exact
above auto_r_cut's radius, so a point costs about the same at every
horizon) on a symmetric measure; the routine takes asymmetric ones as well.

Usage: python scripts/run_limit_sweep.py --paths 4000 --out-dir out/
"""

import argparse
import os

import numpy as np

from layerlab import SphericalMeasure, cf_distance, limit_target_and_samples

REGIMES = {
    # name: (alpha, beta, sigma mass, h grid, limit mode)
    "short": (1.3, 1.9, 2.0, np.logspace(0, -4, 9), "short"),
    "long_stable": (1.3, 1.9, 2.0, np.logspace(0, 4, 9), "long"),
    "long_gauss": (1.1, 2.5, 1.0, np.logspace(0, 4, 9), "long"),
}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--paths", type=int, default=4000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out-dir", default="out")
    args = ap.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    for name, (alpha, beta, mass, hs, mode) in REGIMES.items():
        sigma = SphericalMeasure.symmetric_pair(mass)
        rows = []
        for h in hs:
            target, rescaled, _spec = limit_target_and_samples(
                alpha, beta, sigma, mode, h, args.paths, args.seed)
            rows.append([h, cf_distance(rescaled, target)])
        out = os.path.join(args.out_dir, f"limit_{name}.csv")
        np.savetxt(out, np.array(rows), delimiter=",", header="h,distance",
                   comments="")
        print(f"{name}: distance {rows[0][1]:.4f} at h={rows[0][0]:g} -> "
              f"{rows[-1][1]:.4f} at h={rows[-1][0]:g} ({out})")


if __name__ == "__main__":
    main()
