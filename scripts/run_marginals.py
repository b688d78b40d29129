"""Emit marginal-law comparison data for the three workhorse parameter pairs.

For each (alpha, beta) the script samples X_1 of the layered process, the
coupled inner-index stable companion on the same shot-noise draws, and writes
a CSV with the empirical CF against the quadrature oracle over a frequency
grid.  The output is the raw material for the usual two-panel figure
(real part of the CF, and pointwise ECF error).

Usage: python scripts/run_marginals.py --paths 4000 --out-dir out/
"""

import argparse
import os

import numpy as np

from layerlab import (LayeredQ, LayeredQuadratureCF, SphericalMeasure,
                      StableCF, auto_r_cut, ecf, layered_terminals,
                      layered_terminals_gaussian, stable_terminals)

PAIRS = ((1.3, 1.9), (1.1, 2.5), (1.9, 1.3))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--paths", type=int, default=4000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--gamma-cap", type=float, default=1e4)
    ap.add_argument("--out-dir", default="out")
    args = ap.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    sigma = SphericalMeasure.symmetric_pair(2.0)
    ys = np.linspace(-5.0, 5.0, 81)

    for alpha, beta in PAIRS:
        q = LayeredQ.canonical(alpha, beta, 2.0)
        oracle = LayeredQuadratureCF(q, sigma)
        stable_oracle = StableCF.series_marginal(alpha, sigma)
        if alpha < 1.5:
            # both samplers read the draws of substream(seed, i) for path i
            lay = layered_terminals(alpha, beta, sigma, args.paths, args.seed,
                                    gamma_cap=args.gamma_cap)
            stb = stable_terminals(alpha, sigma, args.paths, args.seed,
                                   gamma_cap=args.gamma_cap)
        else:
            # the raw series cannot reach alpha near 2; no coupled companion
            lay = layered_terminals_gaussian(alpha, beta, sigma, 1.0,
                                             auto_r_cut(q, 2.0, 1.0),
                                             args.paths, args.seed)
            stb = None

        # each oracle is evaluated once over the whole grid
        t_lay_all = np.exp(oracle.exponent(ys[:, None]))
        t_st_all = np.exp(stable_oracle.exponent(ys[:, None]))
        rows = []
        for y, t_lay, t_st in zip(ys, t_lay_all, t_st_all):
            yv = np.array([y])
            e_lay = ecf(lay, yv)
            row = [y, e_lay.real, e_lay.imag, t_lay.real,
                   abs(e_lay - t_lay)]
            if stb is not None:
                e_st = ecf(stb, yv)
                row += [e_st.real, t_st.real, abs(e_st - t_st)]
            rows.append(row)

        name = os.path.join(args.out_dir,
                            f"marginal_a{alpha}_b{beta}.csv")
        header = "y,ecf_re,ecf_im,oracle_re,err"
        if stb is not None:
            header += ",stable_ecf_re,stable_oracle_re,stable_err"
        np.savetxt(name, np.array(rows), delimiter=",", header=header,
                   comments="")
        worst = max(r[4] for r in rows)
        print(f"(alpha, beta) = ({alpha}, {beta}): "
              f"max ECF error {worst:.4f} -> {name}")


if __name__ == "__main__":
    main()
