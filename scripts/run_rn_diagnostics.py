"""Radon-Nikodym diagnostics: weight normalization and importance sampling.

Prints a small table of E[e^{U'_T}] and E[e^{-U''_T}] (both should be 1)
and cross-validates an importance-sampled exceedance probability against a
direct estimate, using the `layerlab rn` routine (girsanov.rn_diagnostics).

Usage: python scripts/run_rn_diagnostics.py --paths 4000
"""

import argparse

from layerlab import SphericalMeasure, rn_diagnostics


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--alpha", type=float, default=1.3)
    ap.add_argument("--beta", type=float, default=1.9)
    ap.add_argument("--paths", type=int, default=4000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--level", type=float, default=3.0)
    ap.add_argument("--gamma-cap", type=float, default=2000.0)
    args = ap.parse_args()

    rep = rn_diagnostics(args.alpha, args.beta, SphericalMeasure.symmetric_pair(2.0),
                         f"sup-exceeds:{args.level}", args.paths, args.seed,
                         gamma_cap=args.gamma_cap)

    def line(label, mean, se=None):
        print(f"{label:34s} {mean:10.5f}" + ("" if se is None else f" +- {se:.5f}"))

    print(f"(alpha, beta) = ({args.alpha}, {args.beta}), {args.paths} paths, "
          f"{rep['clip_count']} clipped log weights")
    line("E[exp(U'_1)]   (should be 1)", rep["mean_weight"], rep["mean_weight_se"])
    line("E[exp(-U''_1)] (should be 1)", rep["mean_weight_doubleprime"])
    line(f"P(sup|X| > {args.level}) reweighted", rep["reweighted_estimate"],
         rep["reweighted_se"])
    line(f"P(sup|X| > {args.level}) direct", rep["direct_estimate"], rep["direct_se"])


if __name__ == "__main__":
    main()
