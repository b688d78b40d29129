"""Fingerprint layerlab's numerical outputs: one SHA-256 per output, a line each.

Run it against two versions of the package and diff the two listings: an
equal line is a byte-identical output.  A refused input prints its
exception in place of a hash, so a changed message shows too.

    PYTHONPATH=<other checkout>/src python scripts/identity_check.py > before.txt
    PYTHONPATH=src python scripts/identity_check.py > after.txt
    diff before.txt after.txt

It covers the series paths, terminals (at 1 and 2 threads) and truncation
bounds of every law on five measures, the Gaussian-compensated terminals,
the limit constants, custom-q tail tables and inverses, and the exponents
of the CF oracles on the default frequency grids (11 x 11 points in d = 2).
Each custom q's tails and fixed radial pieces are hashed twice, on a q that
earlier lines used and value by value on a fresh q: the two lines agree.
"""

import hashlib

import numpy as np

import layerlab as L
from layerlab import mc

MEASURES = {
    "symmetric": L.SphericalMeasure.symmetric_pair(2.0),
    "skew-2-1": L.SphericalMeasure.discrete([[1.0], [-1.0]], [2.0, 1.0]),
    "repeated-direction": L.SphericalMeasure.discrete([[1.0], [2.0], [-1.0]],
                                                      [1.0, 1.0, 1.0]),
    "uniform-d2": L.SphericalMeasure.uniform(2, 2.0),
    "three-atom-d2": L.SphericalMeasure.discrete([[1.0, 0.0], [0.0, 1.0], [-0.6, -0.8]],
                                                 [1.0, 0.6, 0.4]),
}
PAIRS = ((1.3, 1.9), (1.9, 1.3), (1.1, 2.5), (0.7, 1.5))


def q_dir():
    """A custom q whose inner limit density c(xi) = 1 + xi_1 / 2 weighs xi
    and -xi differently."""
    c_dir = lambda xi: 1.0 if xi is None else 1.0 + 0.5 * xi[0]
    return L.LayeredQ.custom(1.5, 0.8, lambda r, xi: c_dir(xi) * (1 + r) ** 0.7 * r ** -2.5,
                             c_dir, lambda xi: 1.0)


CUSTOM_QS = {"blend(1.3,1.9)": lambda: L.blend_q(1.3, 1.9),
             "blend(0.7,1.6)": lambda: L.blend_q(0.7, 1.6),
             "blend(1.5,0.8)": lambda: L.blend_q(1.5, 0.8), "q_dir": q_dir}


def custom_qs():
    return {name: build() for name, build in CUSTOM_QS.items()}


def qs(sigma):
    """The canonical q of each index pair with sigma's mass, and the custom qs."""
    out = {f"canonical{a, b}": L.LayeredQ.canonical(a, b, sigma.total_mass())
           for a, b in PAIRS}
    out.update(custom_qs())
    return out


def emit(name, fn):
    """Print name and the SHA-256 of fn()'s arrays, as float64 (a complex
    array as its real and imaginary parts), or the exception fn raises."""
    try:
        value = fn()
    except Exception as exc:        # a refusal is an output too
        print(f"{name} refused {type(exc).__name__}: {exc}")
        return
    h = hashlib.sha256()
    for a in value if isinstance(value, tuple) else (value,):
        a = np.ascontiguousarray(a)
        a = a.view(float) if np.iscomplexobj(a) else a.astype(float)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    print(f"{name} {h.hexdigest()}")


def laws(sigma):
    out = {f"stable({a})": (lambda a=a: L.stable_law(a, sigma)) for a in (0.7, 1.0, 1.5)}
    for qname, q in qs(sigma).items():
        out[f"layered[{qname}]"] = lambda q=q: L.layered_law(q, sigma)
    for base in ("inner", "outer"):
        out[f"rejection(1.3,1.9,{base})"] = (
            lambda base=base: L.rejection_law(1.3, 1.9, sigma, base))
    mix = L.MixDistribution(np.array([0.8, 1.5]), np.array([0.5, 0.5]))
    out["mixed(0.8,1.5)"] = lambda: L.mixed_law(mix, sigma)
    return out


def series_outputs():
    grid = L.make_grid(1.0, 64)
    for mname, sigma in MEASURES.items():
        for lname, build in laws(sigma).items():
            name = f"series {mname} {lname}"
            try:
                law = build()
            except Exception as exc:
                print(f"{name} refused {type(exc).__name__}: {exc}")
                continue
            for cap in (50.0, 2000.0):
                emit(f"{name} bound cap={cap:g}", lambda: law.truncation_bound(cap))
                for seed in (1, 2):
                    def path():
                        p = law.path(law.draw(seed, 1.0, cap), grid)
                        return p.values, p.jump_vectors, p.jump_times
                    emit(f"{name} path cap={cap:g} seed={seed}", path)
            for threads in (1, 2):
                emit(f"{name} terminals threads={threads}",
                     lambda: mc.terminals(law, 16, 7, gamma_cap=500.0, threads=threads))


def compensated_outputs():
    for mname in ("symmetric", "skew-2-1", "uniform-d2", "three-atom-d2"):
        sigma = MEASURES[mname]
        m = sigma.total_mass()
        for a, b in ((1.3, 1.9), (1.1, 2.5)):
            q = L.LayeredQ.canonical(a, b, m)
            for h in (1e-3, 1.0, 1e3):
                r_cut = L.auto_r_cut(q, m, h)
                emit(f"compensated {mname} ({a},{b}) h={h:g} r_cut", lambda: r_cut)
                for threads in (1, 2):
                    emit(f"compensated {mname} ({a},{b}) h={h:g} threads={threads}",
                         lambda: L.layered_terminals_gaussian(a, b, sigma, h, r_cut, 60, 5,
                                                              threads=threads))
    sigma = MEASURES["symmetric"]
    emit("compensated symmetric stable(1.5) h=1",
         lambda: L.stable_terminals_gaussian(1.5, sigma, 1.0, 0.05, 60, 5))


def limit_outputs():
    for mname, sigma in MEASURES.items():
        for qname, q in qs(sigma).items():
            name = f"limits {mname} {qname}"
            emit(f"{name} short", lambda: L.short_time_constants(q, sigma))
            emit(f"{name} long", lambda: L.long_time_constants(q, sigma))
            emit(f"{name} covariance", lambda: L.gaussian_covariance(q, sigma))
            emit(f"{name} tail mass", lambda: tuple(L.levy_tail_mass(q, sigma, x)
                                                    for x in (0.5, 2.0)))


def custom_q_outputs():
    levels = np.logspace(-12.0, 12.0, 97)
    radii = np.logspace(-8.0, 8.0, 41)
    for qname, q in custom_qs().items():
        for xi in (None, np.array([1.0]), np.array([-1.0])):
            name = f"custom {qname} xi={None if xi is None else xi[0]}"
            emit(f"{name} table", lambda: tuple(q._table(xi)))
            emit(f"{name} inverse", lambda: q.inverse_tail(levels, xi))
            emit(f"{name} scalar inverse",
                 lambda: tuple(q.inverse_tail(float(u), xi) for u in levels[::8]))
            emit(f"{name} tail", lambda: tuple(q.tail_integral(float(r), xi) for r in radii))
            emit(f"{name} moments", lambda: tuple(
                q.radial_moment(k, lo, hi, xi)
                for k, lo, hi in ((1, 1e-6, 1.0), (2, 0.0, 1.0), (1, 1.0, 50.0), (0.5, 0.3, 3.0))))
            # the same tails and every convergent moment of order 0, 1, 2 on
            # [0, 1] and [1, oo), on the q the lines above warmed and each
            # on a fresh q: a kept piece must read as a new one
            pieces = [(k, lo, hi) for k in (0, 1, 2) for lo, hi in ((0.0, 1.0), (1.0, np.inf))
                      if (lo > 0.0 or k > q.alpha) and (hi < np.inf or k < q.beta)]
            for temp, on in (("warm", lambda: q), ("cold", CUSTOM_QS[qname])):
                emit(f"{name} pieces {temp}", lambda: tuple(
                    [on().tail_integral(float(r), xi) for r in radii]
                    + [on().radial_moment(k, lo, hi, xi) for k, lo, hi in pieces]))


def oracle_outputs():
    for mname, sigma in MEASURES.items():
        d = sigma.dimension
        Y = L.default_y_grid(d, n=21 if d == 1 else 11)
        emit(f"oracle {mname} StableCF(1.5)",
             lambda: L.StableCF.series_marginal(1.5, sigma).exponent(Y))
        emit(f"oracle {mname} StableCF(1.0)", lambda: L.StableCF(1.0, sigma).exponent(Y))
        for qname, q in qs(sigma).items():
            emit(f"oracle {mname} {qname}",
                 lambda: L.LayeredQuadratureCF(q, sigma).exponent(Y))


def main():
    series_outputs()
    compensated_outputs()
    limit_outputs()
    custom_q_outputs()
    oracle_outputs()


if __name__ == "__main__":
    main()
