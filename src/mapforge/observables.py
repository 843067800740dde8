"""Distance profiles and local-environment statistics of quadrangulations.

Finite-area averages are exact rationals at every area, built from the
single coefficients [g^A] R_n and [g^A] log R_n of the distance-refined
series (geodesic._quartic_area_terms, by Lagrange inversion); the
infinite-area limits are the closed forms obtained from the cubic
relation for the local-environment generating function Gamma.
Averages refer to the vertex-origin ensemble: a quadrangulation weighted
by 1/|Aut| with a uniformly marked origin vertex, equivalently uniform
rooted quadrangulations with the root start as origin reweighted by
1/deg(origin).
"""

from collections import Counter
from fractions import Fraction
from math import acos, comb, copysign, cos, pi, sqrt
from sys import float_info

from .series_core import (SymbolPoly, TruncSeries, exact_fraction,
                          fixed_point_solve)
from .planar_onecut import unit_quartic_solution
from .geodesic import _quartic_area_terms, integral_of_motion
from .bijections import (NotQuadrangulation, _free_contour, _rng,
                         distance_profile, sample_quadrangulation_uniform)


class IntegrationObstruction(ValueError):
    pass


class BranchError(ValueError):
    pass


def edges_at_distance(n, A):
    """Average number of edges from distance n to n+1 in area-A
    quadrangulations seen from their origin; exact rational."""
    if A < 1:
        raise ValueError("area must be >= 1")
    below = _quartic_area_terms(n - 1, A)[0] if n >= 1 else 0
    return Fraction(4 * A, A + 2) * Fraction(
        _quartic_area_terms(n, A)[0] - below, _quartic_area_terms(0, A)[0])


def edges_at_distance_asymptotic(n):
    """Infinite-area limit; grows as 6 n^3 / 7."""
    num = (n * n + 4 * n + 2) * (5 * n ** 4 + 40 * n ** 3 + 117 * n * n
                                 + 148 * n + 70)
    return Fraction(6, 35) * Fraction(num, (n + 1) * (n + 2) * (n + 3))


def vertices_at_distance(n, A):
    """Average number of vertices at distance n in area-A quadrangulations
    seen from their origin; exact rational.

    Quadrangulations with an origin and a marked vertex at distance n are
    counted by log(R_{n-1}/R_{n-2}) (log R_0 for n = 1), and pointed ones at
    area A by (A+2) [g^A] R_0 / (4A)."""
    if A < 1:
        raise ValueError("area must be >= 1")
    if n == 0:
        return Fraction(1)
    layer = _quartic_area_terms(n - 1, A, True)[1]
    if n >= 2:
        layer -= _quartic_area_terms(n - 2, A, True)[1]
    # R_0's term from the log call, which n = 1 and n = 2 make anyway
    return Fraction(4 * A, A + 2) * Fraction(
        layer, _quartic_area_terms(0, A, True)[0])


def vertices_at_distance_asymptotic(n):
    if n == 0:
        return Fraction(1)
    extra = 1 if n == 1 else 0
    return Fraction(3, 35) * ((n + 1) * (5 * n * n + 10 * n + 2) + extra)


def vertices_at_distance_numeric(n, A):
    """vertices_at_distance as a float."""
    return float(vertices_at_distance(n, A))


# ---------------------------------------------------------------------------
# weighted R_n system with the conserved-quantity closure


def _exact_quotient(symbols, num, den):
    """Coefficient map: exact quotient by (num*den - 1), num and den two of
    the symbols.  A Fraction zero maps to a SymbolPoly zero; anything not
    divisible raises ArithmeticError."""
    ri = symbols.index(num)
    si = symbols.index(den)

    def quotient(p):
        if not isinstance(p, SymbolPoly):
            p = SymbolPoly.const(symbols, p)
        # The term c*x^e of top rho-degree r is c*x^(e-rho-sigma) times
        # (rho*sigma - 1) plus c*x^(e-rho-sigma), of rho-degree r - 1; so
        # the terms are taken a rho-degree at a time, top down, each one
        # final once the degree above it is done.
        buckets = {}
        for e, c in p.terms.items():
            buckets.setdefault(e[ri], {})[e] = c
        out = {}
        for r in range(max(buckets, default=0), 0, -1):
            below = buckets.setdefault(r - 1, {})
            for e, c in buckets.pop(r, {}).items():
                qe = list(e)
                qe[ri] -= 1
                qe[si] -= 1
                qe = tuple(qe)
                out[qe] = c
                rest = below.get(qe, 0) + c
                if rest:
                    below[qe] = rest
                else:
                    del below[qe]
        if any(buckets.values()):
            raise ArithmeticError("polynomial not divisible by %s*%s-1"
                                  % (num, den))
        return SymbolPoly(symbols, out)

    return quotient


def weighted_Zn_solve(k, order):
    """Z_n series, n = 0..k+1, with symbolic weights rho_p, sigma_p.

    One triangular system: Z_n = sigma_n (rho_n + g Z_n (Z_{n+1} + Z_n +
    Z_{n-1})) for n <= k, and Z_{k+1} is fixed by the conserved quantity
    f(Z_k, Z_{k+1}) = f(R, R), f = geodesic.integral_of_motion.  Its
    coefficient A enters [g^A] f as (rho_k sigma_k - 1) Z_{k+1,A}, so
    Y + (f(R, R) - f(Z_k, Y)) / (rho_k sigma_k - 1) updates it."""
    syms = tuple("rho%d" % p for p in range(k + 1)) \
        + tuple("sigma%d" % p for p in range(k + 1))
    rho = [SymbolPoly.sym(syms, "rho%d" % p) for p in range(k + 1)]
    sig = [SymbolPoly.sym(syms, "sigma%d" % p) for p in range(k + 1)]
    R = unit_quartic_solution(order).R
    g = TruncSeries.gen("g", order)
    fRR = integral_of_motion((R, R), g)
    quotient = _exact_quotient(syms, "rho%d" % k, "sigma%d" % k)

    def eq(z):
        out = [sig[n] * (rho[n] + g * z[n] * (z[n + 1] + z[n]
                                               + (z[n - 1] if n else 0)))
               for n in range(k + 1)]
        y = z[k + 1]
        out.append(y + (fRR - integral_of_motion((z[k], y), g))
                   .map_coeffs(quotient))
        return tuple(out)

    # Z_{k+1} starts at 1: its order-0 update is zero
    zs = fixed_point_solve(eq, (0,) * (k + 1) + (1,), order)
    return dict(enumerate(zs))


def weighted_Rn_solve(rho, sigma, order):
    """R_n = Z_n / sigma_n for explicit rational weights rho, sigma
    (sequences over p = 0..k); a float weight is refused."""
    k = len(rho) - 1
    if len(sigma) != k + 1:
        raise ValueError("rho and sigma must have the same length")
    zs = weighted_Zn_solve(k, order)
    values = {}
    for p in range(k + 1):
        values["rho%d" % p] = exact_fraction(rho[p])
        values["sigma%d" % p] = exact_fraction(sigma[p])
    out = {}
    for n, series in zs.items():
        s = values["sigma%d" % n] if n <= k else Fraction(1)
        if s == 0:
            raise ValueError("sigma weights must be nonzero")
        out[n] = series.map_coeffs(lambda c: c.subs(**values) / s)
    return out


def quartic_R0_rho_sigma(order):
    """R_0(g | rho, sigma): the unique solution with R_0 = rho + O(g) of
    the quartic relation F(R_0) = 0 obtained by eliminating Z_1, as a
    series with coefficients polynomial in (rho, sigma).  Coefficient A of
    R_0 enters [g^A] F as (1 - rho sigma) R_{0,A}, so R_0 + F(R_0) /
    (rho sigma - 1) is a triangular update."""
    syms = ("rho", "sigma")
    rho = SymbolPoly.sym(syms, "rho")
    sig = SymbolPoly.sym(syms, "sigma")
    Rb = unit_quartic_solution(order).R
    g = TruncSeries.gen("g", order)
    GR = g * Rb * (1 - g * Rb * Rb)
    quotient = _exact_quotient(syms, "rho", "sigma")

    def eq(x):
        F = (x - rho) * (1 + x - g * sig ** 2 * x * x - rho) \
            - sig * x * (x - rho + GR) + g * sig ** 3 * x ** 3
        return x + F.map_coeffs(quotient)

    return fixed_point_solve(eq, rho, order)


def integrate_sigma_log(series):
    """Termwise integral_0^sigma ... ds/s: sigma^m -> sigma^m / m on every
    positive g-order; a sigma-free term there has no primitive."""
    si = series.coeffs[1].symbols.index("sigma") if series.order >= 1 \
        else 1
    out = [series.coeffs[0] * 0]
    for A in range(1, series.order + 1):
        terms = {}
        for e, c in series.coeffs[A].terms.items():
            m = e[si]
            if m == 0:
                raise IntegrationObstruction(
                    "sigma-free term at positive area")
            terms[e] = Fraction(c, m)
        out.append(SymbolPoly(series.coeffs[A].symbols, terms))
    return TruncSeries("g", out)


def unrooted_Gamma0(order):
    """Gamma_0 = integral_0^sigma R_0(g | rho, s) ds / s over A >= 1:
    the generating function of quadrangulations with an origin vertex."""
    return integrate_sigma_log(quartic_R0_rho_sigma(order))


def local_weight_average(A, order=None):
    """The polynomial <rho^N1 sigma^N01>_A = Gamma_{0,A}(rho,sigma) /
    Gamma_{0,A}(1,1); N1 counts neighbors of the origin, N01 edges at the
    origin."""
    if order is None:
        order = A
    if A < 1:
        raise ValueError("area A must be >= 1")
    if order < A:
        raise ValueError("order must be >= A")
    G = unrooted_Gamma0(order).coeffs[A]
    norm = G.subs(rho=1, sigma=1)
    return G / norm


# ---------------------------------------------------------------------------
# infinite-area local environment


def _gamma_cubic_coeffs(rho, sigma):
    a3 = 6 - 2 * sigma - 3 * rho * sigma
    a2 = 24 - 8 * sigma - 12 * rho * sigma
    a1 = 18 - 2 * sigma - 15 * rho * sigma
    a0 = -6 * rho * sigma
    return a3, a2, a1, a0


# rounding splits a double root into two roots, or a complex pair, about
# sqrt(eps) times the roots' scale apart; closer than this they are one root
_DOUBLE_ROOT_TOL = 32 * sqrt(float_info.epsilon)


def _real_cubic_roots(a3, a2, a1, a0):
    """The real roots of a3 x^3 + a2 x^2 + a1 x + a0 (a3 != 0), ascending,
    a double root listed twice.

    Vieta's trigonometric form gives three real roots and Cardano's formula
    one.  Two roots (or a complex pair) closer than _DOUBLE_ROOT_TOL times
    the roots' scale max(|b|, |c|^(1/2), |d|^(1/3)) of the monic cubic
    x^3 + b x^2 + c x + d count as a double root, polished by Newton steps
    on the derivative, where it is a simple root; every simple root gets
    two Newton steps on the cubic."""
    b, c, d = a2 / a3, a1 / a3, a0 / a3
    tol = _DOUBLE_ROOT_TOL * max(abs(b), sqrt(abs(c)), abs(d) ** (1 / 3))
    # x = t - b/3 turns the cubic into t^3 + p t + q
    p = c - b * b / 3
    q = 2 * b ** 3 / 27 - b * c / 3 + d
    disc = (q / 2) ** 2 + (p / 3) ** 3
    double = None
    if disc < 0:
        r = 2 * sqrt(-p / 3)
        phi = acos(max(-1.0, min(1.0, 3 * q / (p * r))))
        ts = sorted(r * cos((phi - 2 * pi * k) / 3) for k in range(3))
        if ts[1] - ts[0] <= tol:
            double, ts = (ts[0] + ts[1]) / 2, ts[2:]
        elif ts[2] - ts[1] <= tol:
            double, ts = (ts[1] + ts[2]) / 2, ts[:1]
    else:
        u, v = (copysign(abs(y) ** (1 / 3), y)
                for y in (-q / 2 + sqrt(disc), -q / 2 - sqrt(disc)))
        ts = [u + v]
        if sqrt(3) / 2 * abs(u - v) <= tol:
            double = -(u + v) / 2
    roots = []
    for t in ts:
        x = t - b / 3
        for _ in range(2):
            slope = (3 * a3 * x + 2 * a2) * x + a1
            if slope:
                x -= (((a3 * x + a2) * x + a1) * x + a0) / slope
        roots.append(x)
    if double is not None:
        x = double - b / 3
        for _ in range(3):
            curv = 6 * a3 * x + 2 * a2
            if curv:
                x -= ((3 * a3 * x + 2 * a2) * x + a1) / curv
        roots += [x, x]
    return sorted(roots)


def gamma_infinite(rho, sigma):
    """Gamma(rho, sigma) = lim_A <rho^N1 sigma^N01>_A: the real cubic root
    continuing the branch with Gamma(1,1) = 1."""
    coeffs = [float(c) for c in _gamma_cubic_coeffs(rho, sigma)]
    if abs(coeffs[0]) < 1e-12:
        raise BranchError("degenerate cubic")
    real = _real_cubic_roots(*coeffs)
    top = real[-1]
    if len(real) > 1 and real[-1] - real[-2] < 1e-9:
        raise BranchError("branch collision near the discriminant locus")
    if top <= -1:
        raise BranchError("branch left the physical region")
    return top


def gamma_rho_series(order):
    """Series of Gamma(rho, 1) in rho from the cubic relation."""
    var = "rho"
    rho = TruncSeries.gen(var, order)
    den = 16 - 15 * rho

    def eq(G):
        return (6 * rho - (16 - 12 * rho) * G * G
                - (4 - 3 * rho) * G * G * G) / den

    return fixed_point_solve(eq, 0, order, var=var)


def gamma_sigma_series(order):
    """Series of Gamma(1, sigma) in sigma from the cubic relation."""
    var = "sigma"
    s = TruncSeries.gen(var, order)
    den = 18 - 17 * s

    def eq(G):
        return (6 * s - (24 - 20 * s) * G * G - (6 - 5 * s) * G * G * G) / den

    return fixed_point_solve(eq, 0, order, var=var)


def gamma_rho_closed_form(order):
    """2 / sqrt(4 - 3 rho) - 1 as a series in rho."""
    rho = TruncSeries.gen("rho", order)
    return (1 - Fraction(3, 4) * rho).pow_frac(Fraction(-1, 2)) - 1


def gamma_sigma_closed_form(order):
    """(sqrt((6 + 3 sigma)/(6 - 5 sigma)) - 1) / 2 as a series in sigma."""
    s = TruncSeries.gen("sigma", order)
    ratio = (6 + 3 * s) / (6 - 5 * s)
    return (ratio.sqrt() - 1) / 2


def neighbor_pgf(n):
    """P(n) = (3/16)^n C(2n, n): probability of n neighbors of a vertex in
    an infinite quadrangulation."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return Fraction(3, 16) ** n * comb(2 * n, n)


def simple_neighbor_pgf(t):
    """Pi(t) = sqrt((8 - t)/(2 - t)) - 2: generating function over the
    numbers of neighbors not connected to the origin by multiple edges."""
    if not t < 2:
        raise ValueError("t must be < 2")
    return sqrt((8.0 - t) / (2.0 - t)) - 2.0


# ---------------------------------------------------------------------------
# Monte-Carlo distance profile


def mc_profile(A, n_max, samples, seed, method="reweighted"):
    """Estimated (mean, stderr) of the number of vertices at each distance
    n = 0..n_max around the origin of random area-A quadrangulations.

    method "reweighted": uniform rooted quadrangulations with origin at the
    root start, importance weights 1/deg(origin) converting to the
    vertex-origin measure.  method "pointed": the pointed construction
    samples that measure directly from the shifted tree labels.  A < 1
    raises NotQuadrangulation, as the samplers do; samples < 1 and
    n_max < 0 raise ValueError."""
    if method not in ("reweighted", "pointed"):
        raise ValueError("unknown method")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if A < 1:
        raise NotQuadrangulation("a quadrangulation needs at least one face")
    data = []
    wts = []
    for i in range(samples):
        if method == "reweighted":
            m = sample_quadrangulation_uniform(A, seed, i)
            counts, deg = distance_profile(m)
            w = 1.0 / deg
        else:
            _, labs = _free_contour(A, _rng(seed, i))
            low = min(labs)
            counts = Counter(l - low + 1 for l in labs)
            counts[0] = 1
            w = 1.0
        data.append([counts.get(n, 0) for n in range(n_max + 1)])
        wts.append(w)
    wsum = sum(wts)
    out = []
    for n in range(n_max + 1):
        est = sum(w * row[n] for w, row in zip(wts, data)) / wsum
        var = sum((w * (row[n] - est)) ** 2 for w, row in zip(wts, data))
        se = sqrt(var) / wsum
        out.append((est, se))
    return out
