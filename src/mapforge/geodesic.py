"""Distance-refined two-leg generating functions R_n.

The transfer operator Q acts on a formal orthonormal basis by
Q|n> = |n+1> + S_n|n> + R_n|n-1> with vanishing negative indices; the
recursion R_n = 1 + sum_i g g_i <n-1|Q^{i-1}|n> (plus <n|V'(Q)|n> = 0
fixing S_n when odd valences are present) is solved on a finite window
whose tail is seeded with the translation-invariant bulk solution, by
planar_onecut.string_equations with a wall below height 0.
Every pure-quartic coefficient, alone or in a whole series, is read
instead by Lagrange inversion of the closed form in the characteristic
root (_quartic_area_terms), which is itself evaluated only at float g;
tests/quartic_oracles.py keeps the integer recursion and the closed-form
series as independent oracles.
"""

from fractions import Fraction
from functools import lru_cache
from math import cosh, sinh, sqrt as fsqrt

from .series_core import TruncSeries, fixed_point_solve
from .planar_onecut import (OutOfOneCut, Potential, solve_one_cut,
                            string_equations)


class DomainError(ValueError):
    pass


class GeodesicSeries:
    """Window of R_n (and S_n) series, n = 0..n_max."""

    __slots__ = ("R", "S")

    def __init__(self, R, S):
        self.R = R
        self.S = S


def solve_Rn_series(weights, n_max, order):
    """Triangular solve of the distance recursion for the given couplings.

    The unknowns are the window R_0..R_top, S_0..S_top, solved as one
    system; beyond top the window reads the bulk solution."""
    V = Potential(weights)
    sol = solve_one_cut(V, order)
    even = V.is_even()
    top = n_max + order + 1

    def equation(X):
        R, S = X[:top + 1], X[top + 1:]

        def down(h):
            if h < 0:
                return None
            return R[h] if h <= top else sol.R

        def level(h):
            if h < 0:
                return None
            return S[h] if h <= top else sol.S

        if even:
            level = None
        newR, newS = zip(*(string_equations(V, down, level, n, 1, order)
                           for n in range(top + 1)))
        return newR + newS

    X = fixed_point_solve(equation, (1,) * (top + 1) + (0,) * (top + 1), order)
    return GeodesicSeries({n: X[n] for n in range(n_max + 1)},
                          {n: X[top + 1 + n] for n in range(n_max + 1)})


def quartic_R_numeric(g):
    """Bulk R = (1 - sqrt(1-12g))/(6g) on the one-cut branch."""
    if g < 0 or 1.0 - 12.0 * g <= 0:
        raise OutOfOneCut("quartic one-cut regime needs 0 <= g < 1/12")
    if g == 0:
        return 1.0
    return (1.0 - fsqrt(1.0 - 12.0 * g)) / (6.0 * g)


def char_root_numeric(g):
    """The |x| < 1 root of the characteristic equation at numeric g."""
    R = quartic_R_numeric(g)
    if g == 0:
        return 0.0
    B = 1.0 / (g * R) - 4.0
    return (B - fsqrt(B * B - 4.0)) / 2.0


def exact_Rn_quartic(n, g=None, order=None):
    """R_n = R (1-x^{n+1})(1-x^{n+4}) / ((1-x^{n+2})(1-x^{n+3})).

    Series mode when order is given (coefficients by Lagrange inversion),
    numeric mode when g is a float.
    """
    if order is not None:
        return TruncSeries("g", _quartic_row(n, order))
    R = quartic_R_numeric(g)
    x = char_root_numeric(g)
    num = (1.0 - x ** (n + 1)) * (1.0 - x ** (n + 4))
    den = (1.0 - x ** (n + 2)) * (1.0 - x ** (n + 3))
    return R * num / den


def integral_of_motion(pair, g):
    """f(x,y) = xy(1 - gx - gy) - x - y on a consecutive pair (R_n, R_{n+1})."""
    a, b = pair
    return a * b * (1 - g * a - g * b) - a - b


def _quartic_row(n, A):
    """[g^k] R_n of the pure quartic for k = 0..A, as Fractions."""
    if n < 0 or A < 0:
        raise DomainError("distance and order must be >= 0")
    return [Fraction(1)] + [Fraction(_quartic_area_terms(n, k)[0], k)
                            for k in range(1, A + 1)]


def quartic_coeff_table(n_max, A):
    """Taylor coefficients of the pure-quartic R_n, n = 0..n_max, through
    g-order A, as exact Fractions."""
    if n_max < 0:
        raise DomainError("distance and order must be >= 0")
    return {n: _quartic_row(n, A) for n in range(n_max + 1)}


def _int_product(a, b, N):
    """Coefficients 0..N of the product of two int coefficient lists."""
    out = [0] * (N + 1)
    for i, p in enumerate(a[:N + 1]):
        if p:
            for j, q in enumerate(b[:N + 1 - i]):
                out[i + j] += p * q
    return out


@lru_cache(maxsize=256)
def _quartic_area_terms(n, A, log=False):
    """A [g^A] R_n of the pure quartic as a 1-tuple of ints, or with log
    the pair (A [g^A] R_n, A [g^A] log R_n): only the callers that read
    the log term pay for its kernel.

    The closed form (Bouttier, Di Francesco, Guitter 2003) is R_n = R T_n
    in the characteristic root x, with R = Y4/Y1, Y4 = 1+4x+x^2,
    Y1 = 1+x+x^2, T_n = (1-x^{n+1})(1-x^{n+4}) / ((1-x^{n+2})(1-x^{n+3})),
    and x = g phi(x) with phi = Y4^2/Y1.  Lagrange inversion gives
    [g^A] H = [x^A] H phi^A (1 - x phi'/phi) and
    A [g^A] H = [x^{A-1}] H' phi^A, and every series they need is
    s = Y4^(2A-1) Y1^(-A-2) times a small polynomial:
      R phi^A (1 - x phi'/phi) = Y4 (1-x)^3 (1+x) s,
      (log R)' phi^A = 3 (1-x^2) Y1 s,  phi^A = Y4 Y1^2 s,
    while (log(1-x^m))' = -m sum_{k>=1} x^{mk-1}.  So each answer is a dot
    product of s with an int kernel.  s solves P s' = ((2A-1) U - (A+2) W) s
    with P = Y4 Y1, U = Y4' Y1 and W = Y1' Y4, so each coefficient follows
    from the previous four and divides exactly by its index."""
    if n < 0 or A < 0:
        raise DomainError("distance and area must be >= 0")
    # T_n from T_n (1-x^{n+2})(1-x^{n+3}) = (1-x^{n+1})(1-x^{n+4})
    T = [0] * (A + 1)
    for j in range(A + 1):
        t = (j == 0) - (j == n + 1) - (j == n + 4) + (j == 2 * n + 5)
        for d, sign in ((n + 2, 1), (n + 3, 1), (2 * n + 5, -1)):
            if j >= d:
                t += sign * T[j - d]
        T[j] = t
    Y4, Y1 = [1, 4, 1], [1, 1, 1]
    # [g^A] R_n = [x^A] kR s
    kR = _int_product(_int_product(Y4, [1, -2, 0, 2, -1], 6), T, A)
    if log:
        # A [g^A] log R_n = [x^A] kL s, kL = Y4 Y1^2 c + 3x (1-x^2) Y1,
        # where c_{mk} collects -m from each log(1-x^m) term of log T_n
        c = [0] * (A + 1)
        for m, sign in ((n + 1, 1), (n + 4, 1), (n + 2, -1), (n + 3, -1)):
            for i in range(m, A + 1, m):
                c[i] -= sign * m
        kL = _int_product(_int_product(Y4, _int_product(Y1, Y1, 4), 6),
                          c, A)
        for i, q in ((1, 3), (2, 3), (4, -3), (5, -3)):
            if i <= A:
                kL[i] += q
    # (j+1) s_{j+1} = sum_i (q_i - P_{i+1} (j-i)) s_{j-i}, i = 0..3, with
    # q the coefficients of (2A-1) U - (A+2) W and P = 1+5x+6x^2+5x^3+x^4
    q0, q1, q2, q3 = 7 * A - 6, 6 * A - 18, 3 * A - 24, 2 * A - 6
    s0, s1, s2, s3 = 1, 0, 0, 0  # s_j .. s_{j-3}
    termR = termL = 0
    for j in range(A + 1):
        termR += s0 * kR[A - j]
        if log:
            termL += s0 * kL[A - j]
        t = ((q0 - 5 * j) * s0 + (q1 - 6 * (j - 1)) * s1
             + (q2 - 5 * (j - 2)) * s2 + (q3 - (j - 3)) * s3)
        s0, s1, s2, s3 = t // (j + 1), s0, s1, s2
    return (A * termR, termL) if log else (A * termR,)


def fixed_area_ratio(n, A):
    """B_n(A) = [g^A]R_n / [g^A]R_0 for 4-valent graphs of area A."""
    if A < 1:
        raise DomainError("area must be >= 1")
    return Fraction(_quartic_area_terms(n, A)[0],
                    _quartic_area_terms(0, A)[0])


def bn_infinity(n):
    """Large-area limit of B_n."""
    poly = 140 + 270 * n + 179 * n ** 2 + 50 * n ** 3 + 5 * n ** 4
    return Fraction(3, 280) * Fraction((n + 1) * (n + 4), (n + 2) * (n + 3)) * poly


def scaling_F(r):
    """Continuum two-point scaling function F(r) = 3 / sinh^2(sqrt(3/2) r)."""
    if r <= 0:
        raise DomainError("r must be positive")
    s = fsqrt(1.5) * r
    return 3.0 / sinh(s) ** 2


def scaling_G(r):
    """G = -F'."""
    if r <= 0:
        raise DomainError("r must be positive")
    s = fsqrt(1.5) * r
    return 6.0 * fsqrt(1.5) * cosh(s) / sinh(s) ** 3


def continuum_two_point(grid):
    """(r, F(r), G(r)) rows over the grid."""
    return [(r, scaling_F(r), scaling_G(r)) for r in grid]


def discrete_to_continuum_check(eps, r_grid=None):
    """Max over the grid of |(R - R_n)/(eps^2 R) - F(n eps)| at
    g = (1 - eps^4)/12 with n = round(r/eps)."""
    if not 0 < eps <= 0.1:
        raise DomainError("eps must lie in (0, 0.1]")
    if r_grid is None:
        r_grid = [0.5 + 0.1 * i for i in range(16)]
    g = (1.0 - eps ** 4) / 12.0
    R = quartic_R_numeric(g)
    worst = 0.0
    for r in r_grid:
        n = round(r / eps)
        Rn = exact_Rn_quartic(n, g=g)
        dev = abs((R - Rn) / (eps * eps * R) - scaling_F(n * eps))
        worst = max(worst, dev)
    return worst
