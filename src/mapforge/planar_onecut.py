"""Large-N one-cut solution for an arbitrary polynomial potential.

V(x) = x^2/2 - sum_i g_i x^i / i, every i-valent vertex carrying one power
of the counting variable g.  The support endpoints are encoded by S and R
through a = S - 2 sqrt(R), b = S + 2 sqrt(R); the residue system

    V'_0 = 0,   V'_{-1} = 1

with V'_m the coefficient of w^m in V'(w + S + R/w) determines R and S
order by order.  For even potentials S vanishes identically and the first
equation is trivial.  V'_m is the matrix element <m|V'(Q)|0> of the
transfer operator with constant weights R and S; path_sum evaluates every
such <m|Q^k|n>.  Solved for R and S, the residue system is the string
equations, which string_equations writes once for every solver.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, pi, sqrt as fsqrt

from .series_core import (SymbolPoly, TruncSeries, exact_fraction,
                          fixed_point_solve)


class EvenOnly(ValueError):
    pass


class OutOfOneCut(ValueError):
    pass


class Potential:
    """Couplings valence -> Fraction; V(x) = x^2/2 - sum g_i x^i/i.  A
    float coupling is refused."""

    def __init__(self, couplings):
        self.couplings = {int(v): exact_fraction(c)
                          for v, c in couplings.items() if c != 0}
        for v in self.couplings:
            if v < 1:
                raise ValueError("valence must be >= 1")

    def is_even(self):
        return all(v % 2 == 0 for v in self.couplings)

    @classmethod
    def quartic(cls, g4=1):
        return cls({4: g4})


class OneCutSolution:
    __slots__ = ("R", "S")

    def __init__(self, R, S):
        self.R = R
        self.S = S


def path_sum(down, level, start, end, steps, order):
    """<end| Q^steps |start> for Q|h> = |h+1> + level(h)|h> + down(h)|h-1>.

    The sum over height paths from start to end: an up step weighs 1, a
    level or down step leaving height h weighs level(h) or down(h), and a
    weight of None means that step does not exist, so a wall is a None;
    level=None allows no level steps.  The walk advances one step at a
    time through a dict height -> weight and drops the heights that can no
    longer reach end.  A weight stays an int path count until a series
    enters it, so no zero or unit series is built or multiplied.  When no
    series enters, the result is that count as a constant series."""
    moves = [(1, None), (-1, down)] + ([(0, level)] if level else [])
    layer = {start: 1}
    for left in reversed(range(steps)):
        nxt = {}
        for h, w in layer.items():
            for dh, weight in moves:
                to = h + dh
                if abs(to - end) > left:
                    continue
                term = w
                if weight is not None:
                    s = weight(h)
                    if s is None:
                        continue
                    term = s if isinstance(w, int) and w == 1 else w * s
                nxt[to] = nxt[to] + term if to in nxt else term
        layer = nxt
    out = layer.get(end, 0)
    if isinstance(out, (int, Fraction, SymbolPoly)):
        return TruncSeries.const("g", out, order)
    return out


def _bulk_weights(V, R, S):
    """down and level of Q in the bulk, where every R_n = R and S_n = S."""
    return (lambda h: R), (None if V.is_even() else lambda h: S)


def string_equations(V, down, level, n, first, order):
    """(first + sum_v g g_v <n-1|Q^{v-1}|n>, sum_v g g_v <n|Q^{v-1}|n>),
    the right-hand sides of the string equations for R_n and S_n, with Q's
    weights down and level as in path_sum; S_n is 0 when level is None."""
    g = TruncSeries.gen("g", order)
    R, S = first, 0
    for v, gv in V.couplings.items():
        c = g * gv
        R = R + c * path_sum(down, level, n, n - 1, v - 1, order)
        if level is not None:
            S = S + c * path_sum(down, level, n, n, v - 1, order)
    return R, S


def solve_one_cut(V, order):
    """Series solution with R = 1 + O(g), S = O(g) of the string
    equations in the bulk."""

    def equation(X):
        return string_equations(V, *_bulk_weights(V, *X), 0, 1, order)

    return OneCutSolution(*fixed_point_solve(equation, (1, 0), order))


@lru_cache(maxsize=None)
def unit_quartic_solution(order):
    """solve_one_cut(Potential.quartic(), order), solved once per order.

    Every pure-quartic caller reads this one solution; the series are
    shared, so callers must not mutate them."""
    return solve_one_cut(Potential.quartic(), order)


def _scale_coupling(series, g4):
    """Coefficient k times g4^k: a pure-quartic series depends on the
    coupling only through g4 * g."""
    return TruncSeries(series.var,
                       [g4 ** k * c for k, c in enumerate(series.coeffs)])


def quartic_solution(g4, order):
    """solve_one_cut(Potential.quartic(g4), order), read off the unit
    solution by rescaling."""
    unit = unit_quartic_solution(order)
    g4 = Fraction(g4)
    return OneCutSolution(_scale_coupling(unit.R, g4),
                          _scale_coupling(unit.S, g4))


def residue_coeff(V, sol, m):
    """V'_m = [w^m] V'(w + S + R/w) = <m|V'(Q)|0> in the bulk, a series
    in g."""
    g = TruncSeries.gen("g", sol.R.order)
    down, level = _bulk_weights(V, sol.R, sol.S)
    # the x term of V'(x) = x - sum g_i x^{i-1}
    out = path_sum(down, level, 0, m, 1, g.order)
    for v, gi in V.couplings.items():
        out = out - g * gi * path_sum(down, level, 0, m, v - 1, g.order)
    return out


def gamma_one(V, sol):
    """One-leg planar generating function, leg in the external face."""
    return residue_coeff(V, sol, -2) + sol.S


def gamma_two_sameface(V, sol):
    """Two legs in the same (external) face."""
    vm2 = residue_coeff(V, sol, -2)
    return sol.R + residue_coeff(V, sol, -3) - vm2 * vm2


def gamma_one_one(V, sol):
    """Two legs anywhere: equals R."""
    return sol.R


def r_of_z(V, order):
    """The root r(z) of z = r - sum_k g_{2k} C(2k-1,k) r^k, as a series in g
    with coefficients polynomial in z."""
    if not V.is_even():
        raise EvenOnly("r(z) is defined for even potentials")
    z = SymbolPoly.sym(("z",), "z")
    g = TruncSeries.gen("g", order)

    def equation(r):
        acc = TruncSeries.const("g", z, order)
        for v, gi in V.couplings.items():
            k = v // 2
            acc = acc + g * (gi * comb(2 * k - 1, k)) * r ** k
        return acc

    return fixed_point_solve(equation, z, order)


def planar_free_energy(V, order):
    """Genus-zero free energy with f(0) = 0, even potentials only.

    Integrates (1-z) log(r(z)/z) over z in [0,1] termwise; for the pure
    quartic model the closed form (1/2) log R + (R-1)(R-9)/24 is used and
    the two routes agree (tested).
    """
    if not V.is_even():
        raise EvenOnly("planar free energy implemented for even potentials")
    if set(V.couplings) <= {4}:
        # f depends on the coupling only through g4 * g
        return _scale_coupling(quartic_closed_form_f(order),
                               V.couplings.get(4, 0))
    return _free_energy_integral(V, order)


def _free_energy_integral(V, order):
    r = r_of_z(V, order)
    z = SymbolPoly.sym(("z",), "z")
    ratio = r * z.inverse()
    lg = ratio.log()
    coeffs = []
    for c in lg.coeffs:
        if isinstance(c, SymbolPoly):
            total = Fraction(0)
            for (e,), q in c.terms.items():
                if e < 0:
                    raise AssertionError("negative z power in log(r/z)")
                # integral of (1-z) z^e over [0,1]
                total += q * (Fraction(1, e + 1) - Fraction(1, e + 2))
            coeffs.append(total)
        else:
            coeffs.append(Fraction(c) if c else Fraction(0))
    return TruncSeries("g", coeffs)


def quartic_closed_form_f(order):
    R = unit_quartic_solution(order).R
    return R.log() / 2 + (R - 1) * (R - 9) / 24


def _numeric_R_even(V, g):
    """Solve 1 = phi(R) = R - g sum g_{2k} C(2k-1,k) R^k on the one-cut branch."""
    def phi(r):
        return r - g * sum(float(gi) * comb(v // 2 * 2 - 1, v // 2) * r ** (v // 2)
                           for v, gi in V.couplings.items())

    def dphi(r):
        out = 1.0
        for v, gi in V.couplings.items():
            k = v // 2
            out -= g * float(gi) * comb(2 * k - 1, k) * k * r ** (k - 1)
        return out

    r = 1.0
    for _ in range(200):
        d = dphi(r)
        if d <= 0:
            raise OutOfOneCut("left the one-cut branch")
        step = (phi(r) - 1.0) / d
        r -= step
        if abs(step) < 1e-14:
            break
    else:
        raise OutOfOneCut("Newton did not converge")
    if dphi(r) <= 0:
        raise OutOfOneCut("critical or supercritical coupling")
    return r


def spectral_density_eval(V, g, x):
    """Eigenvalue density at x for an even potential at numeric coupling g."""
    if not V.is_even():
        raise EvenOnly("density implemented for even potentials")
    if set(V.couplings) <= {4}:
        g4 = float(V.couplings.get(4, 0)) * g
        if 1.0 - 12.0 * g4 <= 0:
            raise OutOfOneCut("quartic one-cut regime needs 1-12g > 0")
    R = _numeric_R_even(V, g)
    if x * x >= 4.0 * R:
        return 0.0
    # polynomial part M(x) of V'(x)/sqrt(x^2-4R), via the 1/x expansion
    # of 1/sqrt(1-4R/x^2) = sum_j C(2j,j) (R/x^2)^j
    M = {}
    vp = {1: 1.0}
    for v, gi in V.couplings.items():
        vp[v - 1] = vp.get(v - 1, 0.0) - float(gi) * g
    for d, c in vp.items():
        for j in range(d // 2 + 1):
            power = d - 1 - 2 * j
            if power >= 0:
                M[power] = M.get(power, 0.0) + c * comb(2 * j, j) * R ** j
    mval = sum(c * x ** p for p, c in M.items())
    return mval / (2.0 * pi) * fsqrt(4.0 * R - x * x)
