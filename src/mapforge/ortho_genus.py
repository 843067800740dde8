"""All-genus free energy via orthogonal polynomials.

The monic orthogonal polynomials for the measure exp(-N V(x)) dx obey
x p_m = p_{m+1} + s_m p_m + r_m p_{m-1}, and the free energy is the
normalized log ratio of their squared norms h_m = r_m h_{m-1} against the
Gaussian measure,

    F = sum_{m=0}^{N-1} log(h_m / h_m^0)
      = N log(h_0/h_0^0) + sum_{m=1}^{N-1} (N-m) log(N r_m / m).

The ratios solve the string equations m/N = <m-1|V'(Q)|m> and
0 = <m|V'(Q)|m>, Q carrying weight r_p per down step and s_p per level
step from height p.  exact_free_energy_FN solves them for r and s as
series in g whose coefficients are polynomials in m (and Laurent in N),
through planar_onecut.string_equations, with path-sum heights as offsets
from m.  No wall at height 0 is needed: at m = 0 every term of
the equation for r carries r(0), so r(0) = 0 as a series and the
polynomial solution is the walled one at every m >= 1.  The upper limit N
of the sum is handled symbolically: at each g-order the summand
log(N r_m/m) is a polynomial in m, its forward differences at m = 1 write
it in the binomial basis C(m-1, d), and
sum_{m=1}^{N-1} (N-m) C(m-1, d) = C(N, d+2) does the sum in one step.

hankel_free_energy_FN is the independent oracle that tests check the
production route against: it reads h_m as ratios of Hankel determinants of
the moments, at integer m, and checks polynomiality in m over two window
sizes; string_recursion_residual checks its r_m against the string
equation with a wall at 0.
"""

from fractions import Fraction
from math import comb, factorial

from .series_core import SymbolPoly, TruncSeries, fixed_point_solve
from .planar_onecut import (EvenOnly, Potential, path_sum, solve_one_cut,
                            string_equations)
from .wick_fatgraphs import StructureViolation, genus_split, vertex_profiles

NSYM = ("N",)
NLAU = ("N",)
# coefficients of the string-equation unknowns: polynomial in m, Laurent in N
MN = ("m", "N")


class IncreaseM(RuntimeError):
    pass


class DegenerateMeasure(ValueError):
    pass


class NoPhysicalRoot(ValueError):
    pass


def _npoly(value=0):
    return SymbolPoly.const(NSYM, value, NLAU)


def _N(power=1):
    return SymbolPoly(NSYM, {(power,): Fraction(1)}, NLAU)


def _double_factorial(n):
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def moments_from_potential(couplings, order, top):
    """Moments nu_k, k = 0..top, of exp(-NV) normalized by the Gaussian.

    couplings: valence -> Fraction; each vertex insertion carries one
    power of g and the factor N g_i / i.  Gaussian moments are
    (m-1)!! N^{-m/2} for even m and vanish for odd m, so odd valences
    contribute where the total degree is even.
    """
    valences = sorted(v for v in couplings if couplings[v] != 0)
    table = []
    for k in range(top + 1):
        coeffs = [_npoly() for _ in range(order + 1)]
        for profile in vertex_profiles(valences, order):
            n = sum(profile.values())
            m = k + sum(v * c for v, c in profile.items())
            if m % 2:
                continue
            pref = _npoly(1)
            for v, c in profile.items():
                pref = pref * (_N() * couplings[v] / v) ** c / factorial(c)
            gauss = _double_factorial(m - 1) * _N(-m // 2) if m else _npoly(1)
            coeffs[n] = coeffs[n] + pref * gauss
        table.append(TruncSeries("g", coeffs))
    return table


def _shift_m(c, h):
    """The coefficient c(m + h): each m^e expands binomially."""
    if not h or not isinstance(c, SymbolPoly):
        return c
    terms = {}
    for (e, n), q in c.terms.items():
        for j in range(e + 1):
            key = (j, n)
            terms[key] = terms.get(key, 0) + comb(e, j) * h ** (e - j) * q
    return SymbolPoly(MN, terms, NLAU)


def _times_N_over_m(c):
    """c N/m for a coefficient that vanishes at m = 0."""
    if not isinstance(c, SymbolPoly):
        assert c == 0, "constant term %r in a multiple of m" % (c,)
        return c
    terms = {}
    for (e, n), q in c.terms.items():
        assert e > 0, "negative m exponent in N r/m"
        terms[(e - 1, n + 1)] = q
    return SymbolPoly(MN, terms, NLAU)


def string_equation_ratios(couplings, order):
    """(r, s) solving r(m) = m/N + g sum_v g_v <m-1|Q^{v-1}|m> and
    s(m) = g sum_v g_v <m|Q^{v-1}|m>, series in g whose coefficients are
    polynomials in m, Laurent in N.

    The path sums run at heights offset from m, a down step from h
    weighing r(m+h) and a level step s(m+h), with no wall; each shift is
    built once per call of the equation.  s vanishes for even potentials.
    """
    V = Potential(couplings)
    even = V.is_even()
    m_over_N = SymbolPoly(MN, {(1, -1): 1}, NLAU)

    def equation(X):
        def shifted(series):
            cache = {}

            def at(h):
                if h not in cache:
                    cache[h] = series.map_coeffs(lambda c: _shift_m(c, h))
                return cache[h]
            return at

        down = shifted(X[0])
        level = None if even else shifted(X[1])
        return string_equations(V, down, level, 0, m_over_N, order)

    return fixed_point_solve(equation, (m_over_N, 0), order)


def exact_free_energy_FN(couplings, order):
    """F_N = log(Z_N(V)/Z_N(V0)) as a series in g, Laurent polynomial in N.

    The summand log(N r_m/m) comes from string_equation_ratios as a
    polynomial in m at each g-order, and its sum to N-1 is done
    symbolically from its forward differences at m = 1.
    """
    couplings = Potential(couplings).couplings
    r, _ = string_equation_ratios(couplings, order)
    lam = r.map_coeffs(_times_N_over_m).log()
    gamma0 = moments_from_potential(couplings, order, 0)[0].log()
    coeffs = [_npoly()]
    for k in range(1, order + 1):
        c = lam.coeffs[k]
        if not isinstance(c, SymbolPoly):
            c = SymbolPoly.const(MN, c, NLAU)
        top = max(c.exponents_of("m"), default=0)
        row = [c.subs(m=m) for m in range(1, top + 2)]
        coeffs.append(_sum_to_N(gamma0.coeffs[k], _forward_differences(row)))
    return TruncSeries("g", coeffs)


def _forward_differences(row):
    """Delta^d P(1), d = 0..len(row)-1, from row = [P(1), P(2), ...]."""
    deltas = []
    while row:
        deltas.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    return deltas


def _sum_to_N(gamma0_k, deltas):
    """N gamma0_k + sum_{m=1}^{N-1} (N-m) P(m) for the summand P with
    forward differences deltas at m = 1.  In the Newton basis
    P(m) = sum_d Delta^d P(1) C(m-1, d), and
    sum_{m=1}^{N-1} (N-m) C(m-1, d) = C(N, d+2) does the sum in one step.
    """
    total = _N() * gamma0_k
    for d, delta in enumerate(deltas):
        total = total + delta * _binomial_N(d + 2)
    return total


def _binomial_N(j):
    """C(N, j) = N (N-1) ... (N-j+1) / j! as a polynomial in N."""
    out = _npoly(Fraction(1, factorial(j)))
    for i in range(j):
        out = out * (_N() - i)
    return out


# The Hankel oracle: only tests use what follows.


def hankel_free_energy_FN(couplings, order, M=None):
    """exact_free_energy_FN by Hankel elimination.  Only tests use it, as
    an independent check of the string-equation route: it reads the norms
    at integer m from Hankel determinants of the moments.

    The summand log(N r_m/m), read at m = 1..M from those norms, must
    be a polynomial in m across the window, and its sum to N-1 is done
    symbolically; identical results for window sizes M and M+1 are
    required, otherwise IncreaseM is raised.  Window M is a prefix of
    window M+1, so both read one set of log ratios.
    """
    if M is None:
        M = 2 * order + 6
    if M < 3:
        raise ValueError("window M must be >= 3, got %d" % M)
    gamma0, lam = log_ratio_terms(couplings, order, M + 1)
    big = _fixed_window(gamma0, lam, order, M + 1)
    small = _fixed_window(gamma0, lam, order, M)
    if big != small:
        raise IncreaseM("free energy did not stabilize at window %d" % M)
    return big


def _fixed_window(gamma0, lam, order, M):
    """F_N from the summands lam[1..M-1] of window M.

    At g-order k the summand P(m) counts as a polynomial of degree at most
    min(2k, M-3) when its higher forward differences at m = 1 vanish.
    """
    coeffs = [_npoly()]
    for k in range(1, order + 1):
        deltas = _forward_differences([lam[m].coeffs[k] for m in range(1, M)])
        top = min(2 * k, M - 3)
        if any(deltas[top + 1:]):
            raise IncreaseM("summand not polynomial across the window")
        coeffs.append(_sum_to_N(gamma0.coeffs[k], deltas[:top + 1]))
    return TruncSeries("g", coeffs)


def hankel_dets(moments, M):
    """Determinants D_1..D_M of the leading Hankel blocks (nu_{i+j}).

    One Gaussian elimination of the M x M block without row exchanges:
    pivot k depends only on the leading k x k block, so D_k = D_{k-1} *
    pivot_k.  Pivots stay invertible because the g=0 matrix is the Hankel
    matrix of a positive measure."""
    mat = [[moments[i + j] for j in range(M)] for i in range(M)]
    dets = []
    for k in range(M):
        piv = mat[k][k]
        pc = piv.coeffs[0]
        if (isinstance(pc, SymbolPoly) and not pc) or pc == 0:
            raise DegenerateMeasure("zero pivot in Hankel elimination")
        dets.append(dets[-1] * piv if dets else piv)
        for i in range(k + 1, M):
            factor = mat[i][k] / piv
            for j in range(k, M):
                mat[i][j] = mat[i][j] - factor * mat[k][j]
    return dets


def hankel_norms(couplings, order, M):
    """h_m for m = 0..M-1 (normalized by the Gaussian partition integral)
    and the ratios r_m = h_m / h_{m-1} for m = 1..M-1."""
    moments = moments_from_potential(couplings, order, 2 * M)
    dets = hankel_dets(moments, M)
    h = [dets[0]]
    for m in range(1, M):
        h.append(dets[m] / dets[m - 1])
    r = [None]
    for m in range(1, M):
        r.append(h[m] / h[m - 1])
    return h, r


def gaussian_h(m):
    """h_m for the Gaussian weight, same normalization: m! N^{-m}."""
    return _npoly(factorial(m)) * _N(-m)


def log_ratio_terms(couplings, order, M):
    """gamma0 = log(h_0/h_0^0) and lam[m] = log(N r_m / m), m = 1..M-1."""
    h, r = hankel_norms(couplings, order, M)
    gamma0 = h[0].log()
    lam = [None]
    for m in range(1, M):
        lam.append((r[m] * _N() / m).log())
    return gamma0, lam


def string_recursion_residual(couplings, r_window, m):
    """<m-1|V'(Q)|m> minus m/N (r_m minus its string equation's right-hand
    side); zero for true solutions.

    r_window maps index -> series; the path_sum walk has a wall at 0 and
    weight r_p per down step from height p.
    """
    order = r_window[m].order

    def down(h):
        return r_window[h] if h > 0 else None

    rhs, _ = string_equations(Potential(couplings), down, None, m,
                              _N(-1) * m, order)
    return path_sum(down, None, m, m - 1, 1, order) - rhs


def genus_extract(F):
    """{(g-order, genus): coefficient} over the SymbolPoly coefficients of
    orders 1..F.order, each split by genus_split."""
    return {(k, h): q for k in range(1, F.order + 1)
            if isinstance(F.coeffs[k], SymbolPoly)
            for h, q in genus_split(F.coeffs[k]).items()}


def genus_one_closed_form(order):
    """(1/24) sum_{n>=1} g^n/n 3^n (4^n - C(2n,n))."""
    coeffs = [Fraction(0)]
    for n in range(1, order + 1):
        coeffs.append(Fraction(3 ** n * (4 ** n - comb(2 * n, n)), 24 * n))
    return TruncSeries("g", coeffs)


def two_marked_faces(couplings, order):
    """Generating function with two marked faces: log R of the even
    one-cut solution."""
    for v in couplings:
        if v % 2:
            raise EvenOnly("even potentials only")
    return solve_one_cut(Potential(couplings), order).R.log()


class CriticalPoint:
    """Multicritical data in the rescaled variable rho = g r."""

    def __init__(self, m, rho_c, params, g_t_c):
        self.m = m
        self.rho_c = rho_c        # g * r_c
        self.params = params      # solved free parameters
        self.g_t_c = g_t_c        # g * t_c = psi(rho_c)
        self.gamma = Fraction(-1, m + 1)


def multicritical_solve(psi_coeffs, m):
    """Tune psi(rho) = sum_k a_k rho^k so its first m derivatives vanish.

    psi_coeffs maps power -> Fraction, or -> (name, Fraction multiplier)
    for a free parameter entering linearly.  Supported: m = 1 with no free
    parameter, m = 2 with exactly one.  rho is g*r; g t_c = psi(rho_c).
    """
    fixed = {k: v for k, v in psi_coeffs.items() if not isinstance(v, tuple)}
    free = {k: v for k, v in psi_coeffs.items() if isinstance(v, tuple)}

    def dcoeff(k, j):
        # k-th power contributes k!/(k-j)! rho^{k-j} to the j-th derivative
        if k < j:
            return Fraction(0)
        return Fraction(factorial(k), factorial(k - j))

    if m == 1 and not free:
        # psi'(rho) = 0, polynomial in rho with rational coefficients
        poly = {}
        for k, a in fixed.items():
            if k >= 1:
                poly[k - 1] = poly.get(k - 1, Fraction(0)) + a * dcoeff(k, 1)
        root = _positive_rational_root(poly)
        if root is None:
            raise NoPhysicalRoot("no positive critical point")
        gt = sum(a * root ** k for k, a in fixed.items())
        return CriticalPoint(1, root, {}, gt)
    if m == 2 and len(free) == 1:
        (kp, (pname, mult)), = free.items()
        # psi''(rho) = 0 is linear in the parameter: solve and substitute
        # into psi'(rho) = 0, clearing the rho denominator.
        # psi'' = sum fixed a_k k(k-1) rho^{k-2} + p mult kp(kp-1) rho^{kp-2}
        # p(rho) = -fixed''(rho) / (mult kp(kp-1) rho^{kp-2})
        # psi'(rho) * rho^{kp-2} stays polynomial after substitution.
        num = {}   # p * denominator as polynomial in rho
        for k, a in fixed.items():
            if k >= 2:
                num[k - 2] = num.get(k - 2, Fraction(0)) - a * dcoeff(k, 2)
        denom_pow = kp - 2
        denom_mult = mult * dcoeff(kp, 2)
        # psi' with p substituted, multiplied by denom_mult * rho^{denom_pow}
        poly = {}
        for k, a in fixed.items():
            if k >= 1:
                e = k - 1 + denom_pow
                poly[e] = poly.get(e, Fraction(0)) + a * dcoeff(k, 1) * denom_mult
        for e, q in num.items():
            ee = e + kp - 1
            poly[ee] = poly.get(ee, Fraction(0)) + q * mult * dcoeff(kp, 1)
        root = _positive_rational_root(poly)
        if root is None:
            raise NoPhysicalRoot("no positive critical point")
        pval = sum(q * root ** e for e, q in num.items()) \
            / (denom_mult * root ** denom_pow)
        gt = sum(a * root ** k for k, a in fixed.items()) \
            + pval * mult * root ** kp
        # third derivative must not vanish for a genuine m = 2 point
        third = sum(a * dcoeff(k, 3) * root ** (k - 3)
                    for k, a in fixed.items() if k >= 3) \
            + pval * mult * dcoeff(kp, 3) * root ** (kp - 3)
        if third == 0:
            raise NoPhysicalRoot("degenerate beyond order 2")
        return CriticalPoint(2, root, {pname: pval}, gt)
    raise NotImplementedError("unsupported multicritical configuration")


def _positive_rational_root(poly):
    """Smallest positive rational root of sum poly[e] rho^e, exact search."""
    poly = {e: q for e, q in poly.items() if q != 0}
    if not poly:
        return None
    low = min(poly)
    if low:
        poly = {e - low: q for e, q in poly.items()}
    deg = max(poly)
    if deg == 0:
        return None
    # clear denominators
    from math import lcm
    den = 1
    for q in poly.values():
        den = lcm(den, q.denominator)
    ip = {e: int(q * den) for e, q in poly.items()}
    a0, ad = abs(ip.get(0, 0)), abs(ip[deg])
    if a0 == 0:
        return None
    roots = []
    for p in _divisors(a0):
        for q in _divisors(ad):
            cand = Fraction(p, q)
            if sum(c * cand ** e for e, c in ip.items()) == 0:
                roots.append(cand)
    return min(roots) if roots else None


def _divisors(n):
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            out.append(n // d)
        d += 1
    return sorted(set(out))


def pure_gravity_quartic():
    """m=1 point of psi(rho) = rho - 3 rho^2: rho_c = 1/6, g t_c = 1/12."""
    return multicritical_solve({1: Fraction(1), 2: Fraction(-3)}, 1)


def hard_dimer():
    """m=2 point of psi(rho) = rho - 3 rho^2 - 30 z rho^3."""
    return multicritical_solve(
        {1: Fraction(1), 2: Fraction(-3), 3: ("z", Fraction(-30))}, 2)
