"""Pseudo-differential operator calculus for the double-scaling limit.

Everything is built from Q = d^2 - u.  The square root L = d + sum l_i d^-i
is solved triangularly from L^2 = Q, one coefficient per step; the KdV
residues are the d^-1 coefficients of the odd powers L^(2m+1) = L Q^m, all
read from one square root, and the string equations are linear combinations
of those residues.  Coefficients live in DiffPoly, a canonical polynomial
ring in u, u', u'', ... with rational coefficients.
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial

INF = 10 ** 9


class DeepenCutoff(RuntimeError):
    pass


class AlgebraBug(AssertionError):
    pass


class DiffPoly:
    """Polynomial in the derivatives u^(k); monomial key = sorted tuple of k."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        for mono, c in (terms or {}).items():
            if type(c) is not Fraction:
                c = Fraction(c)
            if c:
                self.terms[tuple(sorted(mono))] = c

    @classmethod
    def _canonical(cls, terms):
        """Wrap terms that arithmetic already made canonical (sorted
        monomials, Fraction values); only zeros are dropped."""
        out = cls.__new__(cls)
        out.terms = {m: c for m, c in terms.items() if c}
        return out

    @classmethod
    def const(cls, c):
        return cls({(): c})

    @classmethod
    def u(cls, k=0):
        return cls({(k,): 1})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = DiffPoly.const(other)
        elif not isinstance(other, DiffPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # a constant equals its value, so it hashes as its value
        if not self.terms.keys() - {()}:
            return hash(self.terms.get((), 0))
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = DiffPoly.const(other)
        out = dict(self.terms)
        for mono, c in other.terms.items():
            out[mono] = out.get(mono, 0) + c
        return DiffPoly._canonical(out)

    __radd__ = __add__

    def __neg__(self):
        return DiffPoly._canonical({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = DiffPoly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return DiffPoly._canonical({m: c * other
                                        for m, c in self.terms.items()})
        out = {}
        _add_product(out, self.terms, other.terms)
        return DiffPoly._canonical(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * (1 / Fraction(other))

    def derivative(self):
        """d/dy via the product rule; u^(k) -> u^(k+1)."""
        out = {}
        for mono, c in self.terms.items():
            for i in range(len(mono)):
                if i and mono[i] == mono[i - 1]:
                    continue
                mult = mono.count(mono[i])
                bumped = tuple(sorted(mono[:i] + (mono[i] + 1,) + mono[i + 1:]))
                out[bumped] = out.get(bumped, 0) + c * mult
        return DiffPoly._canonical(out)

    def weight(self):
        """Max scaling weight; u^(k) carries weight k+2."""
        return max((sum(k + 2 for k in m) for m in self.terms), default=0)

    def coeff(self, mono):
        return self.terms.get(tuple(sorted(mono)), Fraction(0))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for mono in sorted(self.terms, key=lambda m: (len(m), m)):
            fac = "*".join("u" + "'" * k for k in mono) or "1"
            bits.append("%s*%s" % (self.terms[mono], fac))
        return " + ".join(bits)


def _add_product(acc, p, q):
    """acc += p q on DiffPoly term dicts, in place; zeros may remain."""
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            mono = tuple(sorted(m1 + m2))
            acc[mono] = acc.get(mono, 0) + c1 * c2


def _binom(a, t):
    """Generalized binomial a(a-1)...(a-t+1)/t!, a any integer."""
    num = 1
    for s in range(t):
        num *= a - s
    return Fraction(num, factorial(t))


class PseudoDiffOp:
    """Normal-ordered sum f_i(u,...) d^i, exact for degrees >= -cutoff."""

    __slots__ = ("table", "cutoff")

    def __init__(self, table, cutoff=INF):
        self.table = {}
        for deg, f in table.items():
            if isinstance(f, (int, Fraction)):
                f = DiffPoly.const(f)
            if not f.is_zero():
                if deg < -cutoff:
                    continue
                self.table[deg] = f
        self.cutoff = cutoff

    def max_degree(self):
        return max(self.table, default=0)

    def coeff(self, deg):
        if deg < -self.cutoff:
            raise DeepenCutoff("degree %d below cutoff %d" % (deg, self.cutoff))
        return self.table.get(deg, DiffPoly())

    def plus_part(self):
        """Purely differential part, exact."""
        return PseudoDiffOp({d: f for d, f in self.table.items() if d >= 0})

    def __eq__(self, other):
        c = min(self.cutoff, other.cutoff)
        degs = set(self.table) | set(other.table)
        return all(self.table.get(d, DiffPoly()) == other.table.get(d, DiffPoly())
                   for d in degs if d >= -c)

    def __sub__(self, other):
        c = min(self.cutoff, other.cutoff)
        out = {}
        for d in set(self.table) | set(other.table):
            if d >= -c:
                out[d] = self.table.get(d, DiffPoly()) - other.table.get(d, DiffPoly())
        return PseudoDiffOp(out, c)

    def __repr__(self):
        bits = ["(%r) d^%d" % (f, d)
                for d, f in sorted(self.table.items(), reverse=True)]
        return " + ".join(bits) if bits else "0"


def Q_operator():
    return PseudoDiffOp({2: 1, 0: -DiffPoly.u()})


def pdo_multiply(A, B):
    """Exact normal-ordered product, d^a f = sum_t C(a,t) f^(t) d^(a-t)."""
    if A.cutoff >= INF and B.cutoff >= INF:
        c_res = INF
    else:
        c_res = min(A.cutoff - max(B.max_degree(), 0),
                    B.cutoff - max(A.max_degree(), 0))
        if c_res < 0:
            raise DeepenCutoff("product cutoff underflow")
    # derivative chains fb, fb', fb'', ... shared by every left factor, and
    # C(i,t) fa shared by every right one; terms accumulate per degree
    chains = {j: [fb] for j, fb in B.table.items()}
    out = {}
    for i, fa in A.table.items():
        scaled = []
        for j, chain in chains.items():
            t = 0
            while True:
                deg = i - t + j
                if c_res < INF and deg < -c_res:
                    break
                deriv = _nth_derivative(chain, t)
                if deriv.is_zero():
                    break
                if len(scaled) <= t:
                    scaled.append(fa * _binom(i, t))
                _add_product(out.setdefault(deg, {}), scaled[t].terms,
                             deriv.terms)
                if i >= 0 and t >= i:
                    break
                t += 1
    return PseudoDiffOp({d: DiffPoly._canonical(terms)
                         for d, terms in out.items()}, c_res)


def _nth_derivative(chain, t):
    """chain[t], extending the memoised chain f, f', f'', ... as needed."""
    while len(chain) <= t:
        chain.append(chain[-1].derivative())
    return chain[t]


def pdo_sqrt_Q(cutoff):
    """L = d + sum_{i>=1} l_i d^-i with L^2 = Q, solved triangularly.

    The unknowns l_j (j >= i) reach degree 1-i of L^2 only as 2 l_i, so
    step i needs just the d^(1-i) coefficient of L_{<i}^2: the sum of
    C(a,t) l_a l_b^(t) over table degrees a, b with t = a + b - (1-i).
    """
    table = {1: DiffPoly.const(1)}
    chains = {1: [table[1]]}
    for i in range(1, cutoff + 1):
        deg = 1 - i
        acc = {}
        for a, la in table.items():
            for b, chain in chains.items():
                t = a + b - deg
                if t < 0 or (a >= 0 and t > a):
                    continue
                _add_product(acc, (la * _binom(a, t)).terms,
                             _nth_derivative(chain, t).terms)
        if deg == 0:
            acc[(0,)] = acc.get((0,), 0) + 1  # minus Q's d^0 coefficient -u
        li = DiffPoly._canonical(acc) / -2
        if not li.is_zero():
            table[-i] = li
            chains[-i] = [li]
    L = PseudoDiffOp(table, cutoff)
    check = pdo_multiply(L, L) - Q_operator()
    if any(not f.is_zero() for f in check.table.values()):
        raise AlgebraBug("L^2 != Q within cutoff")
    return L


@lru_cache(maxsize=None)
def _odd_powers(m, depth):
    """(L, L^3, ..., L^(2m+1)) from one square root, L^(2j+1) = L Q^j
    exact down to d^-depth at least.

    Each product by the two-term Q costs 2 of cutoff, and the L^2 check
    inside pdo_sqrt_Q needs a cutoff of at least 1.  Built once per
    (m, depth) and shared, so a residue report and its commutator check
    read the same ladder: callers must not mutate it."""
    powers = [pdo_sqrt_Q(max(depth, 1) + 2 * m)]
    Q = Q_operator()
    for _ in range(m):
        powers.append(pdo_multiply(powers[-1], Q))
    return tuple(powers)


def _L_power(m, depth):
    """L^(2m+1) = L Q^m, exact down to d^-depth."""
    return _odd_powers(m, depth)[m]


def kdv_residues(m):
    """[R_1[u], ..., R_{m+1}[u]], the d^-1 coefficients of the odd powers
    of L, all read from one square root."""
    return [P.coeff(-1) for P in _odd_powers(m, 1)]


def kdv_residue(m):
    """R_{m+1}[u] = coefficient of d^-1 in L^(2m+1)."""
    return kdv_residues(m)[m]


def kdv_recursion_residual(m):
    """R_{m+1}' - (R_m'''/4 - u' R_m / 2 - u R_m'); zero identically."""
    u = DiffPoly.u()
    Rm, Rn = kdv_residues(m)[m - 1:]
    return Rn.derivative() - (Rm.derivative().derivative().derivative() / 4
                              - u.derivative() * Rm / 2 - u * Rm.derivative())


class StringEqn:
    """Parameters mu_1..mu_{m+1} of an order-m string equation."""

    def __init__(self, m, mu):
        mu = [Fraction(x) for x in mu]
        if len(mu) != m + 1:
            raise ValueError("need m+1 parameters")
        if mu[-1] == 0:
            raise ValueError("mu_{m+1} must be nonzero for an order-m model")
        self.m = m
        self.mu = mu


def string_equation(m, eqn):
    """Left side of 2 sum_j mu_j R_j[u] = y as a DiffPoly."""
    total = DiffPoly()
    for j, R in enumerate(kdv_residues(m)):
        if eqn.mu[j]:
            total = total + 2 * eqn.mu[j] * R
    return total


def painleve_ratio():
    """coeff(u'')/coeff(u^2) of 2 R_2; the Painleve I value is -1/3."""
    e = string_equation(1, StringEqn(1, [0, 1]))
    return e.coeff((2,)) / e.coeff((0, 0))


def _planar_coefficient(m):
    """Coefficient of u^(m+1) in 2 R_{m+1} (derivative-free balance)."""
    c = Fraction(-1, 2)
    for j in range(1, m + 1):
        c = -c * Fraction(2 * j + 1, 2 * (j + 1))
    return 2 * c


def painleve_genus_coeffs(m, H):
    """u_h of u(y) = sum u_h y^((1-(2m+3)h)/(m+1)) solving the string equation.

    The equation 2 R_{m+1} = y is rescaled so the derivative-free part is
    u^(m+1); then u_0 = 1 and each u_h follows from a linear level match.
    """
    eq = string_equation(m, StringEqn(m, [0] * m + [1]))
    eq = eq / _planar_coefficient(m)
    us = [Fraction(1)]
    for h in range(1, H + 1):
        r0 = _ansatz_residual(eq, m, us + [Fraction(0)], h)
        r1 = _ansatz_residual(eq, m, us + [Fraction(1)], h)
        slope = r1 - r0
        if slope == 0:
            raise AlgebraBug("level %d does not determine u_%d" % (h, h))
        us.append(-r0 / slope)
    return us


def _exponent(m, h):
    return Fraction(1 - (2 * m + 3) * h, m + 1)


def _ansatz_residual(eq, m, us, level):
    """Coefficient of y^(1 - level(2m+3)/(m+1)) in eq(u) - y."""
    target = 1 - Fraction((2 * m + 3) * level, m + 1)
    total = Fraction(0)
    H = len(us) - 1
    for mono, c in eq.terms.items():
        total += c * _mono_eval_at(mono, m, us, H, target)
    if target == 1:
        total -= 1
    return total


def _mono_eval_at(mono, m, us, H, target):
    """Coefficient of y^target in prod u^(k_i) under the power ansatz."""
    def rec(i, expo, coef):
        if i == len(mono):
            return coef if expo == target else Fraction(0)
        k = mono[i]
        out = Fraction(0)
        for h in range(H + 1):
            if not us[h]:
                continue
            a = _exponent(m, h)
            fall = Fraction(1)
            for s in range(k):
                fall *= a - s
            if fall == 0:
                continue
            nxt = expo + a - k
            # each remaining factor contributes at most 1/(m+1)
            best = nxt + Fraction(len(mono) - i - 1, m + 1)
            if best < target:
                continue
            out += rec(i + 1, nxt, coef * us[h] * fall)
        return out

    return rec(0, Fraction(0), Fraction(1))


def string_equation_residual_orders(m, us, top_level):
    """Residual coefficients of the ansatz at levels 0..top_level."""
    eq = string_equation(m, StringEqn(m, [0] * m + [1]))
    eq = eq / _planar_coefficient(m)
    return [_ansatz_residual(eq, m, us, h) for h in range(top_level + 1)]


def commutator_check(m):
    """[P, Q] with P = (L^(2m+1))_+; must be multiplication by 2 R_{m+1}'."""
    power = _L_power(m, 1)
    P = power.plus_part()
    if P.max_degree() != 2 * m + 1:
        raise AlgebraBug("deg P != 2m+1")
    Q = Q_operator()
    comm = pdo_multiply(P, Q) - pdo_multiply(Q, P)
    for d, f in comm.table.items():
        if d != 0 and not f.is_zero():
            raise AlgebraBug("[P,Q] has a d^%d part" % d)
    result = comm.table.get(0, DiffPoly())
    expect = 2 * power.coeff(-1).derivative()
    if result != expect:
        raise AlgebraBug("[P,Q] != 2 R'")
    return result


def double_scaling_exponents(m):
    """(matrix-size exponent (2m+2)/(2m+3), operator degree 2m+1)."""
    return Fraction(2 * m + 2, 2 * m + 3), 2 * m + 1
