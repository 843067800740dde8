"""Exact coefficient rings and truncated formal power series.

Coefficients are fractions.Fraction values, or SymbolPoly values when the
series carries auxiliary symbols (N as a Laurent symbol, rho/sigma/t as
ordinary ones).  Every operation is exact; floats never enter the algebra.
A series keeps coefficients for degrees 0..order, and binary operations
truncate to the minimum order of the operands.
"""

from fractions import Fraction
from operator import add


class NonUnitDivisor(ArithmeticError):
    pass


class BadConstantTerm(ValueError):
    pass


class NotInvertible(ValueError):
    pass


class NotContracting(RuntimeError):
    pass


def rat_str(q):
    """Render a Fraction (or int) as an exact "p/q" or "p" string."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


def exact_fraction(x):
    """Fraction(x) for an exact number; a float is refused, since its
    binary fraction is seldom the number meant (0.1 is not 1/10)."""
    if isinstance(x, float):
        raise TypeError("float %r is not exact" % (x,))
    return Fraction(x)


def rat_parse(s):
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % (s,)) from None


class SymbolPoly:
    """Polynomial (Laurent in flagged symbols) with rational coefficients.

    terms maps exponent tuples to nonzero coefficients, each an int when it
    is integral and a Fraction otherwise, so the mostly integral counting
    polynomials multiply at int speed; coeff() still returns a Fraction.
    A float coefficient is refused.  The symbol list and the set of
    Laurent-allowed symbols are fixed per instance and must agree between
    operands.
    """

    __slots__ = ("symbols", "laurent", "terms")

    def __init__(self, symbols, terms, laurent=()):
        self.symbols = tuple(symbols)
        self.laurent = frozenset(laurent)
        clean = {}
        for expo, c in terms.items():
            if type(c) is not int:
                c = exact_fraction(c)
                if c.denominator == 1:
                    c = c.numerator
            if c == 0:
                continue
            expo = tuple(expo)
            for name, e in zip(self.symbols, expo):
                if e < 0 and name not in self.laurent:
                    raise ValueError("negative exponent for non-Laurent symbol %s" % name)
            clean[expo] = c
        self.terms = clean

    @classmethod
    def const(cls, symbols, value, laurent=()):
        z = (0,) * len(tuple(symbols))
        return cls(symbols, {z: value}, laurent)

    @classmethod
    def sym(cls, symbols, name, laurent=()):
        symbols = tuple(symbols)
        expo = tuple(1 if s == name else 0 for s in symbols)
        if name not in symbols:
            raise KeyError(name)
        return cls(symbols, {expo: 1}, laurent)

    @classmethod
    def _raw(cls, symbols, terms, laurent):
        """Wrap terms that arithmetic already made valid (exponent tuples
        allowed by laurent, int or Fraction values); zeros are dropped and
        integral Fractions become ints."""
        out = cls.__new__(cls)
        out.symbols = symbols
        out.laurent = laurent
        out.terms = {e: c.numerator if type(c) is Fraction
                     and c.denominator == 1 else c
                     for e, c in terms.items() if c}
        return out

    def _coerce(self, other):
        if isinstance(other, SymbolPoly):
            if other.symbols != self.symbols:
                raise ValueError("symbol mismatch")
            return other
        return None

    def _shift(self, value):
        """self + value for a scalar: only the constant term moves."""
        z = (0,) * len(self.symbols)
        terms = dict(self.terms)
        terms[z] = terms.get(z, 0) + value
        return SymbolPoly._raw(self.symbols, terms, self.laurent)

    def _scale(self, value):
        """self * value for a scalar: every term is scaled."""
        return SymbolPoly._raw(self.symbols,
                               {e: c * value for e, c in self.terms.items()},
                               self.laurent)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._shift(other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return SymbolPoly._raw(self.symbols, terms,
                               self.laurent | other.laurent)

    __radd__ = __add__

    def __neg__(self):
        return self._scale(-1)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._shift(-other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scale(other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return SymbolPoly._raw(self.symbols, terms,
                               self.laurent | other.laurent)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError
            return self._scale(1 / Fraction(other))
        if isinstance(other, SymbolPoly):
            return self * other.inverse()
        return NotImplemented

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            if isinstance(k, int) and k < 0:
                return self.inverse() ** (-k)
            raise TypeError("integer power expected")
        out = SymbolPoly.const(self.symbols, 1, self.laurent)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def inverse(self):
        """Inverse of a monomial; anything with several terms is not a unit."""
        if len(self.terms) != 1:
            raise NonUnitDivisor("only monomials are invertible")
        (expo, c), = self.terms.items()
        inv_expo = tuple(-e for e in expo)
        for name, e in zip(self.symbols, inv_expo):
            if e < 0 and name not in self.laurent:
                raise NonUnitDivisor("inverse needs Laurent symbol %s" % name)
        return SymbolPoly(self.symbols, {inv_expo: Fraction(1) / c},
                          self.laurent)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            # a scalar equals a constant polynomial: compare the constant term
            if not other:
                return not self.terms
            return (len(self.terms) == 1
                    and self.terms.get((0,) * len(self.symbols)) == other)
        if not isinstance(other, SymbolPoly):
            return NotImplemented
        return self.symbols == other.symbols and self.terms == other.terms

    def __hash__(self):
        return hash((self.symbols, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def coeff(self, **expos):
        """Coefficient of a monomial given as symbol=exponent keywords."""
        e = tuple(expos.get(s, 0) for s in self.symbols)
        return Fraction(self.terms.get(e, 0))

    def exponents_of(self, name):
        """Sorted set of exponents of one symbol appearing with nonzero terms."""
        i = self.symbols.index(name)
        return sorted({e[i] for e in self.terms})

    def subs(self, **values):
        """Substitute numbers for some symbols; returns SymbolPoly or Fraction."""
        vals = {}
        keep = []
        for s in self.symbols:
            if s in values:
                vals[s] = values[s]
            else:
                keep.append(s)
        if keep:
            out = {}
            for e, c in self.terms.items():
                factor = c
                ke = []
                for s, ei in zip(self.symbols, e):
                    if s in vals:
                        factor = factor * (Fraction(vals[s]) ** ei)
                    else:
                        ke.append(ei)
                ke = tuple(ke)
                out[ke] = out.get(ke, Fraction(0)) + factor
            return SymbolPoly(keep, out, self.laurent & set(keep))
        total = Fraction(0)
        for e, c in self.terms.items():
            factor = c
            for s, ei in zip(self.symbols, e):
                factor = factor * (Fraction(vals[s]) ** ei)
            total += factor
        return total

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms):
            c = self.terms[e]
            mono = "*".join("%s^%d" % (s, ei) for s, ei in zip(self.symbols, e) if ei)
            if mono:
                bits.append("%s*%s" % (rat_str(c), mono))
            else:
                bits.append(rat_str(c))
        return " + ".join(bits)


def _as_coeff(c):
    """A series coefficient: an int or Fraction as a Fraction, a SymbolPoly
    as it is; anything else (a float, a string) is refused."""
    if isinstance(c, (int, Fraction)):
        return Fraction(c)
    if isinstance(c, SymbolPoly):
        return c
    if isinstance(c, float):
        raise TypeError("float %r is not exact" % (c,))
    raise TypeError("series coefficient %r is neither a number nor a "
                    "SymbolPoly" % (c,))


def _coeff_is_zero(c):
    return c == 0


def _coeff_div(a, b):
    """a/b where b must be a unit of the coefficient ring."""
    if isinstance(b, (int, Fraction)):
        if b == 0:
            raise NonUnitDivisor("zero constant term")
        return a / Fraction(b)
    if isinstance(b, SymbolPoly):
        if not b:
            raise NonUnitDivisor("zero constant term")
        inv = b.inverse()
        return inv * a if isinstance(a, (int, Fraction)) else a * inv
    raise TypeError(type(b))


class TruncSeries:
    """Truncated power series in one counting variable, exact coefficients."""

    __slots__ = ("var", "coeffs")

    def __init__(self, var, coeffs):
        self.var = var
        self.coeffs = [_as_coeff(c) for c in coeffs]
        if not self.coeffs:
            raise ValueError("need at least the constant term")

    @classmethod
    def zero(cls, var, order):
        return cls(var, [Fraction(0)] * (order + 1))

    @classmethod
    def const(cls, var, value, order):
        c = [_as_coeff(value)] + [Fraction(0)] * order
        return cls(var, c)

    @classmethod
    def gen(cls, var, order):
        """The series x + O(x^{order+1})."""
        c = [Fraction(0)] * (order + 1)
        if order >= 1:
            c[1] = Fraction(1)
        return cls(var, c)

    @property
    def order(self):
        return len(self.coeffs) - 1

    def coeff(self, k):
        if k < 0:
            return Fraction(0)
        if k > self.order:
            raise IndexError("coefficient beyond truncation order")
        return self.coeffs[k]

    def truncate(self, order):
        if order >= self.order:
            return TruncSeries(self.var, self.coeffs + [Fraction(0)] * (order - self.order))
        return TruncSeries(self.var, self.coeffs[:order + 1])

    def _match(self, other):
        if isinstance(other, TruncSeries):
            if other.var != self.var:
                raise ValueError("variable mismatch")
            n = min(self.order, other.order)
            return self.coeffs[:n + 1], other.coeffs[:n + 1]
        if isinstance(other, (int, Fraction, SymbolPoly)):
            o = [_as_coeff(other)] + [Fraction(0)] * self.order
            return list(self.coeffs), o
        return None, None

    def __add__(self, other):
        a, b = self._match(other)
        if a is None:
            return NotImplemented
        return TruncSeries(self.var, [x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries(self.var, [-c for c in self.coeffs])

    def __sub__(self, other):
        a, b = self._match(other)
        if a is None:
            return NotImplemented
        return TruncSeries(self.var, [x - y for x, y in zip(a, b)])

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, SymbolPoly)):
            o = _as_coeff(other)
            return TruncSeries(self.var, [c * o for c in self.coeffs])
        a, b = self._match(other)
        if a is None:
            return NotImplemented
        n = len(a) - 1
        out = [Fraction(0)] * (n + 1)
        for i, x in enumerate(a):
            if _coeff_is_zero(x):
                continue
            for j in range(0, n - i + 1):
                y = b[j]
                if _coeff_is_zero(y):
                    continue
                out[i + j] = out[i + j] + x * y
        return TruncSeries(self.var, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError
            inv = Fraction(1) / Fraction(other)
            return self * inv
        if isinstance(other, SymbolPoly):
            return self * other.inverse()
        a, b = self._match(other)
        if a is None:
            return NotImplemented
        if _coeff_is_zero(b[0]):
            raise NonUnitDivisor("division by series with zero constant term")
        n = len(a) - 1
        out = []
        for k in range(n + 1):
            acc = a[k]
            for j in range(k):
                acc = acc - out[j] * b[k - j]
            out.append(_coeff_div(acc, b[0]))
        return TruncSeries(self.var, out)

    def __rtruediv__(self, other):
        return TruncSeries.const(self.var, other, self.order) / self

    def __pow__(self, k):
        if not isinstance(k, int):
            raise TypeError("use pow_frac for fractional powers")
        if k < 0:
            return (1 / self) ** (-k)
        out = TruncSeries.const(self.var, 1, self.order)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        a, b = self._match(other)
        if a is None:
            return NotImplemented
        return all(x == y for x, y in zip(a, b))

    def __repr__(self):
        bits = []
        for k, c in enumerate(self.coeffs):
            if not _coeff_is_zero(c):
                bits.append("(%r)*%s^%d" % (c, self.var, k))
        body = " + ".join(bits) if bits else "0"
        return "%s + O(%s^%d)" % (body, self.var, self.order + 1)

    def is_zero(self):
        return all(_coeff_is_zero(c) for c in self.coeffs)

    def map_coeffs(self, f):
        return TruncSeries(self.var, [f(c) for c in self.coeffs])

    def to_strings(self):
        out = []
        for c in self.coeffs:
            if isinstance(c, SymbolPoly):
                out.append(repr(c))
            else:
                out.append(rat_str(c))
        return out

    # elementary functions, each one O(n^2) coefficient recurrence

    def log(self):
        if self.coeffs[0] != 1:
            raise BadConstantTerm("log needs constant term 1")
        return (self.derivative() / self).integrate()

    def exp(self):
        """h = exp(f) from h' = f'h:  n h_n = sum_{k=1..n} k f_k h_{n-k}."""
        if not _coeff_is_zero(self.coeffs[0]):
            raise BadConstantTerm("exp needs constant term 0")
        return self._unit_recurrence(lambda n, k: k)

    def sqrt(self):
        return self.pow_frac(Fraction(1, 2))

    def pow_frac(self, r):
        """(series)^r for rational r, constant term must be 1.

        J.C.P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7), from
        f h' = r f' h with f_0 = 1:
        n h_n = sum_{k=1..n} ((r+1)k - n) f_k h_{n-k}.
        """
        if self.coeffs[0] != 1:
            raise BadConstantTerm("pow needs constant term 1")
        r1 = Fraction(r) + 1
        return self._unit_recurrence(lambda n, k: r1 * k - n)

    def _unit_recurrence(self, weight):
        """h with h_0 = 1 and n h_n = sum_{k=1..n} weight(n, k) f_k h_{n-k},
        f being self."""
        f = self.coeffs
        h = [Fraction(1)]
        for n in range(1, self.order + 1):
            acc = Fraction(0)
            for k in range(1, n + 1):
                if not _coeff_is_zero(f[k]):
                    acc = acc + weight(n, k) * f[k] * h[n - k]
            h.append(acc / n)
        return TruncSeries(self.var, h)

    def compose(self, inner):
        """self(inner); inner must have zero constant term."""
        if not isinstance(inner, TruncSeries):
            raise TypeError("inner must be a series")
        if not _coeff_is_zero(inner.coeffs[0]):
            raise BadConstantTerm("composition needs zero inner constant term")
        n = min(self.order, inner.order)
        out = TruncSeries.const(inner.var, 0, n)
        for c in reversed(self.coeffs[:n + 1]):
            out = out * inner.truncate(n) + c
        return out

    def reversion(self):
        """Compositional inverse via Lagrange inversion."""
        if not _coeff_is_zero(self.coeffs[0]):
            raise NotInvertible("reversion needs zero constant term")
        if self.order < 1 or _coeff_is_zero(self.coeffs[1]):
            raise NotInvertible("reversion needs nonzero linear term")
        n = self.order
        # q = z/a(z), unit constant term
        q = TruncSeries(self.var, self.coeffs[1:] + [Fraction(0)])
        q = 1 / q
        p = TruncSeries.const(self.var, 1, n - 1)
        coeffs = [Fraction(0)] * (n + 1)
        for k in range(1, n + 1):
            p = p * q
            coeffs[k] = _coeff_div(p.coeff(k - 1), k)
        return TruncSeries(self.var, coeffs)

    def derivative(self):
        if self.order == 0:
            return TruncSeries.zero(self.var, 0)
        return TruncSeries(self.var,
                           [k * c for k, c in enumerate(self.coeffs)][1:] + [Fraction(0)])

    def integrate(self):
        """Antiderivative with zero constant term, same truncation order."""
        out = [Fraction(0)]
        for k, c in enumerate(self.coeffs[:-1]):
            out.append(_coeff_div(c, k + 1))
        return TruncSeries(self.var, out)


def fixed_point_solve(equation, seed, order, var="g"):
    """Solve X = equation(X) when the map is triangular in the degree.

    X is one series, or a tuple of series when seed is a tuple (a system
    of equations).  Coefficient k of equation(X) may depend only on the
    coefficients < k of X, so pass k runs at truncation order k and fixes
    coefficient k; binary operations truncate to the shorter operand, so an
    equation that captures full-order series runs at the pass's order.  A
    final re-application at full order must reproduce X exactly, otherwise
    the dependence was not triangular.
    """
    system = isinstance(seed, tuple)

    def apply(xs, k):
        out = equation(xs) if system else (equation(xs[0]),)
        return tuple((y if isinstance(y, TruncSeries)
                      else TruncSeries.const(var, y, k)).truncate(k)
                     for y in out)

    xs = tuple(TruncSeries.const(var, s, 0) for s in
               (seed if system else (seed,)))
    for k in range(order + 1):
        xs = apply(tuple(x.truncate(k) for x in xs), k)
    if apply(xs, order) != xs:
        raise NotContracting("fixed point iteration did not stabilize")
    return xs if system else xs[0]
