"""Exact coefficient rings and truncated formal power series.

Coefficients are fractions.Fraction values, or SymbolPoly values when the
series carries auxiliary symbols (N, rho, sigma, t).  Every operation is
exact; floats never enter the algebra.
A series keeps coefficients for degrees 0..order, and binary operations
truncate to the minimum order of the operands.
"""

from fractions import Fraction
from math import lcm
from operator import add, eq, neg, sub


class NonUnitDivisor(ArithmeticError):
    pass


class BadConstantTerm(ValueError):
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
    """Laurent polynomial in its symbols with rational coefficients.

    terms maps integer exponent tuples (negative ones allowed in every
    symbol) to nonzero coefficients, each an int when it is integral and a
    Fraction otherwise, so the mostly integral counting polynomials multiply
    at int speed; coeff() still returns a Fraction.  A float coefficient is
    refused.  The symbol list is fixed per instance and must agree between
    operands.
    """

    __slots__ = ("symbols", "terms")

    def __init__(self, symbols, terms):
        self.symbols = tuple(symbols)
        clean = {}
        for expo, c in terms.items():
            if type(c) is not int:
                c = exact_fraction(c)
                if c.denominator == 1:
                    c = c.numerator
            if c == 0:
                continue
            clean[tuple(expo)] = c
        self.terms = clean

    @classmethod
    def const(cls, symbols, value):
        z = (0,) * len(tuple(symbols))
        return cls(symbols, {z: value})

    @classmethod
    def sym(cls, symbols, name):
        symbols = tuple(symbols)
        expo = tuple(1 if s == name else 0 for s in symbols)
        if name not in symbols:
            raise KeyError(name)
        return cls(symbols, {expo: 1})

    @classmethod
    def _raw(cls, symbols, terms):
        """Wrap terms that arithmetic already made valid (exponent tuples,
        int or Fraction values); zeros are dropped and integral Fractions
        become ints."""
        out = cls.__new__(cls)
        out.symbols = symbols
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
        return SymbolPoly._raw(self.symbols, terms)

    def _scale(self, value):
        """self * value for a scalar: every term is scaled, by an int when
        the scalar is integral."""
        if type(value) is Fraction and value.denominator == 1:
            value = value.numerator
        return SymbolPoly._raw(self.symbols,
                               {e: c * value for e, c in self.terms.items()})

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._shift(other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return SymbolPoly._raw(self.symbols, terms)

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
        return SymbolPoly._raw(self.symbols, terms)

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
        out = SymbolPoly.const(self.symbols, 1)
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
        return SymbolPoly(self.symbols,
                          {tuple(-e for e in expo): Fraction(1) / c})

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
        # a constant equals its value, so it hashes as its value
        z = (0,) * len(self.symbols)
        if not self.terms.keys() - {z}:
            return hash(self.terms.get(z, 0))
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
        keep = [s for s in self.symbols if s not in values]
        out = {}
        for e, c in self.terms.items():
            factor = c
            ke = []
            for s, ei in zip(self.symbols, e):
                if s in values:
                    factor = factor * (Fraction(values[s]) ** ei)
                else:
                    ke.append(ei)
            ke = tuple(ke)
            out[ke] = out.get(ke, Fraction(0)) + factor
        if keep:
            return SymbolPoly(keep, out)
        return out.get((), Fraction(0))

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
    """A series coefficient: a Fraction or SymbolPoly as it is (both are
    immutable, so series share them), an int as a Fraction; anything else
    (a float, a string) is refused."""
    if isinstance(c, (Fraction, SymbolPoly)):
        return c
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, float):
        raise TypeError("float %r is not exact" % (c,))
    raise TypeError("series coefficient %r is neither a number nor a "
                    "SymbolPoly" % (c,))


def _dot(xs, ys):
    """The sum of x*y over the pairs of xs and ys, added in order.

    When every factor is a Fraction, the sum is reduced once, by Henrici's
    rule (Knuth, TAOCP vol. 2, 4.5.1): the numerator products are summed
    over a running common denominator and one Fraction is built at the end,
    where acc + x*y would normalise twice per term.  Otherwise (a SymbolPoly
    factor) the plain loop acc + x*y runs from Fraction(0), so that sum keeps
    its value, repr and Python type.  A sum of fewer than two terms is x*y,
    or Fraction(0)."""
    if len(xs) < 2:
        return xs[0] * ys[0] if xs else Fraction(0)
    if {*map(type, xs), *map(type, ys)} != {Fraction}:
        acc = Fraction(0)
        for x, y in zip(xs, ys):
            acc = acc + x * y
        return acc
    num, den = 0, 1
    for x, y in zip(xs, ys):
        q = x.denominator * y.denominator
        if den % q:
            m = lcm(den, q)
            num *= m // den
            den = m
        num += x.numerator * y.numerator * (den // q)
    return Fraction(num, den)


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

    def _read(self, op, *args):
        """The series operation op, a _LazySeries method: it builds on this
        series the nodes the online solver builds, then fills every node of
        their graph, one degree at a time, to full order.  A lazy operand
        gives NotImplemented, so that the node's reflected operation runs."""
        if args and isinstance(args[0], _LazySeries):
            return NotImplemented
        graph = []
        try:
            node = op(_LazySeries(self.var, self.order, graph, self.coeffs),
                      *args)
            if node is NotImplemented:
                return node
            for n in range(node.order + 1):
                _fill(graph, n)
            return TruncSeries(node.var, node.cs)
        finally:
            graph.clear()

    def __add__(self, other):
        return self._read(_LazySeries.__add__, other)

    __radd__ = __add__

    def __neg__(self):
        return self._read(_LazySeries.__neg__)

    def __sub__(self, other):
        return self._read(_LazySeries.__sub__, other)

    def __rsub__(self, other):
        return self._read(_LazySeries.__rsub__, other)

    def __mul__(self, other):
        return self._read(_LazySeries.__mul__, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._read(_LazySeries.__truediv__, other)

    def __rtruediv__(self, other):
        return TruncSeries.const(self.var, other, self.order) / self

    def __pow__(self, k):
        return self._read(_LazySeries.__pow__, k)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, SymbolPoly)):
            other = TruncSeries.const(self.var, other, self.order)
        elif not isinstance(other, TruncSeries):
            return NotImplemented
        elif other.var != self.var:
            raise ValueError("variable mismatch")
        elif other.order != self.order:
            return False
        return all(map(eq, self.coeffs, other.coeffs))

    def __repr__(self):
        bits = []
        for k, c in enumerate(self.coeffs):
            if c:
                bits.append("(%r)*%s^%d" % (c, self.var, k))
        body = " + ".join(bits) if bits else "0"
        return "%s + O(%s^%d)" % (body, self.var, self.order + 1)

    def is_zero(self):
        return not any(self.coeffs)

    def map_coeffs(self, f):
        return self._read(_LazySeries.map_coeffs, f)

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
        if self.coeffs[0]:
            raise BadConstantTerm("exp needs constant term 0")
        return self._unit_recurrence(1, 1, 0)

    def sqrt(self):
        return self.pow_frac(Fraction(1, 2))

    def pow_frac(self, r):
        """(series)^r for rational r, constant term must be 1.

        J.C.P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7), from
        f h' = r f' h with f_0 = 1, in integers p/q = r + 1:
        q n h_n = sum_{k=1..n} (p k - q n) f_k h_{n-k}.
        """
        if self.coeffs[0] != 1:
            raise BadConstantTerm("pow needs constant term 1")
        r1 = Fraction(r) + 1
        p, q = r1.numerator, r1.denominator
        return self._unit_recurrence(p, q, q)

    def _unit_recurrence(self, p, q, s):
        """h with h_0 = 1, q n h_n = p sum k f_k h_{n-k} - s n sum f_k h_{n-k}
        (sums over k = 1..n, f being self); each p k f_k is formed once."""
        f = self.coeffs
        pkf = [p * k * c for k, c in enumerate(f)]
        h = [Fraction(1)]
        for n in range(1, self.order + 1):
            ks = [k for k in range(1, n + 1) if f[k]]
            hs = [h[n - k] for k in ks]
            t = _dot([pkf[k] for k in ks], hs)
            if s:
                t = t - s * n * _dot([f[k] for k in ks], hs)
            h.append(t / (q * n))
        return TruncSeries(self.var, h)

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


def _node(x, var, order, graph):
    """x as a node of graph: a node as it is, a series through its
    coefficients (no node writes to a series), a scalar as the constant
    series of that order and variable (a float or a string is refused)."""
    if isinstance(x, _LazySeries):
        return x
    if isinstance(x, TruncSeries):
        return _LazySeries(x.var, x.order, graph, x.coeffs)
    return _LazySeries(var, order, graph,
                       [_as_coeff(x)] + [Fraction(0)] * order)


def _fill(nodes, n):
    """Set coefficient n of each node whose order reaches n, in the order
    given, in place of any it had."""
    for node in nodes:
        if n <= node.order:
            node.cs[n:] = [node._next(n)]


class _LazySeries:
    """A series operation as a node: the one place its formula lives.

    TruncSeries arithmetic builds a node and reads it out at once;
    fixed_point_solve builds a graph of them once, on lazy unknowns, and
    fills it one degree per round.  The base class holds a series or
    scalar operand, or an unknown, in cs.  A subclass (an _Op) appends
    itself to its operands' graph list when it is built, after them, so
    creation order is a topological order: _fill runs nodes in it, and
    _next(n) reads the operands' coefficients straight from their cs, so
    no read recurses.  Its sums of products go through _dot, so each
    coefficient has one value and one Python type whichever route fills
    it.  A node is filled up to its order, the least order of its operands,
    as an operation truncates there; the solve reads 0 beyond it (pads)."""

    __slots__ = ("var", "order", "graph", "cs")

    def __init__(self, var, order, graph, cs):
        self.var = var
        self.order = order
        self.graph = graph
        self.cs = cs

    def _operand(self, other):
        """other as a node of this graph, in this node's variable; None for
        a type to which a series operation gives NotImplemented."""
        if not isinstance(other, (_LazySeries, TruncSeries, int, Fraction,
                                  SymbolPoly)):
            return None
        node = _node(other, self.var, self.order, self.graph)
        if node.var != self.var:
            raise ValueError("variable mismatch")
        return node

    def __add__(self, other):
        b = self._operand(other)
        return NotImplemented if b is None else _Pointwise(self, b, add)

    __radd__ = __add__

    def __neg__(self):
        return _Pointwise(self, None, neg)

    def __sub__(self, other):
        b = self._operand(other)
        return NotImplemented if b is None else _Pointwise(self, b, sub)

    def __rsub__(self, other):
        b = self._operand(other)
        return NotImplemented if b is None else _Pointwise(b, self, sub)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, SymbolPoly)):
            o = _as_coeff(other)
            return _Pointwise(self, None, lambda c: c * o)
        b = self._operand(other)
        return NotImplemented if b is None else _Mul(self, b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError
            return self * (Fraction(1) / Fraction(other))
        if isinstance(other, SymbolPoly):
            return self * other.inverse()
        b = self._operand(other)
        return NotImplemented if b is None else _Div(self, b)

    def __rtruediv__(self, other):
        a = self._operand(other)
        return NotImplemented if a is None else _Div(a, self)

    def __pow__(self, k):
        if not isinstance(k, int):
            raise TypeError("use pow_frac for fractional powers")
        if k < 0:
            return (1 / self) ** (-k)
        out = self._operand(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def map_coeffs(self, f):
        return _Pointwise(self, None, lambda c: _as_coeff(f(c)))


class _Op(_LazySeries):
    """A node computed from operand a, operand b of a binary operation, and
    a parameter p."""

    __slots__ = ("a", "b", "p")

    def __init__(self, a, b=None, p=None):
        order = a.order if b is None else min(a.order, b.order)
        _LazySeries.__init__(self, a.var, order, a.graph, [])
        a.graph.append(self)
        self.a = a
        self.b = b
        self.p = p

    def _reads(self):
        """Each operand with the lag of its reads: coefficient n reads the
        operand's coefficients up to n - lag."""
        return ((self.a, 0),) if self.b is None else ((self.a, 0), (self.b, 0))


class _Pointwise(_Op):
    """Coefficient n is p(a_n, b_n), or p(a_n) when there is no b."""

    __slots__ = ()

    def _next(self, n):
        if self.b is None:
            return self.p(self.a.cs[n])
        return self.p(self.a.cs[n], self.b.cs[n])


class _Mul(_Op):
    """Coefficient n of a*b, zero terms skipped.  A coefficient n of an
    operand is read only when the other factor's constant term is nonzero
    (lag 0), so g*f(X) never reads f's coefficient n, nor computes it from
    the placeholder X_n."""

    __slots__ = ()

    def _next(self, n):
        A, B = self.a.cs, self.b.cs
        xs, ys = [], []
        x = A[0]
        if x:
            y = B[n]
            if y:
                xs.append(x)
                ys.append(y)
        if n:
            for i in range(1, n):
                x = A[i]
                if x:
                    y = B[n - i]
                    if y:
                        xs.append(x)
                        ys.append(y)
            y = B[0]
            if y:
                x = A[n]
                if x:
                    xs.append(x)
                    ys.append(y)
        return _dot(xs, ys)

    def _reads(self):
        return ((self.a, 0 if self.b.cs[0] else 1),
                (self.b, 0 if self.a.cs[0] else 1))


class _Div(_Op):
    """Coefficient n of a/b by the quotient recurrence: a_n minus the
    products of the known quotient with b, divided by the unit b_0."""

    __slots__ = ()

    def _next(self, n):
        B = self.b.cs
        if not B[0]:
            raise NonUnitDivisor("division by series with zero constant term")
        acc = self.a.cs[n] - _dot(self.cs[:n], B[n:0:-1])
        return _coeff_div(acc, B[0])


def _schedule(graph, unknowns, outs, order):
    """(needed, rest): the nodes each round k > 0 fills before X_k is set
    and after, in creation order, as round 0's constant terms fix them.
    An output reaches the needed nodes through lag-0 reads, and the live
    ones among them reach an unknown that way; rest is the live nodes and
    those not needed.  A reverse pass lowers each node's order to the last
    degree an output reads of it, so no coefficient above it is computed."""
    need = dict.fromkeys(outs, order)
    needed = set(outs)
    for node in reversed(graph):
        node.order = top = min(node.order, need.get(node, -1))
        for x, lag in node._reads():
            need[x] = max(need.get(x, -1), top - lag)
            if not lag and node in needed:
                needed.add(x)
    live = set(unknowns)
    for node in graph:
        if node in needed and any(x in live for x, lag in node._reads()
                                  if not lag):
            live.add(node)
    return ([node for node in graph if node in needed],
            [node for node in graph if node in live or node not in needed])


def fixed_point_solve(equation, seed, order, var="g"):
    """Solve X = equation(X) when the map is triangular in the degree.

    X is one series, or a tuple of series when seed is a tuple (a system
    of equations).  Coefficient k of equation(X) may depend only on the
    coefficients < k of X, or on X_k through an update such as
    Y + (c - f(Y))/(u - 1), which gives the true Y_k when it reads Y_k = 0
    and keeps a true Y_k as it is.

    The solve is online.  The equation runs once, on lazy unknowns, and
    builds a graph of the nodes that TruncSeries arithmetic reads out at
    once; it may use +, -, *, / and integer ** on them, with series, int,
    Fraction and SymbolPoly operands, and map_coeffs.  Round k fills
    coefficient k of the nodes in creation order, reading the placeholder
    X_k as the seed when k = 0 and 0 after it, and sets X_k from the
    outputs.  The nodes that read the placeholder are then filled again
    from X_k, so each coefficient is what equation(X truncated to order k)
    gives there, and coefficient k of each output, F(X)_k, must equal X_k,
    or the map is not triangular.  Round 0 fills every node twice; its
    constant terms then fix the schedule of the later rounds (_schedule).
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    system = isinstance(seed, tuple)
    graph = []
    # an unknown's cs holds the solved coefficients, then the placeholders
    # X_k a pass over truncations reads: the seed at k = 0, 0 after it
    unknowns = tuple(_LazySeries(var, order, graph, [_as_coeff(s)]
                                 + [Fraction(0)] * order)
                     for s in (seed if system else (seed,)))
    try:
        outs = [_node(y, var, order, graph) for y in (
            equation(unknowns) if system else (equation(unknowns[0]),))]
        # round 0 fills every node from the seed, then again from X_0
        needed = rest = graph
        for k in range(order + 1):
            _fill(needed, k)
            xk = [y.cs[k] if k <= y.order else Fraction(0) for y in outs]
            for x, c in zip(unknowns, xk):
                x.cs[k] = c
            _fill(rest, k)
            if [y.cs[k] if k <= y.order else Fraction(0)
                    for y in outs] != xk:
                raise NotContracting("fixed point iteration did not stabilize")
            if not k:
                needed, rest = _schedule(graph, unknowns, outs, order)
        xs = tuple(TruncSeries(y.var, x.cs) for x, y in zip(unknowns, outs))
        return xs if system else xs[0]
    finally:
        # each node holds the list and the list holds the node: break the
        # cycle, so the graph is freed on return, not by the collector
        graph.clear()
