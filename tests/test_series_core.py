from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import example, given, settings, strategies as st

from mapforge.series_core import (
    BadConstantTerm, NonUnitDivisor, NotContracting,
    SymbolPoly, TruncSeries, _dot, fixed_point_solve, rat_parse, rat_str,
)

from series_oracles import convolution, power, quotient


def S(coeffs, var="g"):
    return TruncSeries(var, coeffs)


def test_mul_difference_of_squares():
    assert S([1, 1]) * S([1, -1]) == S([1, 0])
    assert (S([1, 1, 0]) * S([1, -1, 0])).coeffs == [1, 0, -1]


def test_geometric_series():
    one = TruncSeries.const("g", 1, 6)
    inv = one / S([1, -1, 0, 0, 0, 0, 0])
    assert inv.coeffs == [1] * 7


def test_square_by_hand():
    sq = S([1, 3, 18]) ** 2
    assert sq.coeffs == [1, 6, 45]
    # a negative power inverts first
    assert S([1, 3, 18]) ** -2 * sq == 1


def test_min_order_truncation():
    a = S([1, 2, 3, 4])
    b = S([1, 1])
    assert (a + b).order == 1
    assert (a * b).order == 1


def test_equality_needs_the_same_order():
    # a series is its coefficients and its truncation order: one more
    # known coefficient makes a different series, in both directions
    assert S([1, 2, 3]) != S([1, 2])
    assert S([1, 2]) != S([1, 2, 3])
    assert S([1, 2, 0]) != S([1, 2])
    assert S([1, 2, 3]) == S([1, 2, 3])
    assert S([3, 0]) == 3
    with pytest.raises(ValueError, match="variable mismatch"):
        S([1, 2]) == TruncSeries("x", [1, 2, 3])


def test_div_nonunit_raises():
    with pytest.raises(NonUnitDivisor):
        S([0, 1, 2]) / S([0, 1, 1])


def test_sqrt_of_1_minus_12g():
    s = S([1, -12, 0, 0]).sqrt()
    assert s.coeffs == [1, -6, -18, -108]


def test_log_cases():
    assert TruncSeries.const("g", 1, 5).log().is_zero()
    lg = S([1, 3, 18, 135]).log()
    assert lg.coeffs == [0, 3, F(27, 2), 90]


def test_elementary_bad_constant():
    with pytest.raises(BadConstantTerm):
        S([2, 1]).log()
    with pytest.raises(BadConstantTerm):
        S([1, 1]).exp()


def test_compose_log_exp_inverse():
    # log and exp are inverse maps: exp(log f) = f for f_0 = 1, and
    # log(exp h) = h for h_0 = 0
    g = TruncSeries.gen("g", 8)
    f = 1 / (1 - g) ** 2 + g ** 3
    assert f.log().exp() == f
    h = 2 * g - F(1, 3) * g ** 2 + g ** 5
    assert h.exp().log() == h
    assert (1 + g).log() == S([0] + [F((-1) ** (k + 1), k)
                                     for k in range(1, 9)])


def test_fixed_point_quartic_R():
    r = fixed_point_solve(lambda x: 1 + 3 * TruncSeries.gen("g", 3) * x * x, 1, 3)
    assert r.coeffs == [1, 3, 18, 135]


def test_fixed_point_constant_and_other():
    assert fixed_point_solve(lambda x: TruncSeries.const("g", 7, 4), 7, 4).coeffs[0] == 7
    g = TruncSeries.gen("g", 2)
    # hand iteration: X = 1 + 2g + 6g^2 + ...
    r = fixed_point_solve(lambda x: 1 + g * (x * x + x), 1, 2)
    assert r.coeffs == [1, 2, 6]


def test_fixed_point_non_triangular():
    with pytest.raises(NotContracting):
        fixed_point_solve(lambda x: x + 1, 0, 3)


def test_fixed_point_tuple_system():
    # X = 1 + g Y^2, Y = 1 + g X; eliminating Y gives X = 1 + g (1 + g X)^2
    g = TruncSeries.gen("g", 8)
    X, Y = fixed_point_solve(lambda xy: (1 + g * xy[1] * xy[1], 1 + g * xy[0]),
                             (1, 1), 8)
    assert X == fixed_point_solve(lambda x: 1 + g * (1 + g * x) ** 2, 1, 8)
    assert Y == 1 + g * X
    assert X.coeffs[:5] == [1, 1, 2, 3, 6]
    assert X.order == Y.order == 8


def test_fixed_point_tuple_non_triangular():
    # each unknown needs the other's coefficient of the same degree
    with pytest.raises(NotContracting):
        fixed_point_solve(lambda xy: (xy[1] + 1, xy[0]), (0, 0), 3)


rat = st.builds(F, st.integers(-50, 50), st.integers(1, 9))
series6 = st.lists(rat, min_size=7, max_size=7).map(lambda c: S(c))
unit_series = st.lists(rat, min_size=6, max_size=6).map(lambda c: S([F(1)] + c))


@settings(max_examples=40, deadline=None)
@given(series6, series6, series6)
def test_ring_laws(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * (b * c) == (a * b) * c
    assert a * b == b * a
    assert a + b == b + a


@settings(max_examples=25, deadline=None)
@given(unit_series)
def test_exp_log_and_sqrt_roundtrip(a):
    assert a.log().exp() == a
    assert a.sqrt() * a.sqrt() == a


def _taylor_reference(x, coeff):
    """sum_{k>=0} coeff(k) x^k by repeated multiplication, x = O(g)."""
    out = TruncSeries.const(x.var, 0, x.order)
    term = TruncSeries.const(x.var, 1, x.order)
    for k in range(x.order + 1):
        out = out + term * coeff(k)
        term = term * x
    return out


def _binom(r, k):
    out = F(1)
    for i in range(k):
        out = out * (r - i) / (i + 1)
    return out


N_SYMS = ("N",)
laurent_n = st.dictionaries(st.tuples(st.integers(-2, 2)), rat, max_size=3).map(
    lambda terms: SymbolPoly(N_SYMS, terms))


@settings(max_examples=25, deadline=None)
@given(st.one_of(st.lists(rat, min_size=5, max_size=5),
                 st.lists(laurent_n, min_size=4, max_size=4)))
def test_elementary_functions_match_taylor_sums(tail):
    x = S([tail[0] * 0] + tail)     # zero constant term, in the tail's ring
    log_c = lambda k: F((-1) ** (k + 1), k) if k else 0  # noqa: E731
    assert (1 + x).log() == _taylor_reference(x, log_c)
    assert x.exp() == _taylor_reference(x, lambda k: F(1, factorial(k)))
    for r in (F(-1, 2), F(1, 3), F(2, 3)):
        assert (1 + x).pow_frac(r) == _taylor_reference(
            x, lambda k: _binom(r, k))


@settings(max_examples=25, deadline=None)
@given(st.lists(laurent_n, min_size=1, max_size=4))
def test_sqrt_squares_back_over_laurent_polynomials(tail):
    f = S([SymbolPoly.const(N_SYMS, 1)] + tail)
    assert f.sqrt() ** 2 == f


# series over both coefficient rings, of orders 0..5; a divisor's constant
# term is a unit of its ring
ring_coeff = st.one_of(rat, laurent_n)
any_series = st.lists(ring_coeff, min_size=1, max_size=6).map(S)
unit_series_n = st.builds(
    lambda c0, tail: S([c0] + tail),
    st.sampled_from([F(1), F(-2, 3), SymbolPoly(N_SYMS, {(1,): 1}),
                     SymbolPoly(N_SYMS, {(-1,): F(1, 2)})]),
    st.lists(ring_coeff, max_size=5))


def _assert_plain(got, want, order):
    """got is the series "g" of this order whose coefficients equal want."""
    assert (got.var, got.order) == ("g", order)
    assert got.coeffs == want


@settings(max_examples=30, deadline=None)
@given(any_series, any_series, unit_series_n)
def test_arithmetic_matches_plain_recurrences(a, b, u):
    _assert_plain(a * b, convolution(a.coeffs, b.coeffs),
                  min(a.order, b.order))
    _assert_plain(a / u, quotient(a.coeffs, u.coeffs),
                  min(a.order, u.order))
    _assert_plain(1 / u, quotient([F(1)] + [F(0)] * u.order, u.coeffs),
                  u.order)
    for k in range(-2, 5):
        _assert_plain(u ** k, power(u.coeffs, k), u.order)
        if k >= 0:
            _assert_plain(a ** k, power(a.coeffs, k), a.order)


def test_determinism():
    a = S([F(1), F(2, 3), F(-5, 7), F(1, 2)])
    x = (a * a / a).log().exp()
    y = (a * a / a).log().exp()
    assert x.coeffs == y.coeffs == a.coeffs


def _plain_dot(xs, ys):
    acc = F(0)
    for x, y in zip(xs, ys):
        acc = acc + x * y
    return acc


# zero numerators and integral values, small fractions, and large
# numerators over large pairwise coprime denominators
dot_rat = st.one_of(
    st.builds(F, st.integers(-3, 3)),
    rat,
    st.builds(F, st.integers(-10 ** 40, 10 ** 40),
              st.sampled_from([2 ** 61 - 1, 2 ** 89 - 1, 10 ** 9 + 7,
                               3 ** 40, 5 ** 30])),
)
dot_pairs = st.one_of(
    st.lists(st.tuples(dot_rat, dot_rat), max_size=8),
    st.lists(st.tuples(st.one_of(dot_rat, laurent_n),
                       st.one_of(dot_rat, laurent_n)), max_size=8),
)


@settings(deadline=None)
@given(dot_pairs)
@example([])
@example([(F(2, 3), F(3, 4))])
@example([(F(1, 2), SymbolPoly(N_SYMS, {(1,): 2}))])
@example([(F(1, 2 ** 61 - 1), F(1)), (F(-1, 10 ** 9 + 7), F(1)),
          (F(3, 2 ** 61 - 1), F(1))])
def test_dot_matches_the_plain_loop(pairs):
    # in value, repr and Python type, over Fractions and SymbolPoly mixes
    xs = [x for x, _ in pairs]
    ys = [y for _, y in pairs]
    got, want = _dot(xs, ys), _plain_dot(xs, ys)
    assert type(got) is type(want)
    assert got == want
    assert repr(got) == repr(want)


def test_quotient_with_zero_symbolpoly_products_keeps_its_types():
    # every product of the recurrence has a SymbolPoly zero factor: the
    # coefficients after the first are SymbolPoly, zero or not, as the
    # left fold a_n - q_0 b_n - ... makes them
    zero = SymbolPoly(N_SYMS, {})
    b = S([F(1), zero, zero, zero])
    q = S([F(1), F(2), F(0), F(-1, 3)]) / b
    assert [type(c) for c in q.coeffs] == [F, SymbolPoly, SymbolPoly,
                                          SymbolPoly]
    assert q.coeffs == [1, 2, 0, F(-1, 3)]
    assert not q.coeffs[2]


def test_symbol_poly_laurent():
    N = SymbolPoly.sym(("N",), "N")
    v = 2 * N + N ** (-1)
    assert v.coeff(N=1) == 2 and v.coeff(N=-1) == 1
    assert v.exponents_of("N") == [-1, 1]
    assert (N * N.inverse()) == 1
    with pytest.raises(NonUnitDivisor):
        (N + 1).inverse()
    # every symbol is Laurent: a monomial in a second symbol inverts too
    rho = SymbolPoly.sym(("N", "rho"), "rho")
    inv = (3 * rho ** 2).inverse()
    assert inv.terms == {(0, -2): F(1, 3)}
    assert inv * 3 * rho ** 2 == 1
    assert repr(inv) == "1/3*rho^-2"
    only_rho = inv.subs(N=5)
    assert only_rho.symbols == ("rho",) and repr(only_rho) == "1/3*rho^-2"
    assert only_rho.subs(rho=2) == F(1, 12)

def test_symbol_poly_subs_and_series():
    syms = ("rho", "sigma")
    rho = SymbolPoly.sym(syms, "rho")
    sigma = SymbolPoly.sym(syms, "sigma")
    p = rho * sigma * (1 + rho * sigma)
    assert p.subs(rho=1, sigma=1) == 2
    s = TruncSeries("g", [SymbolPoly.const(syms, 1), p])
    assert (s * s).coeffs[1] == 2 * p


# SymbolPoly over (N, x) with negative powers of N, its terms a mix of ints and
# Fractions, against a plain dict-of-Fraction reference
SP_SYMS = ("N", "x")
scalar = st.one_of(st.integers(-30, 30), rat)
sp_terms = st.dictionaries(st.tuples(st.integers(-2, 2), st.integers(0, 2)),
                           scalar, max_size=4)


def _ref(terms):
    return {e: F(c) for e, c in terms.items() if c}


def _ref_add(p, q, sign=1):
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, F(0)) + sign * c
    return {e: c for e, c in out.items() if c}


def _ref_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = (e1[0] + e2[0], e1[1] + e2[1])
            out[e] = out.get(e, F(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _assert_matches(poly, ref):
    assert poly.terms == ref
    for e, c in poly.terms.items():
        # an int when integral, a Fraction otherwise; never a float
        assert type(c) is (int if F(c).denominator == 1 else F)
        assert type(poly.coeff(N=e[0], x=e[1])) is F
    assert type(poly.coeff(N=9, x=9)) is F


@settings(max_examples=60, deadline=None)
@given(sp_terms, sp_terms, scalar, st.integers(-2, 2), scalar)
def test_symbol_poly_matches_fraction_reference(ta, tb, s, k, mc):
    a = SymbolPoly(SP_SYMS, ta)
    b = SymbolPoly(SP_SYMS, tb)
    ra, rb = _ref(ta), _ref(tb)
    _assert_matches(a, ra)
    _assert_matches(a + b, _ref_add(ra, rb))
    _assert_matches(a - b, _ref_add(ra, rb, -1))
    _assert_matches(a * b, _ref_mul(ra, rb))
    _assert_matches(a + s, _ref_add(ra, _ref({(0, 0): s})))
    _assert_matches(a * s, _ref_mul(ra, _ref({(0, 0): s})))
    # a scalar equals exactly the polynomial that is that constant
    assert (a == s) == (ra == _ref({(0, 0): s}))
    assert ((a + s) == s) == (not ra)
    assert SymbolPoly.const(SP_SYMS, s) == s
    assert a - a == 0
    # equal to its value, so a constant hashes as its value
    assert hash(SymbolPoly.const(SP_SYMS, s)) == hash(s)
    assert len({a - a, 0}) == 1
    if mc:
        m = SymbolPoly(SP_SYMS, {(k, 0): mc})
        _assert_matches(m.inverse(), {(-k, 0): 1 / F(mc)})
        prod = a * b
        _assert_matches(prod * m.inverse() * m, prod.terms)
        assert prod * m.inverse() * m == prod
        _assert_matches(prod / mc, _ref_mul(prod.terms, {(0, 0): 1 / F(mc)}))
    # equal polynomials hash alike, whatever type their terms came in
    assert hash(SymbolPoly(SP_SYMS, ra)) == hash(a)


def test_symbol_poly_refuses_float_coefficients():
    with pytest.raises(TypeError):
        SymbolPoly(SP_SYMS, {(0, 1): 0.5})
    with pytest.raises(TypeError):
        SymbolPoly.const(SP_SYMS, 1.0)
    # integral Fractions are stored as ints; coeff() reads Fractions
    p = SymbolPoly(SP_SYMS, {(0, 1): F(6, 3), (1, 0): F(1, 2)})
    assert p.terms == {(0, 1): 2, (1, 0): F(1, 2)}
    assert type(p.terms[(0, 1)]) is int
    assert type(p.coeff(x=1)) is F and type(p.coeff()) is F
    assert repr(p) == "2*x^1 + 1/2*N^1"


def test_rat_codec_roundtrip():
    for q in [F(0), F(3), F(-9, 8), F(22, 7)]:
        assert rat_parse(rat_str(q)) == q
    assert rat_str(F(9, 8)) == "9/8"
    assert rat_str(F(4)) == "4"


def test_serialization_strings():
    assert S([F(0), F(1, 2), F(9, 8)]).to_strings() == ["0", "1/2", "9/8"]


def test_series_refuses_float_coefficients():
    with pytest.raises(TypeError):
        S([1, 0.5])
    with pytest.raises(TypeError):
        S([1, 1]) * 0.5
    assert S([1, F(1, 2)]).coeffs == [F(1), F(1, 2)]


def test_series_refuses_string_coefficients():
    with pytest.raises(TypeError, match="neither a number nor a SymbolPoly"):
        S(["1/10", 1])
    with pytest.raises(TypeError):
        TruncSeries.const("g", "1", 2)
