"""The online fixed_point_solve against the pass-loop oracle.

Every check compares value, variable, truncation order and the Python type
of each coefficient: the online route must give what one full pass of the
equation per degree gives.
"""

import gc
import sys
from fractions import Fraction as F
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from mapforge import geodesic, observables, ortho_genus, planar_onecut
from mapforge.geodesic import exact_Rn_quartic, solve_Rn_series
from mapforge.observables import weighted_Zn_solve
from mapforge.ortho_genus import exact_free_energy_FN
from mapforge.planar_onecut import Potential, solve_one_cut
from mapforge.series_core import (
    NotContracting, SymbolPoly, TruncSeries, fixed_point_solve,
)

from series_oracles import pass_loop_solve

ORDER = 5
SYMS = ("t", "N")


def assert_same(got, want):
    """Equal series: variable, order, values and coefficient types."""
    if isinstance(want, (tuple, list)):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert_same(a, b)
        return
    if isinstance(want, dict):
        assert got.keys() == want.keys()
        for key in want:
            assert_same(got[key], want[key])
        return
    if not isinstance(want, TruncSeries):
        assert_same((got.R, got.S), (want.R, want.S))
        return
    assert isinstance(got, TruncSeries)
    assert (got.var, got.order) == (want.var, want.order)
    assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]
    assert got.coeffs == want.coeffs


# --- random triangular systems ------------------------------------------

def _poly(terms):
    return SymbolPoly(SYMS, dict(terms))


rat = st.builds(F, st.integers(-6, 6), st.integers(1, 4))
poly = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(-1, 1)),
                       st.integers(-3, 3), max_size=3).map(_poly)
scalar = st.one_of(st.integers(-3, 3), rat, poly)
known = st.lists(st.one_of(rat, poly), min_size=ORDER + 1,
                 max_size=ORDER + 1)
# constant terms a series divisor may have: units of the coefficient ring
unit = st.sampled_from([1, F(-2, 3), _poly({(0, 1): 1}),
                        _poly({(0, -1): F(1, 2)})])
MAPS = {
    "triple": lambda c: 3 * c,
    "negate": lambda c: -c,
    "shift": lambda c: c + 1,
    "times_t": lambda c: c * _poly({(1, 0): 1}),
    # a SymbolPoly zero, which a product skips as a Fraction zero
    "zero_poly": lambda c: c * _poly({}),
    "two": lambda c: 2,
}


def expressions(unknowns):
    leaf = st.one_of(st.tuples(st.just("x"), st.integers(0, unknowns - 1)),
                     st.tuples(st.just("g")),
                     st.tuples(st.just("known"), known),
                     st.tuples(st.just("scalar"), scalar))
    return st.recursive(leaf, lambda kids: st.one_of(
        st.tuples(st.sampled_from(["+", "-", "*"]), kids, kids),
        st.tuples(st.just("neg"), kids),
        st.tuples(st.just("pow"), kids, st.integers(0, 3)),
        # kids / (unit + g * kids): a series divisor with a unit constant
        st.tuples(st.just("div"), kids, unit, kids),
        st.tuples(st.just("scalar_div"), kids, st.sampled_from(
            [F(3), F(-1, 2), _poly({(0, 1): 2})])),
        st.tuples(st.just("map"), kids, st.sampled_from(sorted(MAPS)))),
        max_leaves=6)


def as_series(value):
    """A scalar as the constant series; a series as it is."""
    if isinstance(value, (int, F, SymbolPoly)):
        return TruncSeries.const("g", value, ORDER)
    return value


def evaluate(tree, xs, g):
    op = tree[0]
    if op == "x":
        return xs[tree[1]]
    if op == "g":
        return g
    if op == "known":
        return TruncSeries("g", tree[1])
    if op == "scalar":
        return tree[1]
    args = [evaluate(t, xs, g) if isinstance(t, tuple) else t
            for t in tree[1:]]
    if op == "+":
        return args[0] + args[1]
    if op == "-":
        return args[0] - args[1]
    if op == "*":
        return args[0] * args[1]
    if op == "neg":
        return -args[0]
    if op == "pow":
        return args[0] ** args[1]
    if op == "div":
        return args[0] / (args[1] + g * args[2])
    if op == "scalar_div":
        return as_series(args[0]) / args[1]
    return as_series(args[0]).map_coeffs(MAPS[args[1]])


def solve_both(equation, seed):
    want = pass_loop_solve(equation, seed, ORDER)
    got = fixed_point_solve(equation, seed, ORDER)
    assert_same(got, want)


@settings(max_examples=60, deadline=None)
@given(expressions(1), st.one_of(rat, poly), st.one_of(rat, poly))
def test_one_unknown_matches_pass_loop(tree, const, seed):
    g = TruncSeries.gen("g", ORDER)
    solve_both(lambda x: const + g * evaluate(tree, (x,), g), seed)


@settings(max_examples=60, deadline=None)
@given(expressions(2), expressions(2), st.one_of(rat, poly),
       st.sampled_from([F(3), F(-1, 2), F(5, 3)]), scalar, scalar)
def test_two_unknowns_with_an_update_match_pass_loop(tx, ty, c, u, sx, sy):
    # X = c + g E(X, Y) is triangular; Y + (c - f(Y)) / (u - 1) with
    # f(Y) = (u - 1) Y + g F(X, Y) reads Y_k, and returns it once it is right
    g = TruncSeries.gen("g", ORDER)

    def equation(xy):
        x, y = xy
        f = u * y - y + g * evaluate(ty, xy, g)
        return c + g * evaluate(tx, xy, g), y + (c - f) / (u - 1)

    solve_both(equation, (sx, sy))


def test_zero_coefficients_keep_their_types():
    # a product skips zero terms, so a coefficient whose every term has a
    # SymbolPoly zero factor is a Fraction zero; a quotient skips none, so
    # a SymbolPoly term keeps its coefficient a SymbolPoly, zero or not
    g = TruncSeries.gen("g", ORDER)
    t = _poly({(1, 0): 1})
    nil = _poly({})
    for equation in (lambda x: 1 + (g * x) * (x * nil),
                     lambda x: 1 + (x * nil) * (g * x),
                     lambda x: 1 + g * (x * nil) * x):
        got = fixed_point_solve(equation, 1, ORDER)
        assert [type(c) for c in got.coeffs] == [F] * (ORDER + 1)
        assert got.coeffs == [1] + [0] * ORDER
    cases = [
        (lambda x: 1 + g * (t + g * x) / (1 + g * g * x), 0,
         [1, t, 1, nil, -t * t, -2 * t]),
        (lambda x: 1 + g * (x * t) / (1 - g * g), t,
         [1, t, t * t, t + t ** 3, 2 * t * t + t ** 4,
          t + 3 * t ** 3 + t ** 5]),
    ]
    for equation, seed, want in cases:
        got = fixed_point_solve(equation, seed, ORDER)
        assert [type(c) for c in got.coeffs] == [F] + [SymbolPoly] * ORDER
        assert got.coeffs == want


def test_negative_power_matches_pass_loop():
    g = TruncSeries.gen("g", ORDER)
    solve_both(lambda x: 1 + g * (1 + g * x) ** -2, 1)
    solve_both(lambda x: 1 + g * x ** -1, 2)


def test_variable_mismatch_is_refused():
    h = TruncSeries.gen("h", ORDER)
    for solve in (fixed_point_solve, pass_loop_solve):
        with pytest.raises(ValueError, match="variable mismatch"):
            solve(lambda x: 1 + h * x, 1, ORDER)


# --- the production callers, each solved both ways --------------------

CALLERS = {
    "solve_one_cut": (planar_onecut, lambda o: solve_one_cut(
        Potential({3: F(1, 2), 4: 1}), o)),
    "solve_Rn_series": (geodesic, lambda o: solve_Rn_series(
        {3: 1, 4: F(-1, 3)}, 2, o)),
    "r_of_z": (planar_onecut, lambda o: planar_onecut.r_of_z(
        Potential({4: 1, 6: F(1, 2)}), o)),
    "weighted_Zn_solve": (observables, lambda o: weighted_Zn_solve(1, o)),
    "quartic_R0_rho_sigma": (observables,
                             observables.quartic_R0_rho_sigma),
    "string_equation_ratios": (ortho_genus, lambda o: (
        ortho_genus.string_equation_ratios({3: 1, 4: F(1, 2)}, o))),
    "gamma_rho_series": (observables, observables.gamma_rho_series),
    "gamma_sigma_series": (observables, observables.gamma_sigma_series),
}


@pytest.mark.parametrize("order", [2, 5])
@pytest.mark.parametrize("name", sorted(CALLERS))
def test_callers_match_pass_loop(name, order, monkeypatch):
    module, call = CALLERS[name]
    got = call(order)
    monkeypatch.setattr(module, "fixed_point_solve", pass_loop_solve)
    assert_same(got, call(order))


def eagerly_checked(orders):
    """fixed_point_solve, then the equation applied once more to the
    answer, on ordinary series at full order, which must reproduce it.
    That checks X = equation(X) with the node formulas but without the
    solver's rounds and taint bookkeeping, which its own per-round check
    relies on.  Each solve appends its order to orders."""

    def solve(equation, seed, order, var="g"):
        got = fixed_point_solve(equation, seed, order, var)
        xs = got if isinstance(seed, tuple) else (got,)
        again = equation(xs) if isinstance(seed, tuple) else (equation(got),)
        assert tuple((y if isinstance(y, TruncSeries)
                      else TruncSeries.const(var, y, order)).truncate(order)
                     for y in again) == xs
        orders.append(order)
        return got
    return solve


# the callers whose coefficients are polynomials in several symbols take
# seconds at order 20 (weighted_Zn_solve minutes): they stop lower
TOP_ORDER = {"quartic_R0_rho_sigma": 12, "string_equation_ratios": 12,
             "weighted_Zn_solve": 8}


@pytest.mark.parametrize("name, order", [
    (name, order) for name in sorted(CALLERS)
    for order in (2, 5, TOP_ORDER.get(name, 20))])
def test_callers_reproduce_their_answer_at_full_order(name, order,
                                                      monkeypatch):
    module, call = CALLERS[name]
    orders = []
    monkeypatch.setattr(module, "fixed_point_solve", eagerly_checked(orders))
    call(order)
    assert orders == [order]


# --- edge cases, errors, and large orders at the default recursion limit -

G2, G4 = TruncSeries.gen("g", 2), TruncSeries.gen("g", 4)
N_ONE = SymbolPoly(SYMS, {(0, 1): 1})
STABLE = "fixed point iteration did not stabilize"


@pytest.mark.parametrize("equation, seed, order, want", [
    # an output of a lower order reads 0 beyond it: the answer is padded
    (lambda x: 1 + G2 * x, 1, 4, [[F(1), F(1), F(1), F(0), F(0)]]),
    # a scalar output is the constant series of the solve's order
    (lambda x: F(3, 2), 0, 3, [[F(3, 2), F(0), F(0), F(0)]]),
    (lambda x: N_ONE, 0, 2, [[N_ONE, F(0), F(0)]]),
    # an output that is an unknown keeps its seed and the padding 0
    (lambda x: x, 5, 2, [[F(5), F(0), F(0)]]),
    (lambda xy: (xy[1], xy[0]), (1, 1), 2, [[F(1), F(0), F(0)]] * 2),
    # Y + g^2 (1 - Y) reads Y_k with weight 1 and Y_0 = 2 in degree 2:
    # it is a fixed point up to degree 1 and fails in degree 2
    (lambda y: y + G4 * G4 * (1 - y), 2, 1, [[F(2), F(0)]]),
    (lambda y: y + G4 * G4 * (1 - y), 2, 4, NotContracting),
    # each unknown needs the other's coefficient of the same degree
    (lambda xy: (xy[1] + 1, xy[0]), (0, 0), 3, NotContracting),
    (lambda xy: (xy[1], xy[0]), (1, 2), 2, NotContracting),
], ids=["lower_order_output", "fraction_output", "symbolpoly_output",
        "identity", "swap_equal_seeds", "late_failure_below_its_degree",
        "late_failure", "tuple_same_degree", "swap_unequal_seeds"])
def test_edge_cases_of_the_fixed_point_check(equation, seed, order, want):
    if want is NotContracting:
        with pytest.raises(NotContracting, match=STABLE):
            fixed_point_solve(equation, seed, order)
        return
    got = fixed_point_solve(equation, seed, order)
    got = got if isinstance(seed, tuple) else (got,)
    assert_same(got, tuple(TruncSeries("g", cs) for cs in want))


def test_a_coefficient_that_read_a_placeholder_is_computed_twice():
    # M reads X_k in round k, so its coefficient k is dropped once X_k is
    # set and recomputed from it by the round's check, then kept: each
    # coefficient of M is computed twice, and no more
    calls = []

    def count(c):
        calls.append(c)
        return c

    g = TruncSeries.gen("g", ORDER)
    got = fixed_point_solve(lambda x: x.map_coeffs(count) - x + 1 + g * x,
                            1, ORDER)
    assert got.coeffs == [1] * (ORDER + 1)
    assert len(calls) == 2 * (ORDER + 1)


def test_a_coefficient_read_one_degree_late_is_computed_once():
    # g * M reads M's coefficient k in round k + 1 and never M_ORDER, so
    # after round 0, which computes every coefficient 0 twice, M is
    # computed once per degree from 1 to ORDER - 1, and no more
    calls = []

    def count(c):
        calls.append(c)
        return c

    g = TruncSeries.gen("g", ORDER)
    got = fixed_point_solve(lambda x: 1 + g * x.map_coeffs(count), 1, ORDER)
    assert got.coeffs == [1] * (ORDER + 1)
    assert len(calls) == 2 + (ORDER - 1)


def test_non_triangular_update_raises_not_contracting():
    # Y reads Y_k with the wrong weight: the update does not return Y_k
    g = TruncSeries.gen("g", 4)
    for solve in (fixed_point_solve, pass_loop_solve):
        with pytest.raises(NotContracting,
                           match="fixed point iteration did not stabilize"):
            solve(lambda y: y + (1 + g - 3 * y) / 2, 0, 4)


@pytest.mark.parametrize("call", [
    lambda: fixed_point_solve(lambda x: x, 0, -1),
    lambda: solve_one_cut(Potential({4: 1}), -1),
    lambda: solve_Rn_series({4: 1}, 2, -1),
    lambda: weighted_Zn_solve(1, -1),
    lambda: exact_free_energy_FN({4: 1}, -1),
], ids=["fixed_point_solve", "solve_one_cut", "solve_Rn_series",
        "weighted_Zn_solve", "exact_free_energy_FN"])
def test_negative_order_is_refused(call):
    with pytest.raises(ValueError, match="order must be >= 0"):
        call()


def test_quartic_one_cut_at_order_200():
    assert sys.getrecursionlimit() == 1000
    R = solve_one_cut(Potential.quartic(), 200).R
    # R = 1 + 3 g R^2: [g^k] R = 3^k Catalan(k)
    assert R.coeffs == [3 ** k * comb(2 * k, k) // (k + 1)
                        for k in range(201)]


def test_one_cut_at_vertex_degree_400():
    # path_sum builds a graph about as deep as the vertex degree; the
    # rounds fill it in creation order, with no nested read to recurse
    assert sys.getrecursionlimit() == 1000
    sol = solve_one_cut(Potential({400: 1}), 2)
    # R = 1 + g C(399, 200) R^200: the 399-step paths from height n to n-1
    c = comb(399, 200)
    assert sol.R.coeffs == [1, c, 200 * c * c]
    assert sol.S.is_zero()


def test_no_reference_cycle_outlives_a_call():
    # every node holds its graph list, which holds the node: a solve and
    # a read-out clear the list on return, so the collector finds nothing
    gc.collect()
    gc.disable()
    try:
        solve_one_cut(Potential({3: 1, 4: 1}), 6)
        assert gc.collect() == 0
        (TruncSeries.gen("g", 5) + 1) ** 3 / 7
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_quartic_Rn_window_at_order_30():
    assert sys.getrecursionlimit() == 1000
    sol = solve_Rn_series({4: 1}, 6, 30)
    for n in range(7):
        assert sol.R[n] == exact_Rn_quartic(n, order=30)
