import random
from fractions import Fraction as F
from math import sqrt

import pytest

from mapforge.series_core import SymbolPoly, TruncSeries
from mapforge.planar_onecut import Potential, solve_one_cut
from mapforge.geodesic import fixed_area_ratio, solve_Rn_series
from mapforge.bijections import (
    NotQuadrangulation, enumerate_quadrangulations, enumerate_well_labeled,
    sample_quadrangulation, sample_quadrangulation_uniform,
)
from mapforge.observables import (
    BranchError, _exact_quotient, IntegrationObstruction, _real_cubic_roots, edges_at_distance,
    edges_at_distance_asymptotic, gamma_infinite, gamma_rho_closed_form,
    gamma_rho_series, gamma_sigma_closed_form, gamma_sigma_series,
    integrate_sigma_log, local_weight_average, mc_profile, neighbor_pgf,
    quartic_R0_rho_sigma, simple_neighbor_pgf, unrooted_Gamma0,
    vertices_at_distance, vertices_at_distance_asymptotic,
    vertices_at_distance_numeric,
    weighted_Rn_solve, weighted_Zn_solve,
)

from map_oracles import origin_average
from quartic_oracles import quartic_table_oracle


def test_edges_at_distance_oracles():
    assert edges_at_distance(0, 1) == F(4, 3)
    assert edges_at_distance(1, 1) == F(2, 3)
    assert edges_at_distance(2, 1) == 0
    assert edges_at_distance(0, 2) == 2
    # <e_0>_A = 4A/(A+2) exactly
    for A in (1, 2, 3, 5):
        assert edges_at_distance(0, A) == F(4 * A, A + 2)


def test_edges_match_exhaustive_counting():
    for A in (1, 2, 3):
        for n in range(A + 1):
            def stat(m, dist, vertex_of, n=n):
                c = 0
                for d in range(m.n_darts):
                    if d < m.alpha[d]:
                        a = dist[vertex_of[d]]
                        b = dist[vertex_of[m.alpha[d]]]
                        if {a, b} == {n, n + 1}:
                            c += 1
                return c
            assert edges_at_distance(n, A) == origin_average(A, stat)


def test_edges_asymptotic():
    assert edges_at_distance_asymptotic(0) == 4
    assert edges_at_distance_asymptotic(1) == 19
    for n in (50, 100):
        ratio = edges_at_distance_asymptotic(n) / (F(6, 7) * n ** 3)
        assert abs(ratio - 1) < F(7, n)


def test_vertices_at_distance_oracles():
    assert vertices_at_distance(0, 5) == 1
    assert vertices_at_distance(1, 1) == F(4, 3)
    assert vertices_at_distance(2, 1) == F(2, 3)
    # the layer counts exhaust all A+2 vertices
    for A in (1, 2, 3, 4):
        total = sum(vertices_at_distance(n, A) for n in range(A + 2))
        assert total == A + 2


def test_vertices_match_exhaustive_counting():
    for A in (1, 2, 3):
        for n in range(A + 2):
            def stat(m, dist, vertex_of, n=n):
                return sum(1 for x in dist if x == n)
            assert vertices_at_distance(n, A) == origin_average(A, stat)


def test_vertices_asymptotic():
    assert vertices_at_distance_asymptotic(0) == 1
    assert vertices_at_distance_asymptotic(1) == 3
    assert vertices_at_distance_asymptotic(2) == F(54, 5)
    for n in (50, 100):
        ratio = vertices_at_distance_asymptotic(n) / (F(3, 7) * n ** 3)
        assert abs(ratio - 1) < F(4, n)


def test_weighted_solve_reduces_to_geodesic():
    order = 6
    gs = solve_Rn_series({4: F(1)}, 3, order)
    for k in (0, 1, 2):
        rs = weighted_Rn_solve([F(1)] * (k + 1), [F(1)] * (k + 1), order)
        for n in range(k + 2):
            assert rs[n] == gs.R[n]
    # Z_0 at unit weights is R - gR^3
    R = solve_one_cut(Potential.quartic(), order).R
    g = TruncSeries.gen("g", order)
    rs = weighted_Rn_solve([F(1)], [F(1)], order)
    assert rs[0] == R - g * R ** 3


def test_weighted_solve_first_order():
    zs = weighted_Zn_solve(0, 1)
    rho = SymbolPoly.sym(("rho0", "sigma0"), "rho0")
    sig = SymbolPoly.sym(("rho0", "sigma0"), "sigma0")
    assert zs[0].coeffs[1] == sig * (rho * sig + rho ** 2 * sig ** 2)


def _tree_weight_stats(t):
    """(#vertices labeled 0, #edge endpoints labeled 0) of a labeled tree."""
    v0 = 0
    ends = 0

    def rec(node):
        nonlocal v0, ends
        if node[0] == 0:
            v0 += 1
        for c in node[1]:
            if node[0] == 0:
                ends += 1
            if c[0] == 0:
                ends += 1
            rec(c)

    rec(t)
    return v0, ends


def test_weighted_solve_matches_weighted_tree_enumeration():
    # R_0(g|rho,sigma) counts well-labeled trees with rho per label-0
    # vertex and sigma per edge endpoint at a label-0 vertex
    Q = quartic_R0_rho_sigma(6)
    for A in range(1, 7):
        terms = {}
        for t in enumerate_well_labeled(A):
            v0, ends = _tree_weight_stats(t)
            terms[(v0, ends)] = terms.get((v0, ends), F(0)) + 1
        assert SymbolPoly(("rho", "sigma"), terms) == Q.coeffs[A]


def test_quartic_R0_rho_sigma():
    Q = quartic_R0_rho_sigma(4)
    assert [c.subs(rho=1, sigma=1) for c in Q.coeffs] == [1, 2, 9, 54, 378]
    rho = SymbolPoly.sym(("rho", "sigma"), "rho")
    sig = SymbolPoly.sym(("rho", "sigma"), "sigma")
    assert Q.coeffs[1] == rho * sig * (1 + rho * sig)
    for A in range(1, 5):
        assert Q.coeffs[A].subs(sigma=0) == 0
    assert Q.coeffs[0].subs(sigma=0) == rho.subs(sigma=0)
    # agrees with the windowed solve at k=0
    zs = weighted_Zn_solve(0, 4)
    for A in range(5):
        relab = {(e[0], e[1] - 1): c
                 for e, c in zs[0].coeffs[A].terms.items()}
        assert SymbolPoly(("rho", "sigma"), relab) == Q.coeffs[A]


def test_weighted_Zn_terms_are_ints():
    # the counting polynomials are integral, so SymbolPoly keeps every
    # term as an int: a Fraction here would be the slow path coming back
    zs = weighted_Zn_solve(2, 5)
    types = [type(c) for series in zs.values() for coeff in series.coeffs
             for c in coeff.terms.values()]
    assert len(types) == 1230
    assert set(types) == {int}


def test_exact_quotient_inverts_the_product():
    syms = ("rho", "sigma", "x")
    quotient = _exact_quotient(syms, "rho", "sigma")
    rho_sigma_1 = SymbolPoly.sym(syms, "rho") * SymbolPoly.sym(syms, "sigma") - 1
    rng = random.Random(24)
    for _ in range(200):
        q = SymbolPoly(syms, {
            tuple(rng.randrange(5) for _ in syms):
                F(rng.randint(-9, 9), rng.randint(1, 4))
            for _ in range(rng.randrange(12))})
        assert quotient(q * rho_sigma_1) == q
        # a product with rho*sigma - 1 vanishes at rho = sigma = 1, so one
        # more monomial makes it not divisible
        extra = SymbolPoly(syms, {
            tuple(rng.randrange(5) for _ in syms): rng.randint(1, 9)})
        with pytest.raises(ArithmeticError) as err:
            quotient(q * rho_sigma_1 + extra)
        assert str(err.value) == "polynomial not divisible by rho*sigma-1"
    assert quotient(F(0)) == 0
    with pytest.raises(ArithmeticError):
        quotient(F(3))


def test_gamma0_rooting_relation():
    order = 6
    Q = quartic_R0_rho_sigma(order)
    G = unrooted_Gamma0(order)
    for A in range(1, order + 1):
        back = {e: c * e[1] for e, c in G.coeffs[A].terms.items()}
        assert SymbolPoly(("rho", "sigma"), back) == Q.coeffs[A]
    assert G.coeffs[1].subs(rho=1, sigma=1) == F(3, 2)


def test_gamma0_integration_obstruction():
    syms = ("rho", "sigma")
    bad = TruncSeries("g", [SymbolPoly.const(syms, 0),
                            SymbolPoly.sym(syms, "rho")])
    with pytest.raises(IntegrationObstruction):
        integrate_sigma_log(bad)


def test_local_weight_average_matches_exhaustive():
    for A in (1, 2, 3):
        def stat_factory(e):
            def stat(m, dist, vertex_of):
                n1 = len({vertex_of[m.alpha[d]] for d in range(m.n_darts)
                          if dist[vertex_of[d]] == 0})
                n01 = sum(1 for d in range(m.n_darts)
                          if dist[vertex_of[d]] == 0)
                return F(1) if (n1, n01) == e else F(0)
            return stat
        got = local_weight_average(A)
        for e, c in got.terms.items():
            assert origin_average(A, stat_factory(e)) == c
        total = sum(c for c in got.terms.values())
        assert total == 1


def test_gamma_cubic_specializations():
    assert gamma_rho_series(8) == gamma_rho_closed_form(8)
    assert gamma_sigma_series(8) == gamma_sigma_closed_form(8)
    cf = gamma_rho_closed_form(4).coeffs
    assert cf[1] == neighbor_pgf(1) == F(3, 8)
    assert cf[2] == neighbor_pgf(2) == F(27, 128)


def test_gamma_numeric_branch():
    assert gamma_infinite(1, 1) == pytest.approx(1.0, abs=1e-12)
    for rho in (0.2, 0.7, 1.0, 1.2):
        assert gamma_infinite(rho, 1) == pytest.approx(
            2 / sqrt(4 - 3 * rho) - 1, abs=1e-9)
    for sig in (0.3, 0.8, 1.0):
        assert gamma_infinite(1, sig) == pytest.approx(
            (sqrt((6 + 3 * sig) / (6 - 5 * sig)) - 1) / 2, abs=1e-9)
    with pytest.raises(BranchError):
        gamma_infinite(F(4, 3), 1)


def test_real_cubic_roots():
    # three real roots (trigonometric form), one (Cardano), p = 0, and the
    # triple root at 0
    assert _real_cubic_roots(1, -6, 11, -6) == pytest.approx(
        [1, 2, 3], rel=1e-15)
    assert _real_cubic_roots(2, -2, 2, -2) == [1.0]
    assert _real_cubic_roots(1, 0, 0, -8) == [2.0]
    assert _real_cubic_roots(1, 0, 0, 0) == [0.0] * 3
    # gamma_infinite's cubic at (rho, sigma) = (1, 1): (G - 1)(G + 2)(G + 3)
    assert _real_cubic_roots(1, 4, 1, -6) == pytest.approx(
        [-3, -2, 1], rel=1e-15)


def test_real_cubic_double_roots():
    # rounding leaves the double root of (x - 1)^2 (x + 6) a complex pair
    # about 1e-8 apart; it must come back as 1 twice
    assert _real_cubic_roots(1, 4, -11, 6) == [-6.0, 1.0, 1.0]
    # 4 (x + 3)(2x + 1)^2 and a double root below a simple one
    assert _real_cubic_roots(16, 64, 52, 12) == pytest.approx(
        [-3, -0.5, -0.5], rel=1e-15)
    assert _real_cubic_roots(1, -1, -5, -3) == pytest.approx(
        [-1, -1, 3], rel=1e-15)
    # every k (x - a)^2 (x - b) with a != b on a small rational grid
    for a in (F(-7, 3), F(1, 2), 1, F(13, 5)):
        for b in (-6, F(-1, 3), 2, F(9, 2)):
            for k in (1, F(-2, 7), 12):
                coeffs = (k, -k * (2 * a + b), k * (a * a + 2 * a * b),
                          -k * a * a * b)
                roots = _real_cubic_roots(*(float(x) for x in coeffs))
                assert roots == pytest.approx(sorted([a, a, b]), rel=1e-12)


def test_gamma_infinite_on_the_discriminant_locus():
    # at (rho, sigma) = (1/5, 5/2) the cubic is -(G - 1)^2 (G + 6) / 2 and
    # at (1, -2) it is 4 (G + 3)(2G + 1)^2: the top branch is double
    for point in ((F(1, 5), F(5, 2)), (0.2, 2.5), (1, -2)):
        with pytest.raises(BranchError, match="branch collision"):
            gamma_infinite(*point)


def test_neighbor_probabilities_sum_to_one():
    partial = sum(neighbor_pgf(n) for n in range(1, 60))
    assert 0 < 1 - partial < F(1, 10 ** 6)
    assert float(partial) == pytest.approx(1.0, abs=1e-6)


def test_simple_neighbor_pgf():
    assert simple_neighbor_pgf(0) == pytest.approx(0.0, abs=1e-12)
    assert simple_neighbor_pgf(1) == pytest.approx(sqrt(7) - 2, abs=1e-12)
    with pytest.raises(ValueError):
        simple_neighbor_pgf(2)


def test_numeric_large_area_route_matches_exact():
    # oracle: the integer table of R_n and TruncSeries.log, against the
    # single coefficients that Lagrange inversion reads
    A_max = 120
    table = quartic_table_oracle(6, A_max)
    R = [TruncSeries("g", table[n]) for n in range(7)]
    layers = [R[0].log()] + [(R[n] / R[n - 1]).log() for n in range(1, 6)]
    for A in range(1, A_max + 1):
        per_pointed = F(4 * A, A + 2) / table[0][A]
        for n in range(7):
            below = table[n - 1][A] if n else 0
            pairs = [
                (fixed_area_ratio(n, A), table[n][A] / table[0][A]),
                (edges_at_distance(n, A), per_pointed * (table[n][A] - below)),
                (vertices_at_distance(n, A),
                 per_pointed * layers[n - 1].coeffs[A] if n else F(1))]
            for got, want in pairs:
                assert type(got) is F and got == want
    # the values approach the asymptotic formula from below
    for n in (1, 2):
        lo = vertices_at_distance_numeric(n, 4000)
        hi = float(vertices_at_distance_asymptotic(n))
        assert 0.97 * hi < lo < hi


def test_mc_profile_matches_exact_finite_area():
    A = 30
    exact = [float(vertices_at_distance(n, A)) for n in range(4)]
    rows = mc_profile(A, 3, 600, seed=2)
    assert rows[0] == (1.0, 0.0)
    for n in range(1, 4):
        est, se = rows[n]
        assert se > 0
        assert abs(est - exact[n]) < 4 * se


def test_mc_profile_methods_agree():
    A = 25
    a = mc_profile(A, 2, 500, seed=9, method="reweighted")
    b = mc_profile(A, 2, 2000, seed=10, method="pointed")
    for n in (1, 2):
        diff = abs(a[n][0] - b[n][0])
        assert diff < 4 * sqrt(a[n][1] ** 2 + b[n][1] ** 2)


def test_mc_profile_refuses_no_samples():
    # with no samples the weights would sum to 0
    for method in ("reweighted", "pointed"):
        with pytest.raises(ValueError, match="samples must be >= 1"):
            mc_profile(5, 2, 0, 1, method=method)


def test_mc_profile_refuses_a_negative_n_max():
    with pytest.raises(ValueError, match="n_max must be >= 0"):
        mc_profile(5, -1, 3, 1)


def test_local_weight_average_refuses_an_empty_area():
    # at A = 0 the normalisation Gamma_{0,0}(1, 1) is 0
    with pytest.raises(ValueError, match="area A must be >= 1"):
        local_weight_average(0)


def test_weighted_Rn_solve_refuses_float_weights():
    with pytest.raises(TypeError):
        weighted_Rn_solve([0.1], [1], 1)
    with pytest.raises(TypeError):
        weighted_Rn_solve([1], [0.5], 1)
    assert weighted_Rn_solve(["0.1"], [1], 2) \
        == weighted_Rn_solve([F(1, 10)], [F(1)], 2)


@pytest.mark.parametrize("call", [
    lambda A: sample_quadrangulation_uniform(A, 3, 1),
    lambda A: sample_quadrangulation(A, 3, 1),
    lambda A: enumerate_quadrangulations(A),
    lambda A: mc_profile(A, 2, 4, 3),
    lambda A: mc_profile(A, 2, 4, 3, method="pointed"),
], ids=["uniform", "rejection", "enumerate", "mc_reweighted", "mc_pointed"])
def test_area_zero_is_not_a_quadrangulation(call):
    # the empty tree would give the one-edge map, whose face has degree 2
    with pytest.raises(NotQuadrangulation):
        call(0)
