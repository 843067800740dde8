"""Full-stack checks exercising every module together at its stated
tolerance.  Each test is independent; statistical checks use fixed seeds."""

from collections import Counter
from fractions import Fraction as F
from math import exp, sqrt

import pytest
from scipy.stats import chi2 as chi2_dist

from mapforge.series_core import TruncSeries
from mapforge.wick_fatgraphs import (catalan, connected_free_energy_F,
                                     gaussian_trace_average, genus_split)
from mapforge.planar_onecut import (Potential, solve_one_cut,
                                    planar_free_energy, gamma_two_sameface)
from mapforge.ortho_genus import (exact_free_energy_FN, genus_extract,
                                  genus_one_closed_form, hard_dimer)
from mapforge.string_eq import (commutator_check, kdv_residue,
                                kdv_recursion_residual, painleve_genus_coeffs,
                                painleve_ratio)
from mapforge.geodesic import (solve_Rn_series, exact_Rn_quartic,
                               integral_of_motion, fixed_area_ratio,
                               quartic_coeff_table,
                               bn_infinity, scaling_F, char_root_numeric,
                               discrete_to_continuum_check)
from mapforge.bijections import (blossom_close, blossom_cut, canonical_form,
                                 cvs_forward, cvs_inverse, distance_profile,
                                 enumerate_blossom_trees,
                                 enumerate_quadrangulations,
                                 enumerate_well_labeled, acceptance_stats,
                                 sample_quadrangulation_uniform)
from mapforge.observables import (edges_at_distance, vertices_at_distance,
                                  edges_at_distance_asymptotic,
                                  vertices_at_distance_asymptotic,
                                  vertices_at_distance_numeric,
                                  quartic_R0_rho_sigma, neighbor_pgf,
                                  simple_neighbor_pgf, mc_profile)
from functools import lru_cache
from mapforge.branching import (BranchingConfig, simulate_extinction,
                                newton_bounded_Rn, theta_bounded_Rn,
                                weierstrass_scaling_check)

from map_oracles import origin_average


def test_01_gaussian_moments_are_catalan():
    for p in range(1, 7):
        avg = gaussian_trace_average({2 * p: 1})
        assert max(avg.exponents_of("N")) == 1
        assert avg.coeff(N=1) == catalan(p)


def test_02_free_energy_triangle():
    for weights, order in (({4: F(1)}, 3), ({6: F(1)}, 2)):
        wick = connected_free_energy_F(weights, order)
        FN = exact_free_energy_FN(weights, order)
        planar = planar_free_energy(Potential(weights), order)
        for k in range(1, order + 1):
            assert wick.coeffs[k] == FN.coeffs[k]
            assert wick.coeffs[k].coeff(N=2) == planar.coeffs[k]


def test_03_planar_quartic_series():
    V = Potential.quartic()
    f = planar_free_energy(V, 3)
    assert f.coeffs == [0, F(1, 2), F(9, 8), F(9, 2)]
    sol = solve_one_cut(V, 10)
    g = TruncSeries.gen("g", 10)
    G2 = gamma_two_sameface(V, sol)
    assert G2 == sol.R - g * sol.R ** 3
    assert G2 == sol.R * (4 - sol.R) / 3


def test_04_genus_one_three_ways():
    closed = genus_one_closed_form(3)
    assert closed.coeffs == [0, F(1, 4), F(15, 8), F(33, 2)]
    ortho = genus_extract(exact_free_energy_FN({4: F(1)}, 3))
    wick = connected_free_energy_F({4: F(1)}, 3)
    for k in (1, 2, 3):
        assert ortho[(k, 1)] == closed.coeffs[k]
        assert genus_split(wick.coeffs[k])[1] == closed.coeffs[k]


def test_05_hard_dimer_critical_point():
    cp = hard_dimer()
    assert cp.params["z"] == F(-1, 10)
    assert cp.rho_c == F(1, 3)
    assert cp.gamma == F(-1, 3)


def test_05_hard_dimer_g_t_c_claimed_value():
    # g*t_c = psi(rho_c) with psi(rho) = rho - 3 rho^2 - 30 z rho^3.  At
    # z = -1/10, psi' = (1 - 3 rho)^2 and psi'' = 18 rho - 6 both vanish
    # at rho_c = 1/3, so g*t_c = 1/3 - 3/9 + 3/27 = 1/9 (1/3 is rho_c).
    # psi and its derivatives are evaluated here, not by the solver.
    cp = hard_dimer()
    z, rho = cp.params["z"], cp.rho_c
    psi = rho - 3 * rho ** 2 - 30 * z * rho ** 3
    d1 = 1 - 6 * rho - 90 * z * rho ** 2
    d2 = -6 - 180 * z * rho
    d3 = -180 * z
    assert psi == cp.g_t_c
    assert d1 == d2 == 0
    assert d3 != 0
    assert cp.g_t_c == F(1, 9)


def test_06_kdv_and_painleve_structure():
    assert kdv_residue(0).terms == {(0,): F(-1, 2)}
    assert kdv_residue(1).terms == {(0, 0): F(3, 8), (2,): F(-1, 8)}
    for m in (1, 2, 3):
        assert kdv_recursion_residual(m).is_zero()
    assert commutator_check(1) == 2 * kdv_residue(1).derivative()
    assert painleve_ratio() == F(-1, 3)
    assert painleve_genus_coeffs(1, 2)[1] == F(-1, 24)


def test_07_distance_recursion_vs_exact_formula():
    order = 20
    gs = solve_Rn_series({4: F(1)}, 7, order)
    for n in range(7):
        assert gs.R[n] == exact_Rn_quartic(n, order=order)
    R = solve_one_cut(Potential.quartic(), order).R
    g = TruncSeries.gen("g", order)
    assert gs.R[0] == R - g * R ** 3
    const = g * R ** 3 - R
    for n in range(6):
        assert integral_of_motion((gs.R[n], gs.R[n + 1]), g) == const


def _bn_extrapolated(n):
    b1 = fixed_area_ratio(n, 150)
    b2 = fixed_area_ratio(n, 200)
    return 4 * b2 - 3 * b1


def test_08_fixed_area_ratio_extrapolation_n1():
    assert bn_infinity(1) == F(23, 4)
    est = _bn_extrapolated(1)
    assert abs(est / float(bn_infinity(1)) - 1) < 0.02


def _extrapolate_to_infinite_area(values):
    """Value at 1/A = 0 of the polynomial in 1/A through {A: value}."""
    out = 0.0
    for A, v in values.items():
        w = F(1)
        for B in values:
            if B != A:
                w *= F(A, A - B)
        out += float(w) * v
    return out


def test_08_fixed_area_ratio_extrapolation_n2_to_4():
    # the relative finite-size corrections to B_n(A) go like (n^4/A)^k, so
    # the linear fit from A = 150, 200 misses by 2.7%, 9.8% and 22.5% for
    # n = 2, 3, 4; a degree-7 fit in 1/A through A = 90, 120, ..., 300
    # misses by 0.00%, 0.03% and 0.45%
    areas = range(90, 301, 30)
    table = quartic_coeff_table(4, areas[-1])
    for n in (2, 3, 4):
        ratios = {A: table[n][A] / table[0][A] for A in areas}
        assert fixed_area_ratio(n, areas[0]) == pytest.approx(
            ratios[areas[0]], rel=1e-12)
        est = _extrapolate_to_infinite_area(ratios)
        assert abs(est / float(bn_infinity(n)) - 1) < 0.02


def test_09_continuum_two_point():
    h = 1e-3
    for k in range(48):
        r = 0.3 + 0.1 * k
        f2 = (2 * scaling_F(r - 3 * h) - 27 * scaling_F(r - 2 * h)
              + 270 * scaling_F(r - h) - 490 * scaling_F(r)
              + 270 * scaling_F(r + h) - 27 * scaling_F(r + 2 * h)
              + 2 * scaling_F(r + 3 * h)) / (180 * h * h)
        assert abs(f2 - 3 * scaling_F(r) ** 2 - 6 * scaling_F(r)) < 1e-8
    assert discrete_to_continuum_check(0.025,
                                       [0.5 + 0.1 * i for i in range(16)]) \
        < discrete_to_continuum_check(0.05,
                                      [0.5 + 0.1 * i for i in range(16)])
    prev = None
    for eps in (0.04, 0.02, 0.01):
        g = (1.0 - eps ** 4) / 12.0
        diff = abs(char_root_numeric(g) - exp(-sqrt(6) * eps))
        if prev is not None:
            assert diff < prev / 6
        prev = diff


def test_10_bijections_round_trips_and_counts():
    R = solve_one_cut(Potential.quartic(), 4).R
    g = TruncSeries.gen("g", 4)
    R0 = R - g * R ** 3
    for A in (1, 2, 3):
        for t in enumerate_blossom_trees(A):
            assert blossom_cut(blossom_close(t)) == t
        for m in enumerate_quadrangulations(A):
            m2 = cvs_inverse(cvs_forward(m))
            assert canonical_form(m2) == canonical_form(m)
    for A, count in ((1, 2), (2, 9), (3, 54), (4, 378)):
        assert sum(1 for _ in enumerate_well_labeled(A)) == count
        assert R0.coeffs[A] == count
    for A, count in ((1, 3), (2, 18), (3, 135)):
        assert sum(1 for _ in enumerate_blossom_trees(A)) == count
        assert R.coeffs[A] == count


def test_10_sampler_statistics():
    N = 10000
    ok = acceptance_stats(50, 7, N)
    p = 2 / 52
    assert abs(ok / N - p) < 3 * sqrt(p * (1 - p) / N)
    c = Counter()
    M = 100000
    for i in range(M):
        c[canonical_form(sample_quadrangulation_uniform(2, 5, i))] += 1
    assert len(c) == 9
    exp_count = M / 9
    chi2 = sum((x - exp_count) ** 2 / exp_count for x in c.values())
    assert chi2_dist.sf(chi2, 8) > 0.001


def test_11_local_environment_exact_values():
    assert edges_at_distance_asymptotic(0) == 4
    assert edges_at_distance_asymptotic(1) == 19
    assert vertices_at_distance_asymptotic(1) == 3
    assert vertices_at_distance_asymptotic(2) == F(54, 5)
    for A in (1, 2, 3):
        for n in range(A + 2):
            def count_vertices(m, dist, vertex_of, n=n):
                return sum(1 for x in dist if x == n)

            def count_edges(m, dist, vertex_of, n=n):
                c = 0
                for d in range(m.n_darts):
                    if d < m.alpha[d]:
                        a = dist[vertex_of[d]]
                        b = dist[vertex_of[m.alpha[d]]]
                        if {a, b} == {n, n + 1}:
                            c += 1
                return c
            assert vertices_at_distance(n, A) == origin_average(
                A, count_vertices)
            assert edges_at_distance(n, A) == origin_average(A, count_edges)
    Q = quartic_R0_rho_sigma(1)
    c1 = Q.coeffs[1]
    assert c1.coeff(rho=1, sigma=1) == 1 and c1.coeff(rho=2, sigma=2) == 1
    assert len(c1.terms) == 2
    assert neighbor_pgf(1) == F(3, 8)
    assert neighbor_pgf(2) == F(27, 128)
    assert simple_neighbor_pgf(1) == pytest.approx(sqrt(7) - 2, abs=1e-12)


@lru_cache(maxsize=1)
def _mc_rows_area_2000():
    return tuple(mc_profile(2000, 5, 10000, seed=1))


def test_11_monte_carlo_profile_vs_asymptotic_formula():
    # the asymptotic formula is the A -> infinity limit of the finite-area
    # profile that the sampler matches (companion test below), not its
    # value at A = 2000: there the exact profile sits 0.2-12.6% below it
    # for n = 1..5, a gap that halves each time A doubles.  A quadratic
    # fit in 1/A through A = 2000, 4000, 8000 lands within 0.03% of the
    # formula, well inside the Monte-Carlo window of 3 stderr.
    rows = _mc_rows_area_2000()
    assert rows[0] == (1.0, 0.0)
    areas = (2000, 4000, 8000)
    for n in range(1, 6):
        se = rows[n][1]
        target = float(vertices_at_distance_asymptotic(n))
        profile = {A: vertices_at_distance_numeric(n, A) for A in areas}
        gaps = [profile[A] - target for A in areas]
        assert gaps[0] < gaps[1] < gaps[2] < 0
        assert abs(_extrapolate_to_infinite_area(profile) - target) < 3 * se


def test_11_monte_carlo_profile_vs_exact_finite_area():
    rows = _mc_rows_area_2000()
    for n in range(1, 6):
        est, se = rows[n]
        assert abs(est - vertices_at_distance_numeric(n, 2000)) < 3 * se


def test_12_branching_dictionary_and_profiles():
    tally = simulate_extinction(BranchingConfig(0.3, seed=12), 100000)
    assert tally.censored == 0
    assert abs(tally.estimate - 6 / 7) < 3 * tally.stderr
    ts = theta_bounded_Rn(6, 1 / 20)
    assert ts.recursion_residual() < 1e-9
    newt = newton_bounded_Rn(6, 1 / 20)
    assert max(abs(ts.Rn[n] - newt[n]) for n in range(7)) < 1e-8
    assert weierstrass_scaling_check(3.0) < 1e-8
