from fractions import Fraction as F
from math import exp, sqrt

import pytest

from mapforge.series_core import TruncSeries
from mapforge.planar_onecut import OutOfOneCut, Potential, solve_one_cut
from mapforge.geodesic import (
    DomainError, bn_infinity, char_root_numeric,
    continuum_two_point, discrete_to_continuum_check, exact_Rn_quartic,
    fixed_area_ratio, integral_of_motion, quartic_R_numeric,
    quartic_coeff_table, scaling_F, scaling_G, solve_Rn_series,
)

from quartic_oracles import (char_root_series, closed_form_Rn,
                             quartic_table_oracle)


def test_quartic_R0():
    gs = solve_Rn_series({4: F(1)}, 2, 6)
    assert gs.R[0].coeffs[:4] == [1, 2, 9, 54]
    R = solve_one_cut(Potential.quartic(), 6).R
    g = TruncSeries.gen("g", 6)
    assert gs.R[0] == R - g * R ** 3
    assert gs.R[1].coeffs[:3] == [1, 3, 17]


def test_three_term_recursion_holds():
    order = 8
    gs = solve_Rn_series({4: F(1)}, 3, order)
    g = TruncSeries.gen("g", order)
    ext = solve_Rn_series({4: F(1)}, 5, order)
    zero = TruncSeries.const("g", 0, order)
    for n in range(4):
        below = ext.R[n - 1] if n >= 1 else zero
        assert gs.R[n] == 1 + g * gs.R[n] * (ext.R[n + 1] + gs.R[n] + below)


def test_monotone_and_stabilizing():
    order = 12
    gs = solve_Rn_series({4: F(1)}, 6, order)
    R = solve_one_cut(Potential.quartic(), order).R
    for n in range(1, 7):
        diff = gs.R[n] - gs.R[n - 1]
        assert all(c >= 0 for c in diff.coeffs)
        # first differing coefficient sits at order n
        assert all(c == 0 for c in diff.coeffs[:n])
        assert diff.coeffs[n] != 0
    for n in range(7):
        tail = R - gs.R[n]
        assert all(c == 0 for c in tail.coeffs[:n + 1])
        assert all(c >= 0 for c in tail.coeffs)


def test_exact_formula_matches_recursion():
    order = 12
    gs = solve_Rn_series({4: F(1)}, 6, order)
    for n in range(7):
        assert exact_Rn_quartic(n, order=order) == gs.R[n]


def test_char_root():
    order = 8
    x = char_root_series(order)
    R = solve_one_cut(Potential.quartic(), order + 1).R.truncate(order)
    g = TruncSeries.gen("g", order)
    # x^2 + 4x + 1 = x / (gR) cleared of the 1/g pole
    assert g * R * (x * x + 4 * x + 1) == x
    xn = char_root_numeric(1 / 20)
    assert 0 < xn < 1
    B = 1 / ((1 / 20) * quartic_R_numeric(1 / 20)) - 4
    assert xn + 1 / xn == pytest.approx(B)


def test_exact_numeric_limits():
    g = 1 / 20
    R = quartic_R_numeric(g)
    assert exact_Rn_quartic(200, g=g) == pytest.approx(R, rel=1e-12)
    vals = [exact_Rn_quartic(n, g=g) for n in range(8)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    with pytest.raises(OutOfOneCut):
        exact_Rn_quartic(1, g=0.1)


def test_integral_of_motion():
    order = 12
    gs = solve_Rn_series({4: F(1)}, 6, order)
    g = TruncSeries.gen("g", order)
    vals = [integral_of_motion((gs.R[n], gs.R[n + 1]), g) for n in range(6)]
    assert all(v == vals[0] for v in vals)
    R = solve_one_cut(Potential.quartic(), order).R
    assert vals[0] == -(R - g * R ** 3)
    assert integral_of_motion((R, R), g) == R * R * (1 - 2 * g * R) - 2 * R
    # the n = -1 pair gives -R_0 directly
    zero = TruncSeries.const("g", 0, order)
    assert integral_of_motion((zero, gs.R[0]), g) == -gs.R[0]


def test_mixed_valence_tail_matches_one_cut():
    order = 8
    weights = {3: F(1), 4: F(1, 2)}
    gs = solve_Rn_series(weights, order + 2, order)
    sol = solve_one_cut(Potential(weights), order)
    assert gs.R[order + 2] == sol.R
    assert gs.S[order + 2] == sol.S


def test_coeff_table_routes_agree():
    # the table against the closed-form oracle and the window solver
    table = quartic_coeff_table(6, 20)
    window = solve_Rn_series({4: F(1)}, 6, 12)
    for n in range(7):
        assert all(type(c) is F for c in table[n])
        assert table[n] == closed_form_Rn(n, 20).coeffs
        assert table[n][:13] == window.R[n].coeffs


def test_quartic_rows_match_integer_recursion():
    # every row and series against the independent integer recursion
    oracle = quartic_table_oracle(10, 60)
    table = quartic_coeff_table(10, 60)
    assert table == oracle
    for n in range(11):
        assert all(type(c) is F for c in table[n])
    for A in range(61):
        for n in range(11):
            row = exact_Rn_quartic(n, order=A).coeffs
            assert row == oracle[n][:A + 1]
            assert all(type(c) is F for c in row)
    for A in (0, 1, 7):
        assert quartic_coeff_table(3, A) == {
            n: oracle[n][:A + 1] for n in range(4)}


def test_quartic_rows_reject_negative_distance():
    for n in (-1, -2, -5):
        for A in (0, 3):
            with pytest.raises(DomainError):
                exact_Rn_quartic(n, order=A)
            with pytest.raises(DomainError):
                quartic_coeff_table(n, A)
    with pytest.raises(DomainError):
        exact_Rn_quartic(2, order=-1)


def test_fixed_area_ratios():
    assert fixed_area_ratio(0, 17) == 1
    assert fixed_area_ratio(1, 3) == F(119, 54)
    assert bn_infinity(1) == F(23, 4)
    # B_1 extrapolated linearly in 1/A from A = 150, 200 lands within 2%
    b150 = fixed_area_ratio(1, 150)
    b200 = fixed_area_ratio(1, 200)
    extrap = 4 * b200 - 3 * b150
    assert abs(extrap - 23 / 4) / (23 / 4) < 0.02
    # all ratios increase with A toward the limit value
    for n in range(1, 5):
        lim = float(bn_infinity(n))
        prev = 0.0
        for A in (50, 100, 200):
            b = fixed_area_ratio(n, A)
            assert prev < b < lim
            prev = b


def test_scaling_functions():
    from math import sinh, sqrt as s
    assert scaling_F(1.0) == pytest.approx(3 / sinh(s(1.5)) ** 2)
    rows = continuum_two_point([0.5, 1.0, 2.0])
    assert all(f > 0 for _, f, _ in rows)
    assert rows[0][1] > rows[1][1] > rows[2][1]
    # G = -F' via central differences
    h = 1e-6
    for r in (0.5, 1.0, 2.0):
        fp = (scaling_F(r + h) - scaling_F(r - h)) / (2 * h)
        assert scaling_G(r) == pytest.approx(-fp, rel=1e-7)
    with pytest.raises(DomainError):
        scaling_F(0.0)


def test_scaling_ode_and_weierstrass_form():
    # F'' - 3F^2 - 6F = 0, seven-point second derivative at h = 1e-3
    h = 1e-3
    r = 0.3
    while r <= 5.0:
        f2 = (2 * scaling_F(r - 3 * h) - 27 * scaling_F(r - 2 * h)
              + 270 * scaling_F(r - h) - 490 * scaling_F(r)
              + 270 * scaling_F(r + h) - 27 * scaling_F(r + 2 * h)
              + 2 * scaling_F(r + 3 * h)) / (180 * h * h)
        assert abs(f2 - 3 * scaling_F(r) ** 2 - 6 * scaling_F(r)) < 1e-8
        # u = F + 1 satisfies u^2 - u''/3 = 1
        u2pp = f2 / 3
        assert abs((scaling_F(r) + 1) ** 2 - u2pp - 1) < 1e-8
        r += 0.1


def test_discrete_to_continuum():
    d1 = discrete_to_continuum_check(0.05)
    d2 = discrete_to_continuum_check(0.025)
    assert d2 < d1
    # x(g(eps)) approaches e^{-sqrt(6) eps} to third order
    prev = None
    for eps in (0.04, 0.02, 0.01):
        g = (1.0 - eps ** 4) / 12.0
        diff = abs(char_root_numeric(g) - exp(-sqrt(6) * eps))
        if prev is not None:
            assert diff < prev / 6  # O(eps^3): factor 8 per halving
        prev = diff
