from fractions import Fraction as F
from itertools import permutations

import pytest

from mapforge.series_core import TruncSeries
from mapforge.wick_fatgraphs import connected_free_energy_F
from mapforge.planar_onecut import Potential, solve_one_cut
from mapforge import ortho_genus
from mapforge.ortho_genus import (
    IncreaseM, NoPhysicalRoot, exact_free_energy_FN, gaussian_h,
    genus_extract, genus_one_closed_form, hankel_dets,
    hankel_free_energy_FN, hankel_norms, hard_dimer, moments_from_potential,
    pure_gravity_quartic, string_equation_ratios, string_recursion_residual,
    two_marked_faces, _N, _npoly,
)

from genus_oracles import cubic_map_counts


def test_gaussian_moments():
    mom = moments_from_potential({}, 2, 6)
    assert mom[0] == 1
    assert mom[1].is_zero()
    assert mom[2] == TruncSeries.const("g", _N(-1), 2)
    assert mom[4] == TruncSeries.const("g", 3 * _N(-2), 2)
    assert mom[6] == TruncSeries.const("g", 15 * _N(-3), 2)


def test_quartic_moment_corrections():
    # first correction to nu_k is (N g4/4) <x^{k+4}>_Gaussian
    mom = moments_from_potential({4: F(1)}, 2, 2)
    assert mom[0].coeffs[1] == F(1, 4) * _N() * 3 * _N(-2)
    assert mom[2].coeffs[1] == F(1, 4) * _N() * 15 * _N(-3)


def test_odd_potential_moments():
    # odd valences pair up where the total degree is even:
    # nu_1 = (N g3/3) <x^4> g + O(g^2), nu_0 = 1 + (N g3/3)^2/2 <x^6> g^2
    mom = moments_from_potential({3: F(1)}, 2, 1)
    assert mom[1].coeffs[:2] == [0, _N(-1)]
    assert mom[0].coeffs == [1, 0, F(1, 18) * _N(2) * 15 * _N(-3)]


def test_gaussian_hankel_ratios():
    h, r = hankel_norms({}, 3, 6)
    for m in range(6):
        assert h[m] == TruncSeries.const("g", gaussian_h(m), 3)
    for m in range(1, 6):
        assert r[m] == TruncSeries.const("g", m * _N(-1), 3)


def _leibniz_det(mat):
    """Independent oracle: sum over permutations of signed products."""
    n = len(mat)
    total = TruncSeries.zero("g", mat[0][0].order)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        term = mat[0][perm[0]]
        for i in range(1, n):
            term = term * mat[i][perm[i]]
        total = total - term if inversions % 2 else total + term
    return total


def test_hankel_dets_are_leading_minors():
    mom = moments_from_potential({4: 1, 6: 1}, 2, 10)
    dets = hankel_dets(mom, 5)
    assert len(dets) == 5
    for size, det in enumerate(dets, 1):
        block = [[mom[i + j] for j in range(size)] for i in range(size)]
        assert det == _leibniz_det(block)


def test_free_energy_one_elimination_per_call(monkeypatch):
    calls = {"hankel_dets": 0, "log_ratio_terms": 0}
    for name in calls:
        inner = getattr(ortho_genus, name)

        def counted(*args, _inner=inner, _name=name):
            calls[_name] += 1
            return _inner(*args)
        monkeypatch.setattr(ortho_genus, name, counted)
    hankel_free_energy_FN({4: F(1)}, 2)
    assert calls == {"hankel_dets": 1, "log_ratio_terms": 1}


def test_free_energy_window_stabilisation():
    # windows 3..5 are too small for order 3; from 6 on the result is final
    with pytest.raises(IncreaseM):
        hankel_free_energy_FN({4: F(1)}, 3, M=5)
    assert hankel_free_energy_FN({4: F(1)}, 3, M=6) == \
        hankel_free_energy_FN({4: F(1)}, 3)


@pytest.mark.parametrize("M", [-1, 0, 1, 2])
def test_free_energy_refuses_windows_below_3(M):
    with pytest.raises(ValueError, match="window M must be >= 3"):
        hankel_free_energy_FN({4: F(1)}, 2, M=M)


def test_production_route_runs_no_hankel_elimination(monkeypatch):
    def refuse(*args):
        raise AssertionError("Hankel oracle called")
    for name in ("hankel_dets", "hankel_norms", "log_ratio_terms"):
        monkeypatch.setattr(ortho_genus, name, refuse)
    FN = exact_free_energy_FN({4: F(1)}, 12)
    assert genus_extract(FN)[(12, 6)] > 0


@pytest.mark.parametrize("couplings, order", [
    ({4: F(1)}, 3), ({4: F(1)}, 6), ({4: F(1), 6: F(1)}, 3),
    ({2: F(1, 3), 4: F(-2, 5)}, 6),
])
def test_free_energy_matches_hankel_oracle(couplings, order):
    FN = exact_free_energy_FN(couplings, order)
    oracle = hankel_free_energy_FN(couplings, order)
    assert FN == oracle
    assert FN.to_strings() == oracle.to_strings()


def test_string_equation_ratios_need_no_wall():
    # the polynomial r(m), solved without a wall, vanishes at m = 0 and is
    # the Hankel ratio r_j at every j >= 1
    coup = {4: F(1), 6: F(1)}
    r, s = string_equation_ratios(coup, 3)
    assert r.map_coeffs(lambda c: c.subs(m=0)).is_zero()
    assert s.is_zero()
    _, oracle = hankel_norms(coup, 3, 8)
    for j in range(1, 8):
        assert r.map_coeffs(lambda c: c.subs(m=j)) == oracle[j]


@pytest.mark.parametrize("couplings, order", [
    ({3: F(1)}, 5), ({2: F(1, 2), 3: F(1)}, 5), ({1: F(1)}, 8),
])
def test_free_energy_odd_potentials_match_pairing_oracle(couplings, order):
    FN = exact_free_energy_FN(couplings, order)
    wick = connected_free_energy_F(couplings, order)
    for k in range(1, order + 1):
        assert FN.coeffs[k] == wick.coeffs[k]


def _window_inputs(summands, gamma0, M):
    """gamma0 and lam[1..M-1] whose g-order k coefficients are gamma0[k]
    and summands[k](m)."""
    lam = [None] + [TruncSeries("g", [_npoly()] + [P(m) for P in summands])
                    for m in range(1, M)]
    return TruncSeries("g", [_npoly()] + gamma0), lam


def test_window_sum_matches_direct_summation():
    # order-k summands of degree 2k with N-dependent coefficients
    a = [[3 * _N(-1), _N(2) - 1, F(1, 2) * _N()],
         [_N(), F(-2, 3), 5 * _N(-2), _npoly(1), F(1, 7) * _N(2)]]
    summands = [lambda m, c=c: sum((x * m ** j for j, x in enumerate(c)),
                                   _npoly()) for c in a]
    gamma0 = [7 * _N(-2), F(2, 3) * _N()]
    M = 9
    F_N = ortho_genus._fixed_window(*_window_inputs(summands, gamma0, M),
                                    2, M)
    for n in range(1, 11):
        for k, P in enumerate(summands, 1):
            direct = n * gamma0[k - 1].subs(N=n) + sum(
                (n - m) * P(m).subs(N=n) for m in range(1, n))
            assert F_N.coeffs[k].subs(N=n) == direct


def test_window_sum_refuses_a_summand_above_its_degree():
    # degree 3 at g-order 1, where at most 2 is allowed
    summands = [lambda m: _N() * m ** 3]
    with pytest.raises(IncreaseM):
        ortho_genus._fixed_window(*_window_inputs(summands, [_npoly()], 9),
                                  1, 9)


def test_string_recursion_quartic_and_sextic():
    for coup in ({4: F(1)}, {6: F(1)}, {4: F(1, 2), 6: F(1, 3)}):
        h, r = hankel_norms(coup, 3, 12)
        win = {m: r[m] for m in range(1, 12)}
        for m in range(1, 5):
            assert string_recursion_residual(coup, win, m).is_zero()


def test_quartic_three_step_recursion_explicit():
    # m/N = r_m - g r_m (r_{m+1} + r_m + r_{m-1}) with r_0 = 0
    h, r = hankel_norms({4: F(1)}, 3, 8)
    r0 = TruncSeries.const("g", _npoly(), 3)
    g = TruncSeries.gen("g", 3)
    for m in (1, 2, 3):
        below = r[m - 1] if m > 1 else r0
        rhs = r[m] - g * r[m] * (r[m + 1] + r[m] + below)
        assert rhs == TruncSeries.const("g", m * _N(-1), 3)


def test_ratio_planar_limit_is_R():
    # N->infty limit of r_{zN} at fixed z = m/N reproduces r(z); at z = 1
    # the coefficients are those of the one-cut R series: 1, 3, 18, 135.
    h, r = hankel_norms({4: F(1)}, 3, 12)
    want = solve_one_cut(Potential.quartic(), 3).R.coeffs
    for k in range(4):
        # leading part of [g^k] r_m is (want[k]/k!) m^{k+1} N^{-k-1} + lower;
        # the (k+1)-th finite difference over m isolates it
        vals = [r[m].coeffs[k].coeff(N=-(k + 1)) for m in range(1, k + 4)]
        for _ in range(k + 1):
            vals = [b - a for a, b in zip(vals, vals[1:])]
        from math import factorial
        assert vals[0] == want[k] * factorial(k + 1)


def test_free_energy_matches_pairing_oracle_quartic():
    FN = exact_free_energy_FN({4: F(1)}, 3)
    wick = connected_free_energy_F({4: F(1)}, 3)
    for k in (1, 2, 3):
        assert FN.coeffs[k] == wick.coeffs[k]


def test_free_energy_matches_pairing_oracle_sextic():
    FN = exact_free_energy_FN({6: F(1)}, 2)
    wick = connected_free_energy_F({6: F(1)}, 2)
    for k in (1, 2):
        assert FN.coeffs[k] == wick.coeffs[k]


@pytest.mark.parametrize("couplings, order", [
    ({4: F(1)}, 12), ({3: F(1)}, 16), ({4: F(1), 6: F(1)}, 8),
    ({3: F(1), 4: F(1)}, 12), ({1: F(1), 3: F(1)}, 16)], ids=str)
def test_free_energy_matches_pairing_oracle_all_genus(couplings, order):
    # every genus at once, up to the 48 half-edges of the counting cap
    assert (exact_free_energy_FN(couplings, order)
            == connected_free_energy_F(couplings, order))


def test_cubic_free_energy_matches_goulden_jackson_at_every_genus():
    # the Wick pairings stop at order 16 (48 half-edges); up to order 40,
    # each genus-h entry at order 2n is T(n, h)/(6n), and odd orders vanish
    FN = exact_free_energy_FN({3: F(1)}, 40)
    assert all(not FN.coeffs[k] for k in range(1, 41, 2))
    T = cubic_map_counts(20, 20)
    want = {(2 * n, h): F(T[n][h], 6 * n)
            for n in range(1, 21) for h in range(21) if T[n][h]}
    assert len(want) == 130
    assert genus_extract(FN) == want


def test_genus_extraction():
    FN = exact_free_energy_FN({4: F(1)}, 3)
    table = genus_extract(FN)
    assert table[(1, 0)] == F(1, 2)
    assert table[(2, 0)] == F(9, 8)
    assert table[(3, 0)] == F(9, 2)
    assert table[(1, 1)] == F(1, 4)
    assert table[(2, 1)] == F(15, 8)
    assert table[(3, 1)] == F(33, 2)
    assert table[(3, 2)] == F(15, 4)


def test_genus_one_closed_form():
    s = genus_one_closed_form(3)
    assert s.coeffs == [0, F(1, 4), F(15, 8), F(33, 2)]
    FN = exact_free_energy_FN({4: F(1)}, 3)
    table = genus_extract(FN)
    for k in (1, 2, 3):
        assert table[(k, 1)] == s.coeffs[k]


def test_two_marked_faces_is_log_R():
    lr = two_marked_faces({4: F(1)}, 8)
    R = solve_one_cut(Potential.quartic(), 8).R
    assert lr == R.log()


def test_pure_gravity_point():
    cp = pure_gravity_quartic()
    assert cp.rho_c == F(1, 6)
    assert cp.g_t_c == F(1, 12)
    assert cp.gamma == F(-1, 2)


def test_hard_dimer_point():
    cp = hard_dimer()
    assert cp.params["z"] == F(-1, 10)
    assert cp.rho_c == F(1, 3)
    assert cp.g_t_c == F(1, 9)
    assert cp.gamma == F(-1, 3)


def test_gaussian_has_no_critical_point():
    from mapforge.ortho_genus import multicritical_solve
    with pytest.raises(NoPhysicalRoot):
        multicritical_solve({1: F(1)}, 1)
