import random
from fractions import Fraction as F
from itertools import product
from math import comb

import pytest
from scipy.integrate import quad

from mapforge.series_core import SymbolPoly, TruncSeries, fixed_point_solve
from mapforge.wick_fatgraphs import catalan, connected_free_energy_F
from mapforge.planar_onecut import (
    EvenOnly, OutOfOneCut, Potential, gamma_one, gamma_one_one,
    gamma_two_sameface, planar_free_energy, quartic_closed_form_f,
    path_sum, quartic_solution, r_of_z, residue_coeff, solve_one_cut,
    spectral_density_eval,
)


def sympoly_coeff(c, **kw):
    return c.coeff(**kw) if isinstance(c, SymbolPoly) else F(0)


def test_gaussian_solution():
    sol = solve_one_cut(Potential({}), 5)
    assert sol.R == 1 and sol.S.is_zero()
    V = Potential({})
    assert residue_coeff(V, sol, 0).is_zero()
    assert residue_coeff(V, sol, -1) == 1


@pytest.mark.parametrize("order", [3, 8])
@pytest.mark.parametrize("couplings", [
    {}, {4: 1}, {3: 1}, {4: 1, 6: 1}, {1: F(1, 2), 3: 1},
])
def test_residue_system_holds(couplings, order):
    # V'_0 = 0 and V'_{-1} = 1, the one-cut conditions, read through
    # residue_coeff and not through the string equations the solver uses
    V = Potential(couplings)
    sol = solve_one_cut(V, order)
    assert residue_coeff(V, sol, 0).is_zero()
    assert residue_coeff(V, sol, -1) == 1


@pytest.mark.parametrize("order", [6, 20])
@pytest.mark.parametrize("g4", [F(1, 2), 2, F(-1, 12), F(3, 7)])
def test_quartic_rescaling_solves_the_residue_system(g4, order):
    # the unit quartic solution rescaled by g4 meets V'_0 = 0, V'_{-1} = 1
    # for V = quartic(g4), and equals that potential's own one-cut solve
    V = Potential.quartic(g4)
    sol = quartic_solution(g4, order)
    assert residue_coeff(V, sol, 0).is_zero()
    assert residue_coeff(V, sol, -1) == 1
    direct = solve_one_cut(V, order)
    assert sol.R == direct.R and sol.S == direct.S


def test_quartic_R():
    sol = solve_one_cut(Potential.quartic(), 3)
    assert sol.R.coeffs == [1, 3, 18, 135]
    assert sol.S.is_zero()


def test_cubic_solution_against_oracle():
    # the wick oracle fixes S = 2g+12g^3+..., R = 1+4g^2+40g^4+...
    sol = solve_one_cut(Potential({3: 1}), 4)
    assert sol.S.coeffs == [0, 2, 0, 12, 0]
    assert sol.R.coeffs == [1, 0, 4, 0, 40]


def test_residue_identities():
    for V in (Potential.quartic(), Potential({3: 1, 4: F(1, 2)})):
        sol = solve_one_cut(V, 6)
        assert residue_coeff(V, sol, 0).is_zero()
        assert residue_coeff(V, sol, -1) == 1
        for m in (1, 2, 3):
            lhs = residue_coeff(V, sol, -m)
            rhs = (sol.R ** m) * residue_coeff(V, sol, m)
            assert lhs == rhs


def test_gamma_one():
    V = Potential({3: 1})
    sol = solve_one_cut(V, 4)
    assert gamma_one(V, sol).coeffs == [0, 1, 0, 4, 0]
    Vq = Potential.quartic()
    assert gamma_one(Vq, solve_one_cut(Vq, 4)).is_zero()
    Vg = Potential({})
    assert gamma_one(Vg, solve_one_cut(Vg, 4)).is_zero()


def test_gamma_two_quartic():
    V = Potential.quartic()
    sol = solve_one_cut(V, 10)
    g2 = gamma_two_sameface(V, sol)
    g = TruncSeries.gen("g", 10)
    R = sol.R
    assert g2 == R - g * R ** 3
    assert g2.coeffs[:4] == [1, 2, 9, 54]
    assert g2 == R * (4 - R) / 3
    assert gamma_two_sameface(Potential({}), solve_one_cut(Potential({}), 4)) == 1


def test_gamma_one_one_oracle():
    V = Potential({3: 1})
    sol = solve_one_cut(V, 2)
    # the weight a sets the ring (N, a) of every coefficient
    a = SymbolPoly.sym(("N", "a"), "a", ("N",))
    f = connected_free_energy_F({3: F(1), 1: a}, 4)
    oracle = [2 * sympoly_coeff(f.coeffs[k + 2], N=2, a=2) for k in range(3)]
    assert gamma_one_one(V, sol).coeffs == oracle


def test_planar_free_energy_quartic():
    f = planar_free_energy(Potential.quartic(), 3)
    assert f.coeffs == [0, F(1, 2), F(9, 8), F(9, 2)]
    assert planar_free_energy(Potential({}), 5).is_zero()


def test_quartic_two_routes_agree():
    # closed form vs the (1-z)log(r(z)/z) integral
    V = Potential.quartic()
    assert quartic_closed_form_f(8) == _integral_route(V, 8)


def _integral_route(V, order):
    from mapforge.planar_onecut import _free_energy_integral
    return _free_energy_integral(V, order)


def test_sextic_matches_oracle():
    f = planar_free_energy(Potential({6: 1}), 2)
    wick = connected_free_energy_F({6: F(1)}, 2)
    for k in (1, 2):
        assert f.coeffs[k] == wick.coeffs[k].coeff(N=2)


def test_even_only():
    with pytest.raises(EvenOnly):
        planar_free_energy(Potential({3: 1}), 3)


def test_r_of_z_quartic():
    r = r_of_z(Potential.quartic(), 3)
    # r = z + 3g r^2 fixed point
    z = SymbolPoly.sym(("z",), "z", ("z",))
    g = TruncSeries.gen("g", 3)
    assert r == z + 3 * g * r * r


def test_difequa_identity():
    # 4g df/dg = (R-1)(3-R)/3 for the quartic model
    V = Potential.quartic()
    order = 10
    f = planar_free_energy(V, order)
    R = solve_one_cut(V, order).R
    g = TruncSeries.gen("g", order)
    lhs = 4 * g * f.derivative()
    assert lhs == (R - 1) * (3 - R) / 3


def test_blossom_fixed_point_matches_even_R():
    # R = 1 + sum g_{2k} C(2k-1,k) R^k reproduces the residue-system R;
    # this equation is the independent oracle for two_marked_faces too
    for couplings in ({4: F(1)}, {6: F(1)}, {4: F(1), 6: F(1, 3)}, {2: F(1, 2)}):
        V = Potential(couplings)
        sol = solve_one_cut(V, 10)
        g = TruncSeries.gen("g", 10)

        def eq(x, V=V, g=g):
            acc = TruncSeries.const("g", 1, 10)
            for v, gi in V.couplings.items():
                k = v // 2
                acc = acc + g * gi * comb(2 * k - 1, k) * x ** k
            return acc

        assert fixed_point_solve(eq, 1, 10) == sol.R


def test_density_gaussian():
    from math import pi
    V = Potential({})
    assert spectral_density_eval(V, 0.0, 0.0) == pytest.approx(1 / pi)
    val, _ = quad(lambda x: x * x * spectral_density_eval(V, 0.0, x), -2, 2)
    assert val == pytest.approx(1.0, abs=1e-8)


def test_density_moments_catalan():
    V = Potential({})
    for p in range(1, 5):
        val, _ = quad(lambda x: x ** (2 * p) * spectral_density_eval(V, 0.0, x),
                      -2, 2)
        assert val == pytest.approx(catalan(p), abs=1e-6)


def test_density_quartic_normalized():
    V = Potential.quartic()
    import math
    from mapforge.planar_onecut import _numeric_R_even
    R = _numeric_R_even(V, 1 / 20)
    edge = 2 * math.sqrt(R)
    val, _ = quad(lambda x: spectral_density_eval(V, 1 / 20, x), -edge, edge)
    assert val == pytest.approx(1.0, abs=1e-8)


def test_density_supercritical_raises():
    with pytest.raises(OutOfOneCut):
        spectral_density_eval(Potential.quartic(), 0.1, 0.0)


def _word_oracle(down, level, start, end, steps, order):
    """<end|Q^steps|start> summed over all 3^steps step words."""
    total = TruncSeries.zero("g", order)
    for word in product((1, 0, -1), repeat=steps):
        h, w = start, TruncSeries.const("g", 1, order)
        for dh in word:
            if dh == 1:
                s = 1
            elif dh == 0:
                s = level(h) if level else None
            else:
                s = down(h)
            if s is None:
                break
            h, w = h + dh, w * s
        else:
            if h == end:
                total = total + w
    return total


def _random_weights(rng, wall, coeff, order=3):
    """down and level drawing one fixed random series per height.

    wall: None (bulk), "below 0" (no step leaves a negative height, as in
    geodesic) or "at 0" (no down step from 0 and no level steps, as in
    ortho_genus)."""
    table = {}

    def weight(kind, h):
        if (kind, h) not in table:
            table[kind, h] = TruncSeries(
                "g", [coeff(rng) for _ in range(order + 1)])
        return table[kind, h]

    def down(h):
        if wall == "below 0" and h < 0 or wall == "at 0" and h <= 0:
            return None
        return weight("down", h)

    def level(h):
        return None if wall == "below 0" and h < 0 else weight("level", h)

    return down, None if wall == "at 0" else level


def _fraction_coeff(rng):
    return F(rng.randint(-3, 3), rng.randint(1, 4))


def _npoly_coeff(rng):
    terms = {(e,): _fraction_coeff(rng) for e in (-1, 0, 1)}
    return SymbolPoly(("N",), terms, ("N",))


@pytest.mark.parametrize("wall", [None, "below 0", "at 0"],
                         ids=["bulk", "wall_below_0", "wall_at_0"])
def test_path_sum_matches_word_enumeration(wall):
    rng = random.Random(repr(wall))
    for steps in range(7):
        for _ in range(3):
            start = rng.randint(0, 3)
            end = rng.randint(max(start - steps, 0), start + steps)
            down, level = _random_weights(rng, wall, _fraction_coeff)
            got = path_sum(down, level, start, end, steps, 3)
            assert got.order == 3
            assert got == _word_oracle(down, level, start, end, steps, 3)


def test_path_sum_with_symbolic_coefficients():
    rng = random.Random(7)
    for steps in (1, 3, 5):
        down, level = _random_weights(rng, "at 0", _npoly_coeff, order=2)
        got = path_sum(down, level, 2, 1, steps, 2)
        assert got == _word_oracle(down, level, 2, 1, steps, 2)
        assert all(isinstance(c, SymbolPoly) for c in got.coeffs)


def test_path_sum_counts_without_weights():
    # unit weights: central binomials in the bulk, Catalan numbers above a
    # wall at 0, the lone all-up path, and no path of the wrong parity
    def one(h):
        return 1

    def walled(h):
        return 1 if h > 0 else None

    for n in (0, 1, 5, 60):
        assert path_sum(one, None, 0, 0, 2 * n, 2) == comb(2 * n, n)
        assert path_sum(walled, None, 0, 0, 2 * n, 2) == catalan(n)
    assert path_sum(walled, None, 3, 7, 4, 2) == 1
    assert path_sum(one, None, 0, 0, 7, 2).is_zero()


def test_potential_refuses_float_couplings():
    with pytest.raises(TypeError):
        Potential({4: 0.1})
    # a decimal string is read as written
    assert Potential({4: "0.1", 3: 1}).couplings == {4: F(1, 10), 3: F(1)}
