from fractions import Fraction as F

import pytest

from mapforge.series_core import SymbolPoly
from mapforge.wick_fatgraphs import (
    CombinatorialMap, MalformedMap, StructureViolation, TooLarge, catalan,
    connected_free_energy_F, enumerate_pairings, faces_and_genus,
    gaussian_trace_average, genus_split, partition_series_Z, star_sigma,
)


def double_factorial(n):
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


@pytest.mark.parametrize("sigma, alpha, message", [
    ([0, 1], [1, 0, 2], "sigma and alpha act on different dart sets"),
    ([0, 0], [1, 0], "not permutations"),
    ([0, 2], [1, 0], "not permutations"),
    ([1, 0], [1, 1], "not permutations"),
    ([1, 0], [-1, 0], "not permutations"),
    ([0, 1, 2, 3], [1, 0, 2, 3], "alpha is not a fixed-point-free involution"),
    ([0, 1, 2, 3], [1, 2, 3, 0], "alpha is not a fixed-point-free involution"),
])
def test_malformed_maps(sigma, alpha, message):
    with pytest.raises(MalformedMap) as err:
        CombinatorialMap(sigma, alpha)
    assert str(err.value) == message


@pytest.mark.parametrize("root", [-1, 4, 1.0])
def test_malformed_roots(root):
    # a root outside range(n_darts) is refused; a negative one would send
    # the BFS of distance_profile round its root vertex forever, and a
    # float one cannot index its dart lists
    with pytest.raises(MalformedMap) as err:
        CombinatorialMap([1, 0, 3, 2], [2, 3, 0, 1], root)
    assert str(err.value) == "root is not a dart"
    assert CombinatorialMap([1, 0, 3, 2], [2, 3, 0, 1], 3).root == 3


def test_pairing_counts():
    assert len(list(enumerate_pairings({2: 1}))) == 1
    assert len(list(enumerate_pairings({4: 1}))) == 3
    assert len(list(enumerate_pairings({3: 2}))) == 15
    for profile, E in [({4: 1}, 2), ({6: 1}, 3), ({4: 2}, 4)]:
        assert len(list(enumerate_pairings(profile))) == double_factorial(2 * E - 1)


def test_odd_profile_empty_and_cap():
    assert list(enumerate_pairings({3: 1})) == []
    with pytest.raises(TooLarge):
        list(enumerate_pairings({18: 1}))


def test_faces_and_genus_examples():
    # one 12-valent vertex, nested petals: alpha pairs adjacent darts
    sigma = star_sigma({12: 1})
    petal = [1, 0, 3, 2, 5, 4, 7, 6, 9, 8, 11, 10]
    V, E, Fc, genera = faces_and_genus(CombinatorialMap(sigma, petal))
    assert (V, E, Fc, genera) == (1, 6, 7, [0])
    # crossing pairing of one 4-valent star
    V, E, Fc, genera = faces_and_genus(CombinatorialMap(star_sigma({4: 1}), [2, 3, 0, 1]))
    assert (V, E, Fc, genera) == (1, 2, 1, [1])
    # some pairing of the 12-valent star reaches genus 2 with 3 faces
    found = False
    for m in enumerate_pairings({12: 1}):
        _, _, Fc, genera = faces_and_genus(m)
        if genera == [2] and Fc == 3:
            found = True
            break
    assert found


def test_euler_parity_invariant():
    for m in enumerate_pairings({4: 1, 2: 1}):
        V, E, Fc, genera = faces_and_genus(m)
        assert all(h >= 0 for h in genera)
        assert (len(m.faces()) + len(m.vertices()) - E) % 2 == 0


def test_gaussian_averages():
    assert gaussian_trace_average({2: 1}) == SymbolPoly.sym(("N",), "N")
    N = SymbolPoly.sym(("N",), "N")
    assert gaussian_trace_average({4: 1}) == 2 * N + N ** (-1)
    assert gaussian_trace_average({1: 2}) == 1
    assert gaussian_trace_average({3: 1}) == 0


def _valence_profiles(n_max):
    """Every multiset of positive valences with at most n_max half-edges,
    as a profile dict."""
    def rec(left, top):
        yield {}
        for v in range(min(left, top), 0, -1):
            for rest in rec(left - v, v):
                out = dict(rest)
                out[v] = out.get(v, 0) + 1
                yield out
    yield from rec(n_max, n_max)


def _pairing_histogram(profile):
    """sum of N^(F-E) over the enumerated pairings, faces counted by
    faces_and_genus"""
    N = SymbolPoly.sym(("N",), "N")
    total = SymbolPoly.const(("N",), 0)
    for m in enumerate_pairings(profile):
        _, E, Fc, _ = faces_and_genus(m)
        total = total + N ** (Fc - E)
    return total


PROFILES = list(_valence_profiles(10)) + [
    {4: 3}, {3: 4}, {6: 2}, {1: 2, 4: 1, 6: 1}]


@pytest.mark.parametrize("profile", PROFILES, ids=str)
def test_gaussian_average_matches_enumerated_pairings(profile):
    avg = gaussian_trace_average(profile)
    assert avg == _pairing_histogram(profile)
    n = sum(v * m for v, m in profile.items())
    assert avg.subs(N=1) == (double_factorial(n - 1) if n % 2 == 0 else 0)


def test_gaussian_average_cap_does_not_move():
    for profile in ({50: 1}, {4: 13}):
        with pytest.raises(TooLarge) as err:
            gaussian_trace_average(profile)
        assert str(err.value) == "profile has %d half-edges, cap is 48" % (
            sum(v * m for v, m in profile.items()))


def _harer_zagier(n_max):
    """eps[n][g]: one-vertex maps of genus g from one 2n-star, by the
    Harer-Zagier recursion (n+1) e_g(n) = 2(2n-1) e_g(n-1)
    + (n-1)(2n-1)(2n-3) e_{g-1}(n-2), e_0(0) = 1."""
    eps = [{0: 1}]
    for n in range(1, n_max + 1):
        row = {}
        for g in range(n // 2 + 1):
            total = 2 * (2 * n - 1) * eps[n - 1].get(g, 0)
            if n >= 2 and g >= 1:
                total += ((n - 1) * (2 * n - 1) * (2 * n - 3)
                          * eps[n - 2].get(g - 1, 0))
            assert total % (n + 1) == 0
            row[g] = total // (n + 1)
        eps.append(row)
    return eps


def test_gaussian_average_matches_harer_zagier():
    # <Tr M^{2n}> = sum_g e_g(n) N^{1-2g}, up to the 48 half-edges of
    # the counting cap
    N = SymbolPoly.sym(("N",), "N")
    for n, row in enumerate(_harer_zagier(24)[1:], 1):
        want = sum((c * N ** (1 - 2 * g) for g, c in row.items()),
                   SymbolPoly.const(("N",), 0))
        assert gaussian_trace_average({2 * n: 1}) == want


def test_catalan_leading_coefficient():
    # leading N coefficient of <Tr M^{2p}> is the Catalan number
    for p in range(1, 7):
        avg = gaussian_trace_average({2 * p: 1})
        top = max(avg.exponents_of("N"))
        assert top == p + 1 - p  # F_max = p+1 faces, E = p
        assert avg.coeff(N=top) == catalan(p)


def test_catalan_recursion():
    for p in range(1, 7):
        assert catalan(p) == sum(catalan(i) * catalan(p - 1 - i) for i in range(p))


def test_partition_series_quartic():
    z = partition_series_Z({4: F(1)}, 2)
    c1 = z.coeffs[1]
    assert c1.coeff(N=2) == F(1, 2) and c1.coeff(N=0) == F(1, 4)
    z0 = partition_series_Z({}, 3)
    assert z0 == 1
    z3 = partition_series_Z({3: F(1)}, 1)
    assert z3.coeffs[1] == 0


def test_connected_free_energy_quartic():
    f = connected_free_energy_F({4: F(1)}, 3)
    assert f.coeffs[0] == 0
    assert f.coeffs[1].coeff(N=2) == F(1, 2)
    assert f.coeffs[2].coeff(N=2) == F(9, 8)
    assert f.coeffs[1].coeff(N=0) == F(1, 4)
    assert f.coeffs[2].coeff(N=0) == F(15, 8)
    for k in (1, 2, 3):
        assert max(f.coeffs[k].exponents_of("N")) == 2


def test_genus_split():
    f = connected_free_energy_F({4: F(1)}, 2)
    assert genus_split(f.coeffs[2]) == {0: F(9, 8), 1: F(15, 8)}
    # only N^(2-2h), h >= 0, reads as a genus
    N = SymbolPoly.sym(("N",), "N")
    for bad in (N, N ** 4, N ** 2 + N ** -1):
        with pytest.raises(StructureViolation):
            genus_split(bad)


def test_cap_honest_failure():
    # order 13 of a quartic needs 52 half-edges, past the counting cap
    with pytest.raises(TooLarge):
        partition_series_Z({4: F(1)}, 13)
    z = partition_series_Z({2: F(1)}, 5)
    assert z.coeffs[0] == 1
