from fractions import Fraction as F
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from mapforge.string_eq import (
    DeepenCutoff, DiffPoly, PseudoDiffOp, Q_operator, StringEqn, _L_power,
    commutator_check, double_scaling_exponents, kdv_recursion_residual,
    kdv_residue, painleve_genus_coeffs, painleve_ratio, pdo_multiply,
    pdo_sqrt_Q, string_equation, string_equation_residual_orders,
)


def test_diffpoly_basics():
    u = DiffPoly.u()
    up = u.derivative()
    assert up == DiffPoly.u(1)
    assert (u * u).derivative() == 2 * u * up
    assert (u * u * u).weight() == 6
    assert DiffPoly.u(2).weight() == 4
    assert (u - u).is_zero()


def test_leibniz_normal_ordering():
    u = DiffPoly.u()
    d = PseudoDiffOp({1: 1})
    U = PseudoDiffOp({0: u})
    # d.u = u.d + u'
    prod = pdo_multiply(d, U)
    assert prod.coeff(1) == u
    assert prod.coeff(0) == u.derivative()
    # d^-1 u = u d^-1 - u' d^-2 + u'' d^-3 - ...
    dinv = PseudoDiffOp({-1: 1}, 5)
    prod = pdo_multiply(dinv, U)
    assert prod.coeff(-1) == u
    assert prod.coeff(-2) == -u.derivative()
    assert prod.coeff(-3) == u.derivative().derivative()
    # identity operand
    one = PseudoDiffOp({0: 1})
    assert pdo_multiply(Q_operator(), one) == Q_operator()


def test_sqrt_Q():
    u = DiffPoly.u()
    L = pdo_sqrt_Q(6)
    assert L.coeff(1) == 1
    assert L.coeff(-1) == -u / 2
    assert L.coeff(-2) == u.derivative() / 4
    err = pdo_multiply(L, L) - Q_operator()
    assert all(f.is_zero() for f in err.table.values())


def test_cutoff_underflow():
    A = pdo_sqrt_Q(2)
    B = pdo_multiply(A, A)
    with pytest.raises(DeepenCutoff):
        pdo_multiply(B, B)


def test_kdv_residues():
    u = DiffPoly.u()
    assert kdv_residue(0) == -u / 2
    assert kdv_residue(1) == (3 * u * u - u.derivative().derivative()) / 8
    for m in (1, 2, 3):
        assert kdv_recursion_residual(m).is_zero()


def test_one_square_root_per_report(monkeypatch, capsys):
    from mapforge import string_eq
    from mapforge.cli import main
    calls = []
    inner = string_eq.pdo_sqrt_Q

    def counted(cutoff):
        calls.append(cutoff)
        return inner(cutoff)

    monkeypatch.setattr(string_eq, "pdo_sqrt_Q", counted)
    string_eq._odd_powers.cache_clear()
    string_equation(4, StringEqn(4, [1, 2, 3, 4, 5]))
    assert len(calls) == 1
    kdv_recursion_residual(3)
    assert len(calls) == 2
    calls.clear()
    assert main(["stringeq", "--m", "5"]) == 0
    capsys.readouterr()
    # the residues R_1..R_6 and the commutator read one ladder
    assert len(calls) == 1


def test_string_equation():
    u = DiffPoly.u()
    e = string_equation(1, StringEqn(1, [0, 1]))
    assert e == (3 * u * u - u.derivative().derivative()) / 4
    assert painleve_ratio() == F(-1, 3)
    # topological point
    assert string_equation(0, StringEqn(0, [1])) == -u
    # linearity in the parameters
    e2 = string_equation(1, StringEqn(1, [F(1, 2), F(2)]))
    assert e2 == 2 * F(1, 2) * kdv_residue(0) + 2 * F(2) * kdv_residue(1)
    with pytest.raises(ValueError):
        StringEqn(1, [1, 0])


def test_painleve_genus_coeffs():
    us = painleve_genus_coeffs(1, 5)
    assert us[0] == 1
    assert us[1] == F(-1, 24)
    # substituting back annihilates the equation through the tested order
    assert all(r == 0 for r in string_equation_residual_orders(1, us, 5))


def test_higher_multicritical_ansatz():
    us = painleve_genus_coeffs(2, 3)
    assert us[0] == 1
    assert all(r == 0 for r in string_equation_residual_orders(2, us, 3))


def test_commutators():
    u = DiffPoly.u()
    assert commutator_check(0) == -u.derivative()
    assert commutator_check(1) == \
        3 * u * u.derivative() / 2 - u.derivative().derivative().derivative() / 4
    assert commutator_check(1) == 2 * kdv_residue(1).derivative()
    assert commutator_check(2) == 2 * kdv_residue(2).derivative()


def test_double_scaling_exponents():
    assert double_scaling_exponents(1) == (F(4, 5), 3)
    assert double_scaling_exponents(2) == (F(6, 7), 5)
    prev = F(0)
    for m in range(1, 12):
        e, d = double_scaling_exponents(m)
        assert d == 2 * m + 1
        assert prev < e < 1
        prev = e


# Oracle: the earlier square root and power, which form the whole product
# L.L at full depth for every coefficient and multiply by L 2m times.
# Independent of the one-coefficient-per-step solve in pdo_sqrt_Q and of
# the L Q^m route in _L_power.

_ORACLE_CUTOFF = 12  # the deepest square root any check below asks for


@lru_cache(maxsize=None)
def _oracle_sqrt_Q_deepest():
    Q = Q_operator()
    table = {1: DiffPoly.const(1)}
    work = _ORACLE_CUTOFF + 2
    for i in range(1, _ORACLE_CUTOFF + 1):
        L = PseudoDiffOp(dict(table), work)
        err = pdo_multiply(L, L) - Q
        li = -err.coeff(1 - i) / 2
        if not li.is_zero():
            table[-i] = li
    return table


def _oracle_sqrt_Q(cutoff):
    # l_i is fixed at step i, whatever the final cutoff, so a shallower
    # root is the deepest one cut at d^-cutoff
    assert cutoff <= _ORACLE_CUTOFF
    return PseudoDiffOp(_oracle_sqrt_Q_deepest(), cutoff)


def _oracle_L_power(m, depth):
    L = _oracle_sqrt_Q(depth + 2 * m + 2)
    P = L
    for _ in range(2 * m):
        P = pdo_multiply(P, L)
    return P


@pytest.mark.parametrize("cutoff", range(1, 11))
def test_sqrt_Q_matches_full_product_oracle(cutoff):
    L, want = pdo_sqrt_Q(cutoff), _oracle_sqrt_Q(cutoff)
    assert L.cutoff == want.cutoff == cutoff
    assert L.table == want.table


@pytest.mark.parametrize("m", [0, 1, 2])
def test_L_power_matches_repeated_product_oracle(m):
    # the oracle at the largest depth is exact down to d^-(2m+2), so it
    # checks every shallower request too
    want = _oracle_L_power(m, 2 * m + 2)
    assert want.cutoff >= 2 * m + 2
    for depth in range(2 * m + 3):
        P = _L_power(m, depth)
        assert P.cutoff >= depth
        assert P.max_degree() == want.max_degree() == 2 * m + 1
        assert all(P.coeff(d) == want.coeff(d)
                   for d in range(-depth, 2 * m + 2))


def test_L_power_refuses_degrees_below_its_depth():
    # a coefficient deeper than requested is refused, never returned wrong
    with pytest.raises(DeepenCutoff):
        _L_power(2, 1).coeff(-2)


@pytest.mark.parametrize("m", [4, 5])
def test_kdv_recursion_through_m5(m):
    assert kdv_recursion_residual(m).is_zero()


@pytest.mark.parametrize("m", [3, 4, 5])
def test_commutators_through_m5(m):
    assert commutator_check(m) == 2 * kdv_residue(m).derivative()


_monos = st.lists(st.integers(0, 3), max_size=3).map(tuple)
_diffpolys = st.dictionaries(_monos, st.integers(-5, 5),
                             max_size=4).map(DiffPoly)


@settings(max_examples=30, deadline=None)
@given(_diffpolys, _diffpolys)
def test_derivative_obeys_leibniz(p, q):
    assert (p * q).derivative() == p.derivative() * q + p * q.derivative()
    assert (p + q).derivative() == p.derivative() + q.derivative()
