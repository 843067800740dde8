from collections import Counter
from fractions import Fraction as F
from math import sqrt

import pytest

from mapforge.series_core import TruncSeries
from mapforge.planar_onecut import Potential, solve_one_cut
from mapforge.geodesic import DomainError, exact_Rn_quartic, scaling_F
from mapforge.branching import (
    BranchingConfig, OutOfRange, WeierstrassProfile, branching_g,
    escape_exact, escape_interval, extinction_exact, newton_bounded_Rn,
    simulate_extinction, theta_bounded_Rn, weierstrass_scaling_check, _rng,
)


def test_exact_dictionary_values():
    assert extinction_exact(0, F(3, 10)) == F(6, 7)
    assert extinction_exact(0, F(1, 2)) == F(2, 3)
    assert branching_g(F(1, 2)) == F(1, 12)
    # E_n -> 1 as the wall recedes
    assert extinction_exact(40, 0.3) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(OutOfRange):
        extinction_exact(0, 0.7)


def test_extinction_simulation_matches_dictionary():
    for p in (0.2, 0.3, 0.4):
        for n in (0, 1, 2):
            cfg = BranchingConfig(p, start=n, seed=17 + n)
            r = simulate_extinction(cfg, 30000)
            assert r.censored == 0
            exact = float(extinction_exact(n, p))
            assert abs(r.estimate - exact) < 3 * r.stderr


def test_far_wall_extinction_is_certain():
    cfg = BranchingConfig(0.3, start=30, seed=5)
    r = simulate_extinction(cfg, 5000)
    assert r.estimate == 1.0


def test_censored_runs_are_reported():
    cfg = BranchingConfig(0.49, start=5, t_max=3, seed=1)
    r = simulate_extinction(cfg, 2000)
    assert r.censored > 0
    assert r.decided + r.censored == r.samples


def test_simulation_reproducible():
    cfg = BranchingConfig(0.3, seed=11)
    a = simulate_extinction(cfg, 3000)
    b = simulate_extinction(cfg, 3000)
    assert a.estimate == b.estimate and a.hits == b.hits


def _oracle_run(cfg, rng):
    # the walk as written with Random.choice for each child's step
    pop = [cfg.start]
    for _ in range(cfg.t_max):
        if not pop:
            return "extinct"
        new = []
        for pos in pop:
            k = 0
            while rng.random() < cfg.p:
                k += 1
            for _ in range(k):
                q = pos + rng.choice((-1, 0, 1))
                if q < 0 or (cfg.L is not None and q > cfg.L):
                    return "escaped"
                new.append(q)
        pop = new
    return "censored"


@pytest.mark.parametrize("cfg", [
    BranchingConfig(0.45, start=1, seed=3),
    BranchingConfig(0.3, start=0, seed=17),
    BranchingConfig(0.49, start=5, t_max=3, seed=1),
    BranchingConfig(0.45, start=2, walls="interval", L=6, seed=4),
    BranchingConfig(0.2, start=0, walls="interval", L=0, seed=8),
])
def test_tallies_match_choice_stream(cfg):
    samples = 1500
    runs = Counter(_oracle_run(cfg, _rng(cfg.seed, i)) for i in range(samples))
    decided = samples - runs["censored"]
    tallies = [(simulate_extinction(cfg, samples), "extinct")]
    if cfg.walls == "interval":
        tallies.append((escape_interval(cfg, samples), "escaped"))
    for t, outcome in tallies:
        assert (t.hits, t.decided, t.censored) \
            == (runs[outcome], decided, runs["censored"])


def test_escape_interval():
    ex = escape_exact(2, 4, 0.3)
    cfg = BranchingConfig(0.3, start=2, walls="interval", L=4, seed=3)
    r = escape_interval(cfg, 30000)
    assert abs(r.estimate - ex) < 3 * r.stderr
    # reflection symmetry of the finite system
    for n in range(5):
        assert escape_exact(n, 4, 0.3) == pytest.approx(
            escape_exact(4 - n, 4, 0.3), abs=1e-12)
    # removing the far wall recovers the half-line complement
    assert escape_exact(0, 60, 0.3) == pytest.approx(1 - 6 / 7, abs=1e-10)


def test_newton_solver_against_series():
    # small g: the bounded solution matches the truncated series solve of
    # the same finite system
    g = 1e-3
    vals = newton_bounded_Rn(3, g)
    assert vals[0] == pytest.approx(1 + 2 * g + 9 * g * g, abs=1e-7)


def test_theta_solution():
    ts = theta_bounded_Rn(6, 1 / 20)
    assert ts.recursion_residual() < 1e-9
    assert abs(ts.Rn[-1]) < 1e-10 and abs(ts.Rn[7]) < 1e-10
    newt = newton_bounded_Rn(6, 1 / 20)
    assert max(abs(ts.Rn[n] - newt[n]) for n in range(7)) < 1e-8
    for L in (4, 8):
        for g in (0.02, 0.06):
            ts = theta_bounded_Rn(L, g)
            newt = newton_bounded_Rn(L, g)
            assert max(abs(ts.Rn[n] - newt[n]) for n in range(L + 1)) < 1e-8
    with pytest.raises(OutOfRange):
        theta_bounded_Rn(6, 0.2)


def test_theta_large_L_approaches_unbounded():
    g = 1 / 20
    ts = theta_bounded_Rn(20, g)
    for n in range(6):
        assert abs(ts.Rn[n] - exact_Rn_quartic(n, g=g)) < 1e-6


def test_fixed_point_algebra_W():
    # W = (1-p) R(p(1-p)/3) satisfies W(1 - pW) = 1 - p through order 12
    order = 12
    R = solve_one_cut(Potential.quartic(), order).R
    p = TruncSeries.gen("p", order)
    gp = (p - p * p) / 3
    # R(gp) by Horner's rule; gp has zero constant term
    Rgp = TruncSeries.const("p", 0, order)
    for c in reversed(R.coeffs):
        Rgp = Rgp * gp + c
    W = (1 - p) * Rgp
    assert W * (1 - p * W) == 1 - p


def test_weierstrass_identity():
    assert weierstrass_scaling_check(3.0) < 1e-8
    assert weierstrass_scaling_check(4.5) < 1e-8
    with pytest.raises(DomainError):
        WeierstrassProfile(2.0)


def test_weierstrass_degenerates_to_two_point_scaling():
    prof = WeierstrassProfile(12.0)
    for r in (0.5, 1.0, 2.0):
        assert prof.U(r) == pytest.approx(1 + scaling_F(r), abs=1e-8)


def test_config_validation():
    with pytest.raises(ValueError):
        BranchingConfig(1.2)
    with pytest.raises(ValueError):
        BranchingConfig(0.3, start=-1)
    with pytest.raises(ValueError):
        BranchingConfig(0.3, walls="interval")
    with pytest.raises(ValueError):
        BranchingConfig(0.3, start=9, walls="interval", L=4)
    for t_max in (0, -1):
        # every run would be censored, and the estimate nan
        with pytest.raises(ValueError, match="t_max must be >= 1"):
            BranchingConfig(0.3, t_max=t_max)
    with pytest.raises(ValueError):
        escape_interval(BranchingConfig(0.3), 10)
