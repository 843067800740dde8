"""Spatial branching processes with geometric offspring and unit steps.

A population starts with one individual at integer position n; each
individual leaves k children with probability (1-p)p^k, each child moved
by -1, 0 or +1 independently and uniformly.  Walls: a child stepping to
-1 (or past L in interval mode) is an escape and the run counts as
non-extinction; this is exactly what the boundary value R_{-1} = 0
encodes.  Extinction-without-escape probabilities are values of the
distance-refined series: E_n = (1-p) R_n at g = p(1-p)/3.
"""

from fractions import Fraction
from math import acos, cos, pi, sin, sqrt
import random

from .geodesic import DomainError, exact_Rn_quartic


class OutOfRange(ValueError):
    pass


class BranchingConfig:
    """p: offspring parameter; start: initial position; walls: "single"
    (half-line n >= 0) or "interval" ([0, L]); t_max: generation cap."""

    def __init__(self, p, start=0, walls="single", L=None, t_max=100000,
                 seed=0):
        p = float(p)
        if not 0 <= p < 1:
            raise ValueError("p must lie in [0, 1)")
        if walls not in ("single", "interval"):
            raise ValueError("walls must be 'single' or 'interval'")
        if walls == "interval":
            if L is None or L < 0:
                raise ValueError("interval mode needs L >= 0")
            if not 0 <= start <= L:
                raise ValueError("start must lie in [0, L]")
        else:
            L = None
            if start < 0:
                raise ValueError("start must be >= 0")
        if t_max < 1:
            raise ValueError("t_max must be >= 1")
        self.p = p
        self.start = start
        self.walls = walls
        self.L = L
        self.t_max = t_max
        self.seed = seed


class RunTally:
    """Monte-Carlo tally; estimate and stderr are over decided runs,
    censored runs (generation cap hit) are reported, never dropped."""

    def __init__(self, hits, decided, censored, samples):
        self.hits = hits
        self.decided = decided
        self.censored = censored
        self.samples = samples
        self.estimate = hits / decided if decided else float("nan")
        if decided:
            e = self.estimate
            self.stderr = sqrt(e * (1 - e) / decided)
        else:
            self.stderr = float("nan")


def _rng(seed, index):
    return random.Random("mapforge.branching:%d:%d" % (seed, index))


def _run(cfg, rng):
    uniform, getrandbits = rng.random, rng.getrandbits
    p, L = cfg.p, cfg.L
    pop = [cfg.start]
    for _ in range(cfg.t_max):
        if not pop:
            return "extinct"
        new = []
        for pos in pop:
            k = 0
            while uniform() < p:
                k += 1
            for _ in range(k):
                # rng.choice((-1, 0, 1)) on the same words, as the samplers
                # in bijections draw a label increment
                r = getrandbits(2)
                while r == 3:
                    r = getrandbits(2)
                q = pos + r - 1
                if q < 0 or (L is not None and q > L):
                    return "escaped"
                new.append(q)
        pop = new
    return "censored"


def _tally(cfg, samples, outcome):
    hits = decided = censored = 0
    for i in range(samples):
        res = _run(cfg, _rng(cfg.seed, i))
        if res == "censored":
            censored += 1
        else:
            decided += 1
            if res == outcome:
                hits += 1
    return RunTally(hits, decided, censored, samples)


def simulate_extinction(cfg, samples):
    """Probability that the population dies out with no individual ever
    stepping over a wall."""
    return _tally(cfg, samples, "extinct")


def escape_interval(cfg, samples):
    """Probability that some individual leaves [0, L]."""
    if cfg.walls != "interval":
        raise ValueError("escape_interval needs interval walls")
    return _tally(cfg, samples, "escaped")


def branching_g(p):
    """The coupling g = p(1-p)/3 of the extinction dictionary."""
    return p * (1 - p) / 3 if isinstance(p, float) \
        else Fraction(p) * (1 - Fraction(p)) / 3


def extinction_exact(n, p):
    """E_n = (1-p) R_n(p(1-p)/3) on the half-line; exact Fraction at
    n = 0 (where R_0 = R - gR^3 and R = 1/(1-p) are rational), float
    otherwise."""
    if not 0 <= float(p) <= 0.5:
        raise OutOfRange("exact dictionary needs p <= 1/2")
    if n == 0:
        p = Fraction(p)
        g = branching_g(p)
        R = 1 / (1 - p)
        return (1 - p) * (R - g * R ** 3)
    return (1 - float(p)) * exact_Rn_quartic(n, g=float(branching_g(float(p))))


def newton_bounded_Rn(L, g, tol=1e-13):
    """R_0..R_L solving R_n = 1 + g R_n (R_{n+1} + R_n + R_{n-1}) with
    R_{-1} = R_{L+1} = 0, by Newton iteration.  The Jacobian is
    tridiagonal, with -g R_n beside the diagonal of row n, so each step is
    one Thomas sweep."""
    x = [1.0] * (L + 1)
    for _ in range(100):
        lo = [0.0] + x[:-1]
        hi = x[1:] + [0.0]
        F = [r - 1 - g * r * (h + r + d) for r, h, d in zip(x, hi, lo)]
        if max(map(abs, F)) < tol:
            return x
        # elimination leaves row n as step_n + up[n+1] step_{n+1} = rhs[n+1]
        up, rhs = [0.0], [0.0]
        for n in range(L + 1):
            side = -g * x[n]
            pivot = 1 - g * (hi[n] + 2 * x[n] + lo[n]) - side * up[-1]
            rhs.append((F[n] - side * rhs[-1]) / pivot)
            up.append(side / pivot)
        step = 0.0
        for n in range(L, -1, -1):
            step = rhs[n + 1] - up[n + 1] * step
            x[n] -= step
    raise OutOfRange("Newton iteration did not converge")


def escape_exact(n, L, p):
    """S_n = 1 - (1-p) R_n^(L) at g = p(1-p)/3 from the Newton solve."""
    p = float(p)
    if not 0 <= p <= 0.5:
        raise OutOfRange("exact dictionary needs p <= 1/2")
    if not 0 <= n <= L:
        raise ValueError("n must lie in [0, L]")
    Rn = newton_bounded_Rn(L, float(branching_g(p)))
    return 1 - (1 - p) * Rn[n]


# ---------------------------------------------------------------------------
# theta-function solution of the bounded recursion


def _theta(z, q):
    val = 2.0 * sin(pi * z)
    qj = q
    while qj > 1e-16:
        val *= 1 - 2 * qj * cos(2 * pi * z) + qj * qj
        qj *= q
    return val


def _theta_prime(z, q):
    prod = 1.0
    logd = 0.0
    qj = q
    while qj > 1e-16:
        f = 1 - 2 * qj * cos(2 * pi * z) + qj * qj
        prod *= f
        logd += 4 * pi * qj * sin(2 * pi * z) / f
        qj *= q
    return 2 * pi * cos(pi * z) * prod + 2 * sin(pi * z) * prod * logd


class ThetaSolution:
    """Bounded solution R_n^(L) = R u_n u_{n+3} / (u_{n+1} u_{n+2}) with
    u_n = theta_1((n+1)/(L+5)) at the nome fixed by the coupling."""

    def __init__(self, L, g, q, R):
        self.L = L
        self.g = g
        self.q = q
        self.alpha = 1.0 / (L + 5)
        self.R = R
        u = {n: _theta((n + 1) * self.alpha, q) for n in range(-1, L + 5)}
        self.u = u
        self.Rn = {n: R * u[n] * u[n + 3] / (u[n + 1] * u[n + 2])
                   for n in range(-1, L + 2)}

    def recursion_residual(self):
        worst = 0.0
        for n in range(self.L + 1):
            lo = self.Rn.get(n - 1, 0.0)
            hi = self.Rn.get(n + 1, 0.0)
            worst = max(worst, abs(self.Rn[n] - 1
                                   - self.g * self.Rn[n] * (hi + self.Rn[n] + lo)))
        return worst


def _theta_R_g(L, q):
    a = 1.0 / (L + 5)
    D = _theta_prime(a, q) / _theta(a, q) \
        - 0.5 * _theta_prime(2 * a, q) / _theta(2 * a, q)
    tp0 = _theta_prime(0.0, q)
    R = 4 * _theta(a, q) * _theta(2 * a, q) / (tp0 * _theta(3 * a, q)) * D
    g = tp0 ** 2 * _theta(3 * a, q) \
        / (16 * _theta(a, q) * _theta(2 * a, q) ** 2 * D * D)
    return R, g


def theta_bounded_Rn(L, g):
    """Solve the nome equation for q and build the theta-function solution."""
    from scipy.optimize import brentq
    # the product form needs ~16/(1-q) factors, so stay below .995
    lo, hi = 1e-9, 0.995

    def fn(q):
        return _theta_R_g(L, q)[1] - g

    grid = [lo] + [0.05 * k for k in range(1, 20)] + [hi]
    vals = []
    for x in grid:
        try:
            vals.append((x, fn(x)))
        except (ZeroDivisionError, OverflowError):
            pass
    bracket = None
    for (a, fa), (b, fb) in zip(vals, vals[1:]):
        if fa * fb < 0:
            bracket = (a, b)
            break
    if bracket is None:
        raise OutOfRange("no nome in (0,1) matches this coupling")
    q = brentq(fn, bracket[0], bracket[1], xtol=1e-15)
    R, _ = _theta_R_g(L, q)
    return ThetaSolution(L, g, q, R)


# ---------------------------------------------------------------------------
# Weierstrass scaling form of the bounded continuum limit


def _weierstrass_roots(g3):
    """The roots e1 > e2 > e3 of 4e^3 - 3e - g3 for |g3| < 1: with
    e = cos(theta) the cubic reads cos(3 theta) = g3."""
    t = acos(g3) / 3
    return cos(t), cos(t - 2 * pi / 3), cos(t + 2 * pi / 3)


class WeierstrassProfile:
    """U(r) = 2 wp(r | omega = lam/2) with second invariant g2 = 3; the
    third invariant is fixed by the half-period condition."""

    def __init__(self, lam):
        from scipy.optimize import brentq
        from scipy.special import ellipk
        self.lam = lam

        def omega(g3):
            e = _weierstrass_roots(g3)
            m = (e[1] - e[2]) / (e[0] - e[2])
            return float(ellipk(m)) / sqrt(e[0] - e[2])

        lo, hi = -1 + 1e-13, 1 - 1e-9
        if not omega(hi) < lam / 2 < omega(lo):
            raise DomainError("half-period lam/2 outside the reachable range")
        self.g3 = brentq(lambda t: omega(t) - lam / 2, lo, hi, xtol=1e-14)
        self.e = _weierstrass_roots(self.g3)
        self.m = (self.e[1] - self.e[2]) / (self.e[0] - self.e[2])

    def wp(self, r):
        from scipy.special import ellipj
        sn = ellipj(r * sqrt(self.e[0] - self.e[2]), self.m)[0]
        return self.e[2] + (self.e[0] - self.e[2]) / sn ** 2

    def U(self, r):
        return 2.0 * self.wp(r)


def weierstrass_scaling_check(lam, r_grid=None, h=1e-2):
    """Max over the grid of |U'' - (3U^2 - 3)| for the profile at lam.

    The double poles at the nearby real lattice points 0, lam and -lam
    are removed before the seven-point second difference and their exact
    second derivatives added back; differencing the full U near a pole
    would drown the identity in float cancellation."""
    prof = WeierstrassProfile(lam)
    if r_grid is None:
        r_grid = [0.2 + 0.05 * k for k in range(int((0.8 * lam - 0.2) / 0.05) + 1)]
    poles = (-lam, 0.0, lam)

    def smooth(r):
        return prof.U(r) - sum(2.0 / (r - c) ** 2 for c in poles)

    worst = 0.0
    for r in r_grid:
        if not 0 < r < lam:
            raise DomainError("grid point outside (0, lam)")
        d2 = (2 * smooth(r - 3 * h) - 27 * smooth(r - 2 * h)
              + 270 * smooth(r - h) - 490 * smooth(r)
              + 270 * smooth(r + h) - 27 * smooth(r + 2 * h)
              + 2 * smooth(r + 3 * h)) / (180 * h * h)
        d2 += sum(12.0 / (r - c) ** 4 for c in poles)
        worst = max(worst, abs(d2 - (3 * prof.U(r) ** 2 - 3)))
    return worst
