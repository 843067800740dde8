"""Task lists of the three benchmark workloads and the checks on their outputs.

A task is a named call into mapforge.  Exact tasks return canonical text
that must equal, byte for byte, the reference stored in references.json.
Monte-Carlo tasks return a summary that is checked within Z_BOUND standard
errors against an independent route, so a sanctioned change of the random
stream is not a failure but a broken sampler is.

Every task reaches mapforge through module attributes looked up at call
time, so the wrappers installed by tracing.py see the calls.
"""

import io
import json
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction
from math import sqrt

WORKLOADS = ("exact_rational", "exact_symbolic", "monte_carlo")
SIZES = ("full", "tiny")

# |z| above this fails a Monte-Carlo check; a correct sampler exceeds it
# with probability below 1e-6 per check
Z_BOUND = 5.0

# domain counters and their units; each repeats exactly from run to run
COUNTERS = {
    "series_core.max_coeff_bits": "bits",
    "ortho_genus.hankel_M": "count",
    "wick_fatgraphs.pairings": "count",
    "bijections.accept_ratio": "ratio",
    "branching.censored": "count",
    "observables.cache_hits": "count",
    "observables.cache_misses": "count",
}

MC_AREA = {"full": 2000, "tiny": 50}
MC_MAPS = {"full": 120, "tiny": 40}


class CheckFailed(Exception):
    pass


def plain(value, mf):
    """JSON-ready exact rendering of a mapforge return value."""
    sc = mf.series_core
    if isinstance(value, (int, Fraction)):
        return sc.rat_str(value)
    if isinstance(value, sc.TruncSeries):
        return value.to_strings()
    if isinstance(value, sc.SymbolPoly):
        return repr(value)
    if isinstance(value, mf.string_eq.DiffPoly):
        return mf.cli.diffpoly_text(value)
    if isinstance(value, (mf.planar_onecut.OneCutSolution,
                          mf.geodesic.GeodesicSeries)):
        return {"R": plain(value.R, mf), "S": plain(value.S, mf)}
    if isinstance(value, dict):
        return {str(k): plain(v, mf) for k, v in value.items()}
    raise TypeError("no exact rendering for %r" % type(value))


def _cli(*argv):
    def run(mf):
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = mf.cli.main(list(argv))
        if rc != 0:
            raise CheckFailed("exit code %d" % rc)
        return buf.getvalue()
    return "mapforge " + " ".join(argv), run


def _api(label, call):
    def run(mf):
        return json.dumps(plain(call(mf), mf), sort_keys=True)
    return label, run


def _test_series(mf, order):
    """1 + sum_k g^k / (k(k+1)): denominators grow, as in the solvers."""
    return mf.series_core.TruncSeries(
        "g", [1] + [Fraction(1, k * (k + 1)) for k in range(1, order + 1)])


def exact_rational(size):
    tiny = size == "tiny"
    o = 8 if tiny else 60
    return [
        _cli("planar", "--order", "6" if tiny else "32"),
        _cli("geodesic", "--n", "2" if tiny else "5",
             "--order", "4" if tiny else "12"),
        _cli("local", "--emit", "profile", "--nmax", "2" if tiny else "5",
             "--finite-area", "4" if tiny else "10"),
        _api("solve_one_cut({3: 1}, %d)" % (6 if tiny else 30),
             lambda mf: mf.planar_onecut.solve_one_cut(
                 mf.planar_onecut.Potential({3: 1}), 6 if tiny else 30)),
        _api("solve_Rn_series({3: 1}, %s)" % ("2, 3" if tiny else "3, 8"),
             lambda mf: mf.geodesic.solve_Rn_series(
                 {3: 1}, *((2, 3) if tiny else (3, 8)))),
        _api("exact_Rn_quartic(%s)" % ("2, order=6" if tiny
                                       else "5, order=25"),
             lambda mf: mf.geodesic.exact_Rn_quartic(
                 2 if tiny else 5, order=6 if tiny else 25)),
        _api("fixed_area_ratio(%s)" % ("2, 8" if tiny else "4, 40"),
             lambda mf: mf.geodesic.fixed_area_ratio(
                 *((2, 8) if tiny else (4, 40)))),
        _api("TruncSeries.log(order %d)" % o,
             lambda mf: _test_series(mf, o).log()),
        _api("TruncSeries.sqrt(order %d)" % o,
             lambda mf: _test_series(mf, o).sqrt()),
        _api("TruncSeries.exp(order %d)" % o,
             lambda mf: (_test_series(mf, o) - 1).exp()),
    ]


def exact_symbolic(size):
    tiny = size == "tiny"
    return [
        _cli("genus", "--order", "2" if tiny else "3"),
        _cli("oracle", "--weights", "g4=1", "--order", "2" if tiny else "3",
             "--genus-split"),
        _cli("stringeq", "--m", "1"),
        _api("exact_free_energy_FN({4: 1, 6: 1}, %d)" % (1 if tiny else 3),
             lambda mf: mf.ortho_genus.exact_free_energy_FN(
                 {4: 1, 6: 1}, 1 if tiny else 3)),
        _api("planar_free_energy(Potential({4: 1, 6: 1}), %d)"
             % (4 if tiny else 10),
             lambda mf: mf.planar_onecut.planar_free_energy(
                 mf.planar_onecut.Potential({4: 1, 6: 1}), 4 if tiny else 10)),
        _api("kdv_residue(%d)" % (1 if tiny else 2),
             lambda mf: mf.string_eq.kdv_residue(1 if tiny else 2)),
        _api("weighted_Zn_solve(%s)" % ("1, 3" if tiny else "2, 5"),
             lambda mf: mf.observables.weighted_Zn_solve(
                 *((1, 3) if tiny else (2, 5)))),
    ]


def _z(estimate, exact, stderr, what):
    if not stderr > 0:
        raise CheckFailed("%s: zero standard error" % what)
    z = (estimate - exact) / stderr
    if abs(z) > Z_BOUND:
        raise CheckFailed("%s: estimate %r vs %r, z = %.2f"
                          % (what, estimate, exact, z))
    return z


def _check_profile(mf, rows, A, what):
    """rows[n] = (mean, stderr) for n = 0..n_max, vertex-origin ensemble."""
    worst = 0.0
    for n in range(1, len(rows)):
        exact = mf.observables.vertices_at_distance_numeric(n, A)
        z = _z(rows[n][0], exact, rows[n][1], "%s n=%d" % (what, n))
        worst = max(worst, abs(z))
    return "max |z| %.2f" % worst


def monte_carlo(size, seed, block, latencies):
    """(name, task, check) triples; check(mf, output, counters) raises
    CheckFailed or returns a note, and adds to the domain counters.

    Block k samples the maps with indices k*MC_MAPS .. (k+1)*MC_MAPS - 1,
    so each pass of a run times fresh maps; the other tasks repeat.
    latencies receives the milliseconds of every sample + profile."""
    A = MC_AREA[size]
    maps = MC_MAPS[size]
    small_A = 4 if size == "tiny" else 10
    trees = 200 if size == "tiny" else 2000
    runs = 500 if size == "tiny" else 4000
    pointed_maps = maps // 2

    def uniform(mf):
        b = mf.bijections
        data = []
        clock = time.perf_counter
        for i in range(block * maps, (block + 1) * maps):
            t0 = clock()
            counts, deg = b.distance_profile(
                b.sample_quadrangulation_uniform(A, seed, i))
            latencies.append((clock() - t0) * 1000.0)
            data.append((counts, 1.0 / deg))
        return data

    def check_uniform(mf, data, counters):
        # reweight root-origin samples by 1/deg to the vertex-origin
        # ensemble, as mc_profile(method="reweighted") does
        wsum = sum(w for _, w in data)
        rows = []
        for n in range(7):
            est = sum(w * c.get(n, 0) for c, w in data) / wsum
            var = sum((w * (c.get(n, 0) - est)) ** 2 for c, w in data)
            rows.append((est, sqrt(var) / wsum))
        return _check_profile(mf, rows, A, "uniform")

    def pointed(mf):
        return mf.observables.mc_profile(A, 6, pointed_maps, seed,
                                         method="pointed")

    def check_pointed(mf, rows, counters):
        return _check_profile(mf, rows, A, "pointed")

    def rejection(mf):
        return [mf.bijections.sample_well_labeled_tree(small_A, seed, i)[1]
                for i in range(trees)]

    def check_rejection(mf, tries, counters):
        proposals = sum(tries)
        counters["bijections.accept_ratio"] = len(tries) / proposals
        rate = Fraction(2, small_A + 2)
        se = sqrt(float(rate * (1 - rate)) / proposals)
        z = _z(len(tries) / proposals, float(rate), se, "acceptance")
        return "accepted %d of %d, z %.2f" % (len(tries), proposals, z)

    def extinction(mf):
        br = mf.branching
        return br.simulate_extinction(br.BranchingConfig(0.45, start=1,
                                                         seed=seed), runs)

    def check_extinction(mf, tally, counters):
        counters["branching.censored"] += tally.censored
        exact = float(mf.branching.extinction_exact(1, 0.45))
        z = _z(tally.estimate, exact, tally.stderr, "extinction")
        return "z %.2f, censored %d" % (z, tally.censored)

    def escape(mf):
        br = mf.branching
        cfg = br.BranchingConfig(0.45, start=3, walls="interval", L=6,
                                 seed=seed)
        return br.escape_interval(cfg, runs)

    def check_escape(mf, tally, counters):
        counters["branching.censored"] += tally.censored
        exact = mf.branching.escape_exact(3, 6, 0.45)
        z = _z(tally.estimate, exact, tally.stderr, "escape")
        return "z %.2f, censored %d" % (z, tally.censored)

    return [
        ("sample_quadrangulation_uniform + distance_profile, A=%d x %d"
         % (A, maps), uniform, check_uniform),
        ("mc_profile(%d, 6, %d, pointed)" % (A, pointed_maps), pointed,
         check_pointed),
        ("sample_well_labeled_tree(%d) x %d" % (small_A, trees), rejection,
         check_rejection),
        ("simulate_extinction(p=0.45, n=1) x %d" % runs, extinction,
         check_extinction),
        ("escape_interval(p=0.45, n=3, L=6) x %d" % runs, escape,
         check_escape),
    ]


def exact_tasks(workload, size):
    return {"exact_rational": exact_rational,
            "exact_symbolic": exact_symbolic}[workload](size)


def seeded_order(tasks, seed):
    """The seed fixes the order in which the tasks run."""
    tasks = list(tasks)
    random.Random("perfbench:%d" % seed).shuffle(tasks)
    return tasks
