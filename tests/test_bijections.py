import sys
from collections import Counter
from fractions import Fraction as F
from itertools import accumulate, product
from math import sqrt

import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import chi2 as chi2_dist

from mapforge.series_core import TruncSeries
from mapforge.planar_onecut import Potential, solve_one_cut
from mapforge.geodesic import solve_Rn_series
from mapforge.observables import mc_profile
from mapforge.wick_fatgraphs import CombinatorialMap
from mapforge.bijections import (
    NotBlossom, NotQuadrangulation, NotTwoLeg, NotWellLabeled, TooLarge,
    acceptance_stats, blossom_close, blossom_cut, canonical_form,
    check_blossom, check_quadrangulation, check_two_leg, check_well_labeled,
    cvs_forward, cvs_inverse, distance_profile,
    enumerate_blossom_trees, enumerate_even_blossom_trees,
    enumerate_quadrangulations, enumerate_well_labeled,
    pointed_quadrangulation, sample_quadrangulation,
    sample_quadrangulation_uniform, sample_well_labeled_tree,
    tree_label_profile, _match_cyclic, _rng, random_plane_tree,
)

from map_oracles import vertex_bfs

# the default; the tests at A = 10**5 must pass without raising it
RECURSION_LIMIT = 1000


def _plane_shapes(A):
    if A == 0:
        yield ()
        return
    for first in range(1, A + 1):
        for sub in _plane_shapes(first - 1):
            for rest in _plane_shapes(A - first):
                yield (sub,) + rest


def test_well_labeled_counts_match_R0_series():
    gs = solve_Rn_series({4: F(1)}, 5, 6)
    for A in (1, 2, 3, 4):
        count = sum(1 for _ in enumerate_well_labeled(A))
        assert count == gs.R[0].coeffs[A]
    assert [sum(1 for _ in enumerate_well_labeled(A)) for A in (1, 2, 3, 4)] \
        == [2, 9, 54, 378]
    # trees with root label n are counted by R_n
    for n in (1, 2, 3):
        for A in (1, 2, 3):
            count = sum(1 for _ in enumerate_well_labeled(A, root_label=n))
            assert count == gs.R[n].coeffs[A]


def test_blossom_counts_match_R_series():
    R = solve_one_cut(Potential.quartic(), 4).R
    for A in (1, 2, 3):
        assert sum(1 for _ in enumerate_blossom_trees(A)) == R.coeffs[A]
    assert R.coeffs[1:4] == [3, 18, 135]
    # general even case: sextic alone follows R = 1 + 10 g R^3
    R6 = solve_one_cut(Potential({6: F(1)}), 3).R
    for A in (1, 2):
        assert sum(1 for _ in enumerate_even_blossom_trees([6], A)) \
            == R6.coeffs[A]


def test_blossom_round_trip():
    for A in (1, 2, 3):
        for t in enumerate_blossom_trees(A):
            m = blossom_close(t)
            assert blossom_cut(m) == t
    # map-side: distinct maps, and close is a left inverse of cut
    for A in (1, 2, 3):
        keys = set()
        for t in enumerate_blossom_trees(A):
            m = blossom_close(t)
            keys.add(canonical_form(m))
            m2 = blossom_close(blossom_cut(m))
            assert canonical_form(m2) == canonical_form(m)
        assert len(keys) == sum(1 for _ in enumerate_blossom_trees(A))


def test_cvs_round_trip():
    for A in (1, 2, 3):
        for t in enumerate_well_labeled(A):
            assert cvs_forward(cvs_inverse(t)) == t
        for m in enumerate_quadrangulations(A):
            m2 = cvs_inverse(cvs_forward(m))
            assert canonical_form(m2) == canonical_form(m)


@settings(max_examples=25, deadline=None)
@given(st.integers(50, 200), st.integers(0, 2 ** 32 - 1), st.integers(0, 99))
def test_cvs_round_trip_beyond_enumeration(A, seed, index):
    t, _ = sample_well_labeled_tree(A, seed, index)
    assert cvs_forward(cvs_inverse(t)) == t


def test_cvs_preserves_distances():
    for A in (1, 2, 3):
        for t in enumerate_well_labeled(A):
            m = cvs_inverse(t)
            counts, _ = distance_profile(m)
            prof = tree_label_profile(t)
            assert counts[0] == 1
            assert all(counts[k + 1] == v for k, v in prof.items())


def test_quadrangulation_counts():
    assert [len(enumerate_quadrangulations(A)) for A in (1, 2, 3, 4)] \
        == [2, 9, 54, 378]


def test_pointed_construction_is_a_bijection():
    # every (rooted quadrangulation, vertex) pair arises from exactly one
    # (plane tree, free labels, sign) triple
    for A in (1, 2):
        seen = Counter()
        for shape in _plane_shapes(A):
            for incs in product((-1, 0, 1), repeat=A):
                it = iter(incs)

                def lab(sh, x):
                    return (x, tuple(lab(c, x + next(it)) for c in sh))

                t = lab(shape, 0)
                for eps in (1, -1):
                    m, od = pointed_quadrangulation(t, eps)
                    order = {m.root: 0}
                    queue = [m.root]
                    while queue:
                        d = queue.pop(0)
                        for e in (m.sigma[d], m.alpha[d]):
                            if e not in order:
                                order[e] = len(order)
                                queue.append(e)
                    v = [od]
                    x = m.sigma[od]
                    while x != od:
                        v.append(x)
                        x = m.sigma[x]
                    seen[(canonical_form(m), min(order[d] for d in v))] += 1
        assert set(seen.values()) == {1}
        quads = Counter(q for q, _ in seen)
        assert set(quads.values()) == {A + 2}
        assert len(quads) == len(enumerate_quadrangulations(A))


def test_uniform_sampler_matches_enumeration():
    c = Counter()
    N = 9000
    for i in range(N):
        c[canonical_form(sample_quadrangulation_uniform(2, 5, i))] += 1
    assert len(c) == 9
    exp = N / 9
    chi2 = sum((x - exp) ** 2 / exp for x in c.values())
    assert chi2_dist.sf(chi2, 8) > 0.001


def test_rejection_sampler_acceptance_rate():
    N = 10000
    ok = acceptance_stats(50, 7, N)
    p = 2 / 52
    sigma = sqrt(p * (1 - p) / N)
    assert abs(ok / N - p) < 3 * sigma


def test_rejection_sampler_uniform():
    c = Counter()
    N = 20000
    for i in range(N):
        c[canonical_form(sample_quadrangulation(2, 11, i))] += 1
    assert len(c) == 9
    exp = N / 9
    chi2 = sum((x - exp) ** 2 / exp for x in c.values())
    assert chi2_dist.sf(chi2, 8) > 0.001


def test_sampler_is_reproducible():
    m1 = sample_quadrangulation(8, 3, 4)
    m2 = sample_quadrangulation(8, 3, 4)
    assert m1.sigma == m2.sigma and m1.alpha == m2.alpha
    m3 = sample_quadrangulation(8, 3, 5)
    assert (m1.sigma, m1.alpha) != (m3.sigma, m3.alpha)


def test_plane_tree_sampler_uniform():
    rng = _rng(1, 0)
    c = Counter(random_plane_tree(3, rng) for _ in range(10000))
    assert len(c) == 5  # Catalan(3)
    exp = 10000 / 5
    chi2 = sum((x - exp) ** 2 / exp for x in c.values())
    assert chi2_dist.sf(chi2, 4) > 0.001


def test_validation_errors():
    with pytest.raises(NotBlossom):
        blossom_close(("V", (("W",), ("W",), ("W",))))
    with pytest.raises(NotBlossom):
        blossom_close(("B",))
    with pytest.raises(NotWellLabeled):
        cvs_inverse((1, ()))
    with pytest.raises(NotWellLabeled):
        cvs_inverse((0, ((2, ()),)))
    with pytest.raises(TooLarge):
        list(enumerate_well_labeled(9))
    with pytest.raises(TooLarge):
        list(enumerate_blossom_trees(9))
    # a single-edge map is no quadrangulation
    with pytest.raises(NotQuadrangulation):
        cvs_forward(CombinatorialMap([0, 1], [1, 0], root=0))



# Small hand-built maps, as (sigma, alpha): two separate edges; one vertex
# with two crossing loops (one face, genus 1); one edge; one loop; the
# path a - b - c with b 2-valent, dart 0 at a and dart 1 at b.
TWO_EDGES = ([0, 1, 2, 3], [1, 0, 3, 2])
TORUS = ([1, 2, 3, 0], [2, 3, 0, 1])
EDGE = ([0, 1], [1, 0])
LOOP = ([1, 0], [1, 0])
PATH = ([0, 2, 1, 3], [1, 0, 3, 2])


@pytest.mark.parametrize("m, message", [
    (CombinatorialMap(*EDGE), "a root dart is required"),
    (CombinatorialMap(*TWO_EDGES, root=0), "map not connected"),
    (CombinatorialMap(*TORUS, root=0), "map not planar"),
    (CombinatorialMap(*EDGE, root=0), "all faces must have degree 4"),
], ids=["no-root", "disconnected", "torus", "edge"])
def test_check_quadrangulation_messages(m, message):
    with pytest.raises(NotQuadrangulation) as err:
        check_quadrangulation(m)
    assert type(err.value) is NotQuadrangulation
    assert str(err.value) == message


@pytest.mark.parametrize("m, message", [
    (CombinatorialMap(*TWO_EDGES, root=0), "map not connected"),
    (CombinatorialMap(*TORUS, root=0), "map not planar"),
    (CombinatorialMap(*LOOP, root=0), "need exactly two univalent legs"),
    (CombinatorialMap(*PATH, root=1), "root dart must sit on a leg"),
    (CombinatorialMap(*PATH, root=0), "inner vertices must be 4-valent"),
], ids=["disconnected", "torus", "loop", "root-inside", "path"])
def test_check_two_leg_messages(m, message):
    with pytest.raises(NotTwoLeg) as err:
        check_two_leg(m)
    assert type(err.value) is NotTwoLeg
    assert str(err.value) == message


W, B = ("W",), ("B",)


@pytest.mark.parametrize("t, message", [
    (B, "root slot cannot be a black leaf"),
    (("V", (W, W, W)), "total charge must be +1"),
    (("V", (W,)), "inner vertices must be 4-valent"),
    (("V", (B, B, ("V", (W, W, W)))),
     "each vertex needs exactly one black leaf"),
    (("V", (B, ("V", (W, W, W)), ("V", (B, B, W)))),
     "subtree charge must be +1"),
], ids=["black-root", "total-charge", "valence", "black-leaves",
        "subtree-charge"])
def test_check_blossom_messages(t, message):
    with pytest.raises(NotBlossom) as err:
        check_blossom(t)
    assert type(err.value) is NotBlossom
    assert str(err.value) == message

# ---------------------------------------------------------------------------
# Oracle: the nested-tuple route the flat-array sampler replaced, kept here
# as an independent check.  The tree is parsed recursively from the same
# shuffled step list, labelled recursively in preorder, and the chords are
# built per corner with sorted incoming lists; distance_profile is checked
# against the vertex BFS of map_oracles.


def _oracle_plane_tree(A, rng):
    steps = [1] * A + [-1] * (A + 1)
    rng.shuffle(steps)
    total = 0
    best = (1, 0)
    for i, s in enumerate(steps):
        total += s
        if total < best[0]:
            best = (total, i + 1)
    start = best[1] % len(steps)
    path = (steps[start:] + steps[:start])[:-1]
    pos = [0]

    def parse():
        kids = []
        while pos[0] < len(path) and path[pos[0]] == 1:
            pos[0] += 1
            kids.append(parse())
            pos[0] += 1
        return tuple(kids)

    return parse()


def _oracle_free_labels(shape, rng):
    def rec(sh, lab):
        return (lab, tuple(rec(c, lab + rng.choice((-1, 0, 1))) for c in sh))

    return rec(shape, 0)


def _oracle_pointed_quadrangulation(t, eps):
    corners = []
    next_id = [1]

    def walk(node, nid, is_root):
        lab, kids = node
        for c in kids:
            corners.append((nid, lab))
            cid = next_id[0]
            next_id[0] += 1
            walk(c, cid, False)
        if not is_root:
            corners.append((nid, lab))

    walk(t, 0, True)
    if not t[1]:
        corners.append((0, t[0]))
    shift = 1 - min(c[1] for c in corners)
    lab = [c[1] + shift for c in corners]
    n = len(corners)
    succ = [None] * n
    last = {}
    for _ in range(2):
        for i in range(n - 1, -1, -1):
            succ[i] = last.get(lab[i] - 1, succ[i])
            last[lab[i]] = i
    alpha = []
    for i in range(n):
        alpha.extend([2 * i + 1, 2 * i])
    incoming = {i: [] for i in range(n)}
    to_origin = []
    for i in range(n):
        if lab[i] == 1:
            to_origin.append(i)
        else:
            incoming[succ[i]].append(i)
    for j in range(n):
        incoming[j].sort(key=lambda i: (j - i) % n)
    by_vertex = {}
    for i, (nid, _) in enumerate(corners):
        by_vertex.setdefault(nid, []).append(i)
    sigma = [0] * (2 * n)
    for idxs in by_vertex.values():
        cyc = []
        for i in idxs:
            cyc.extend(2 * src + 1 for src in incoming[i])
            cyc.append(2 * i)
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            sigma[a] = b
    cyc = [2 * i + 1 for i in reversed(to_origin)]
    for a, b in zip(cyc, cyc[1:] + cyc[:1]):
        sigma[a] = b
    return sigma, alpha, 0 if eps > 0 else 1


def _oracle_distance_profile(m):
    verts, vertex_of, dist = vertex_bfs(m)
    return dict(Counter(dist)), len(verts[vertex_of[m.root]])


def _oracle_pointed_rows(A, n_max, samples, seed):
    data = []
    for i in range(samples):
        rng = _rng(seed, i)
        labs = tree_label_profile(
            _oracle_free_labels(_oracle_plane_tree(A, rng), rng))
        low = min(labs)
        counts = {l - low + 1: c for l, c in labs.items()}
        counts[0] = 1
        data.append([counts.get(n, 0) for n in range(n_max + 1)])
    out = []
    for n in range(n_max + 1):
        est = sum(row[n] for row in data) / samples
        var = sum((row[n] - est) ** 2 for row in data)
        out.append((est, sqrt(var) / samples))
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 500), st.integers(0, 2 ** 32 - 1), st.integers(0, 999))
# the benchmark's area, whose Fisher-Yates blocks draw up to 12 bits
@example(2000, 9100, 0)
@example(2000, 9100, 119)
@example(2000, 1, 0)
@example(2000, 1, 119)
def test_uniform_sampler_matches_nested_oracle(A, seed, index):
    rng = _rng(seed, index)
    t = _oracle_free_labels(_oracle_plane_tree(A, rng), rng)
    eps = rng.choice((1, -1))
    sigma, alpha, root = _oracle_pointed_quadrangulation(t, eps)
    m = sample_quadrangulation_uniform(A, seed, index)
    assert (m.sigma, m.alpha, m.root) == (tuple(sigma), tuple(alpha), root)
    assert distance_profile(m) == _oracle_distance_profile(m)
    # the nested route through the library's own tree helpers agrees too
    rng = _rng(seed, index)
    m2, _ = pointed_quadrangulation(
        _oracle_free_labels(random_plane_tree(A, rng), rng), eps)
    assert (m2.sigma, m2.alpha, m2.root) == (m.sigma, m.alpha, m.root)


@pytest.mark.parametrize("A, seed", [(1, 0), (7, 3), (60, 11), (400, 5)])
def test_pointed_mc_profile_matches_tree_label_route(A, seed):
    assert mc_profile(A, 6, 30, seed, "pointed") \
        == _oracle_pointed_rows(A, 6, 30, seed)


class _Rejected(Exception):
    pass


def _oracle_well_labeled_tree(A, seed, index):
    # the rejection sampler through Random.shuffle and Random.choice: a
    # proposal draws its increments in preorder and stops at the first
    # negative label, so the next proposal starts on the following word
    rng = _rng(seed, index)

    def labels(shape, lab):
        kids = []
        for c in shape:
            child = lab + rng.choice((-1, 0, 1))
            if child < 0:
                raise _Rejected
            kids.append(labels(c, child))
        return (lab, tuple(kids))

    tries = 0
    while True:
        tries += 1
        try:
            return labels(_oracle_plane_tree(A, rng), 0), tries
        except _Rejected:
            pass


REJECTION_CASES = [(A, seed, index) for A in (0, 1, 2, 3, 5, 9, 17, 40)
                   for seed, index in ((0, 0), (4, 1), (31, 7))]


@pytest.mark.parametrize("A, seed, index", REJECTION_CASES)
def test_rejection_sampler_matches_shuffle_choice_stream(A, seed, index):
    assert sample_well_labeled_tree(A, seed, index) \
        == _oracle_well_labeled_tree(A, seed, index)


def test_rejection_stream_cases_reject_early():
    # the stream pin above is only sharp where proposals are rejected part
    # way through their increments
    for A in (5, 9, 17, 40):
        assert any(_oracle_well_labeled_tree(A, s, i)[1] > 1
                   for a, s, i in REJECTION_CASES if a == A)


@pytest.mark.parametrize("A", [0, 1, 2, 7, 30, 500, 2000])
def test_distance_profile_counts_levels_in_order(A):
    for seed in (0, 9):
        # area 0 has no quadrangulation; the sampler refuses it, and the
        # one-edge map it used to return is profiled directly
        m = (sample_quadrangulation_uniform(A, seed, 3) if A
             else CombinatorialMap(*EDGE, root=0))
        counts, deg = distance_profile(m)
        assert list(counts) == list(range(len(counts)))
        assert sum(counts.values()) == A + 2 and counts[0] == 1
        assert (counts, deg) == _oracle_distance_profile(m)


def _shape_and_labels(t):
    # (label, number of children) in preorder determines a nested tree
    out = []
    stack = [t]
    while stack:
        lab, kids = stack.pop()
        out.append((lab, len(kids)))
        stack.extend(reversed(kids))
    return out


def test_uniform_sampler_at_area_1e5():
    assert sys.getrecursionlimit() == RECURSION_LIMIT
    A = 10 ** 5
    counts, deg = distance_profile(sample_quadrangulation_uniform(A, 7, 0))
    assert sum(counts.values()) == A + 2 and counts[0] == 1 and deg >= 1


def test_cvs_round_trip_of_a_1e5_edge_path():
    assert sys.getrecursionlimit() == RECURSION_LIMIT
    A = 10 ** 5
    t = (A, ())
    for lab in range(A - 1, -1, -1):
        t = (lab, (t,))
    back = cvs_forward(cvs_inverse(t))
    # nested tuples this deep cannot be compared with ==, which recurses
    assert _shape_and_labels(back) == _shape_and_labels(t)
    assert tree_label_profile(back) == {lab: 1 for lab in range(A + 1)}


# ---------------------------------------------------------------------------
# Oracle: the blossom bijection the one-walk code replaced, kept here as an
# independent check.  Leaves are matched by a fixed-point loop, the map is
# built recursively, and the cut runs pass by pass over the whole external
# face with a fresh bridge search for every candidate edge.


def _oracle_match_cyclic(colors):
    n = len(colors)
    partner = [None] * n
    changed = True
    while changed:
        changed = False
        for i in range(n):
            if colors[i] != "B" or partner[i] is not None:
                continue
            j = (i + 1) % n
            while j != i and partner[j] is not None:
                j = (j + 1) % n
            if j != i and colors[j] == "W":
                partner[i], partner[j] = j, i
                changed = True
    lone = [i for i in range(n) if colors[i] == "W" and partner[i] is None]
    if len(lone) != 1 or any(colors[i] == "B" and partner[i] is None
                             for i in range(n)):
        raise NotBlossom("leaf matching failed")
    return {(i, j) for i, j in enumerate(partner) if colors[i] == "B"}, lone[0]


def _oracle_blossom_close(t):
    sigma_cycles, alpha_pairs, leaf_darts, leaf_colors = [], [], [], []
    counter = [0]

    def new_dart():
        counter[0] += 1
        return counter[0] - 1

    def build(node, parent_dart):
        if node[0] in ("W", "B"):
            leaf_darts.append(parent_dart)
            leaf_colors.append(node[0])
            return
        top = new_dart()
        kid_darts = [new_dart() for _ in node[1]]
        sigma_cycles.append([top] + kid_darts)
        alpha_pairs.append((parent_dart, top))
        for kd, child in zip(kid_darts, node[1]):
            build(child, kd)

    root_dart = new_dart()
    sigma_cycles.append([root_dart])
    build(t, root_dart)
    pairs, lone = _oracle_match_cyclic(leaf_colors)
    for i, j in pairs:
        alpha_pairs.append((leaf_darts[i], leaf_darts[j]))
    in_dart = new_dart()
    sigma_cycles.append([in_dart])
    alpha_pairs.append((leaf_darts[lone], in_dart))
    sigma = [0] * counter[0]
    for cyc in sigma_cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            sigma[a] = b
    alpha = [0] * counter[0]
    for a, b in alpha_pairs:
        alpha[a], alpha[b] = b, a
    return tuple(sigma), tuple(alpha), root_dart


def _oracle_blossom_cut(m):
    sigma, alpha, root_dart = list(m.sigma), list(m.alpha), m.root
    in_dart = [v[0] for v in m.vertices()
               if len(v) == 1 and v[0] != root_dart][0]
    color = {}
    leg_like = {in_dart, root_dart}

    def is_bridge(d):
        e = alpha[d]
        seen = {d}
        stack = [d]
        while stack:
            x = stack.pop()
            for y in [sigma[x]] + ([alpha[x]] if x not in (d, e) else []):
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return e not in seen

    def external_face():
        face = [in_dart]
        d = sigma[alpha[in_dart]]
        while d != in_dart:
            face.append(d)
            d = sigma[alpha[d]]
        return face

    any_cut = True
    while any_cut:
        any_cut = False
        for d in external_face():
            e = alpha[d]
            if d in color or e in color or d in leg_like or e in leg_like \
                    or is_bridge(d):
                continue
            x, y = len(sigma), len(sigma) + 1
            sigma.extend([x, y])
            alpha[d], alpha[e] = x, y
            alpha.extend([d, e])
            color[x], color[y] = "B", "W"
            any_cut = True

    def node_from(d):
        e = alpha[d]
        if e in color:
            return (color[e],)
        if e == in_dart:
            return ("W",)
        kids = []
        x = sigma[e]
        while x != e:
            kids.append(node_from(x))
            x = sigma[x]
        return ("V", tuple(kids))

    return node_from(root_dart)


def _random_blossom_tree(A, rng):
    """A uniform quartic blossom tree with A inner vertices, built without
    recursion: a binary tree from its preorder arity word (cycle lemma),
    with each vertex's black leaf in a uniform one of its three slots."""
    word = [2] * A + [0] * (A + 1)
    rng.shuffle(word)
    heights = list(accumulate(a - 1 for a in word))
    start = (heights.index(min(heights)) + 1) % len(word)
    # read the preorder word backwards: the stack's top is the first child
    stack = []
    for a in reversed(word[start:] + word[:start]):
        if a == 0:
            stack.append(("W",))
        else:
            kids = [stack.pop(), stack.pop()]
            kids.insert(rng.randrange(3), ("B",))
            stack.append(("V", tuple(kids)))
    return stack[0]


def _blossom_preorder(t):
    # (tag, number of children) in preorder determines a blossom tree
    out = []
    stack = [t]
    while stack:
        node = stack.pop()
        kids = node[1] if node[0] == "V" else ()
        out.append((node[0], len(kids)))
        stack.extend(reversed(kids))
    return out


def test_match_cyclic_matches_fixed_point_oracle():
    for n in range(11):
        for colors in product("BW", repeat=n):
            try:
                expected = _oracle_match_cyclic(colors)
            except NotBlossom:
                with pytest.raises(NotBlossom, match="leaf matching failed"):
                    _match_cyclic(colors)
                continue
            pairs, lone = _match_cyclic(colors)
            assert (set(pairs), lone) == expected
            assert len(pairs) == len(expected[0])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 60), st.integers(0, 2 ** 32 - 1))
def test_blossom_bijection_matches_oracle(A, seed):
    t = _random_blossom_tree(A, _rng(seed, 0))
    m = blossom_close(t)
    assert (m.sigma, m.alpha, m.root) == _oracle_blossom_close(t)
    assert blossom_cut(m) == _oracle_blossom_cut(m) == t


@settings(max_examples=25, deadline=None)
@given(st.integers(50, 500), st.integers(0, 2 ** 32 - 1))
def test_blossom_round_trip_beyond_enumeration(A, seed):
    t = _random_blossom_tree(A, _rng(seed, 0))
    assert blossom_cut(blossom_close(t)) == t


def test_blossom_round_trip_of_a_depth_3000_caterpillar():
    assert sys.getrecursionlimit() == RECURSION_LIMIT
    # each vertex hangs the next one between its black and white leaves
    t = ("W",)
    for _ in range(3000):
        t = ("V", (("B",), t, ("W",)))
    m = blossom_close(t)
    assert m.n_darts == 4 * 3000 + 2
    # nested tuples this deep cannot be compared with ==, which recurses
    assert _blossom_preorder(blossom_cut(m)) == _blossom_preorder(t)
