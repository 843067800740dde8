"""Tree bijections for planar maps.

Two constructions are implemented on top of the half-edge maps of
wick_fatgraphs:

* blossom trees (4-valent, one black leaf per vertex) <-> two-leg 4-valent
  planar maps, by matching black leaves to white leaves around the tree
  contour and, inversely, by cutting border edges of the external face;
* well-labeled trees <-> rooted quadrangulations: distance labels, one new
  edge per face joining the two corners whose face-successor carries a
  label one less, then erasure of the old edges and the origin.  Tree
  labels are the distances minus one, so the root label is 0.

Trees are nested tuples, walked with explicit stacks.  Two samplers round
the module off: label rejection on nested trees, and the uniform pointed
sampler, which runs on flat lists from the cycle-lemma step list to the
finished map.  Both draw inline the very words random.Random's shuffle and
choice would draw, so a seed gives the same tree and map as through those
methods.
"""

import random
from itertools import accumulate, combinations, product

from .wick_fatgraphs import CombinatorialMap, TooLarge

TREE_CAP = 8


class NotBlossom(ValueError):
    pass


class NotTwoLeg(ValueError):
    pass


class NotQuadrangulation(ValueError):
    pass


class NotWellLabeled(ValueError):
    pass


# ---------------------------------------------------------------------------
# blossom trees: ("W",) white leaf, ("B",) black leaf,
# ("V", (c0, c1, c2)) inner 4-valent vertex seen from its parent


def check_blossom(t):
    """Quartic blossom invariants: one black leaf per vertex and every
    subtree not reduced to a black leaf carries charge +1 (white leaves
    count +1, black leaves -1)."""
    if t[0] == "B":
        raise NotBlossom("root slot cannot be a black leaf")
    if t[0] != "V":
        return
    # the inner vertices in preorder with their parents' positions; a leaf
    # adds its charge to its parent
    inner, up, charge = [], [], []
    stack = [(t, -1)]
    while stack:
        node, p = stack.pop()
        if node[0] == "V":
            up.append(p)
            charge.append(0)
            inner.append(node)
            p = len(inner) - 1
            stack.extend((c, p) for c in reversed(node[1]))
        else:
            charge[p] += 1 if node[0] == "W" else -1
    # children come after their parents in preorder
    for i in range(len(inner) - 1, 0, -1):
        charge[up[i]] += charge[i]
    if charge[0] != 1:
        raise NotBlossom("total charge must be +1")
    for i, node in enumerate(inner):
        if i and charge[i] != 1:
            raise NotBlossom("subtree charge must be +1")
        children = node[1]
        if len(children) != 3:
            raise NotBlossom("inner vertices must be 4-valent")
        if sum(1 for c in children if c[0] == "B") != 1:
            raise NotBlossom("each vertex needs exactly one black leaf")


def enumerate_blossom_trees(n_vertices):
    """All quartic blossom trees with the given number of inner vertices."""
    return enumerate_even_blossom_trees((4,), n_vertices)


def enumerate_even_blossom_trees(valences, n_vertices):
    """General even case: a 2k-valent vertex carries k-1 black leaves among
    its 2k-1 descendant slots, the rest being charge +1 subtrees."""
    if n_vertices > TREE_CAP:
        raise TooLarge("blossom enumeration capped at %d vertices" % TREE_CAP)
    for v in valences:
        if v % 2 or v < 4:
            raise NotBlossom("valences must be even and >= 4")
    ks = sorted(set(v // 2 for v in valences))
    cache = {}

    def charged(n):
        if n not in cache:
            cache[n] = list(gen(n))
        return cache[n]

    def gen(n):
        if n == 0:
            yield ("W",)
            return
        for k in ks:
            slots = 2 * k - 1
            for mask in combinations(range(slots), k - 1):
                open_slots = [i for i in range(slots) if i not in mask]
                for parts in _compositions(n - 1, len(open_slots)):
                    for subs in product(*(charged(m) for m in parts)):
                        kids = [("B",)] * slots
                        for slot, sub in zip(open_slots, subs):
                            kids[slot] = sub
                        yield ("V", tuple(kids))

    # only the smaller sizes are cached; the requested one streams
    yield from gen(n_vertices)


def _compositions(total, parts):
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _match_cyclic(colors):
    """Match each black leaf with the next unmatched white leaf in cyclic
    order; returns (pairs, index of the lone white leaf).  One stack pass:
    a white leaf closes the latest open black leaf.  On the second turn of
    the cyclic word, the whites left unmatched, all before the first black
    still open, close those blacks, the latest first."""
    pairs, blacks, whites = [], [], []
    for i, c in enumerate(colors):
        if c == "B":
            blacks.append(i)
        elif blacks:
            pairs.append((blacks.pop(), i))
        else:
            whites.append(i)
    if len(whites) != len(blacks) + 1:
        raise NotBlossom("leaf matching failed")
    pairs.extend(zip(reversed(blacks), whites))
    return pairs, whites[-1]


def blossom_close(t):
    """Blossom tree -> two-leg 4-valent planar map (root dart on out-leg)."""
    check_blossom(t)
    # darts in preorder: the out-leg 0, then per inner vertex the dart
    # toward its parent and one dart per child, in rotation order; the
    # in-leg comes last
    sigma, alpha = [0], [0]
    leaf_darts, leaf_colors = [], []
    stack = [(t, 0)]
    while stack:
        node, parent_dart = stack.pop()
        if node[0] != "V":
            # leaves come in contour order starting from the root slot
            leaf_darts.append(parent_dart)
            leaf_colors.append(node[0])
            continue
        top = len(sigma)
        k = len(node[1])
        sigma.extend(range(top + 1, top + k + 1))
        sigma.append(top)
        alpha.extend([0] * (k + 1))
        alpha[parent_dart], alpha[top] = top, parent_dart
        stack.extend(zip(reversed(node[1]), range(top + k, top, -1)))
    pairs, lone = _match_cyclic(leaf_colors)
    for i, j in pairs:
        a, b = leaf_darts[i], leaf_darts[j]
        alpha[a], alpha[b] = b, a
    in_dart = len(sigma)
    sigma.append(in_dart)
    alpha.append(leaf_darts[lone])
    alpha[leaf_darts[lone]] = in_dart
    m = CombinatorialMap(sigma, alpha, root=0)
    check_two_leg(m)
    return m


def check_two_leg(m):
    """Planar connected map, two univalent legs with the root dart on one
    of them, all other vertices 4-valent; returns the vertices."""
    if len(m.components()) != 1:
        raise NotTwoLeg("map not connected")
    verts = m.vertices()
    # Euler's formula for the one component
    if len(verts) - m.n_darts // 2 + len(m.faces()) != 2:
        raise NotTwoLeg("map not planar")
    legs = [v for v in verts if len(v) == 1]
    if len(legs) != 2:
        raise NotTwoLeg("need exactly two univalent legs")
    if not any(m.root in v for v in legs):
        raise NotTwoLeg("root dart must sit on a leg")
    for v in verts:
        if len(v) not in (1, 4):
            raise NotTwoLeg("inner vertices must be 4-valent")
    return verts


def _after(sigma, e):
    """The darts after e around its vertex, e excluded."""
    d = sigma[e]
    while d != e:
        yield d
        d = sigma[d]


def blossom_cut(m):
    """Two-leg map -> blossom tree; inverse of blossom_close.

    Walks the external face (the one at the in-leg) in the face orientation,
    cutting every non-bridge edge into a black stub (side met first) and a
    white stub, until only a tree remains."""
    verts = check_two_leg(m)
    sigma, alpha, root_dart = m.sigma, m.alpha, m.root
    legs = [v[0] for v in verts if len(v) == 1]
    in_dart = [d for d in legs if d != root_dart][0]
    leg_like = {in_dart, root_dart}
    stub = [None] * len(sigma)  # the colour of the stub a cut leaves at d
    outer = [False] * len(sigma)  # d lies on the external face
    walk = []

    def join(d):
        # d's face joins the external face, walked from d round
        while not outer[d]:
            outer[d] = True
            walk.append(d)
            d = sigma[alpha[d]]

    # The map is planar, so an edge of the external face is a bridge exactly
    # when the external face lies on its other side too.  Cutting d's edge
    # merges the face across it into the external face, where its darts
    # follow d, from sigma[d] round to d's partner.  A dart passed over is
    # never cut later, since the external face only grows, so one walk over
    # the darts in the order they join makes the cuts of the pass-by-pass
    # walk round the whole external face, in the same order.
    join(in_dart)
    for d in walk:
        e = alpha[d]
        if stub[d] or d in leg_like or e in leg_like or outer[e]:
            continue
        stub[d], stub[e] = "B", "W"
        join(sigma[d])

    # rebuild the tree from the root dart, each vertex seen from the dart
    # that points toward it along a surviving edge
    top = []
    stack = [(top, iter((root_dart,)))]
    while stack:
        kids, darts = stack[-1]
        for d in darts:
            e = alpha[d]
            if stub[d]:
                kids.append((stub[d],))
            elif e == in_dart:
                kids.append(("W",))
            else:
                stack.append(([], _after(sigma, e)))
                break
        else:
            stack.pop()
            if stack:
                stack[-1][0].append(("V", tuple(kids)))
    t = top[0]
    check_blossom(t)
    return t


def canonical_form(m):
    """Canonical dart relabeling of a rooted connected map; a complete
    isomorphism invariant."""
    order = {m.root: 0}
    queue = [m.root]
    head = 0
    while head < len(queue):
        d = queue[head]
        head += 1
        for e in (m.sigma[d], m.alpha[d]):
            if e not in order:
                order[e] = len(order)
                queue.append(e)
    n = m.n_darts
    sigma = [0] * n
    alpha = [0] * n
    for d in range(n):
        sigma[order[d]] = order[m.sigma[d]]
        alpha[order[d]] = order[m.alpha[d]]
    return (tuple(sigma), tuple(alpha))


# ---------------------------------------------------------------------------
# well-labeled trees: nested (label, (children...))


def _preorder(t):
    """(parent, node) pairs of a nested (label, kids) tree in preorder; the
    root's parent is None."""
    stack = [(None, t)]
    while stack:
        parent, node = stack.pop()
        yield parent, node
        stack.extend((node, c) for c in reversed(node[1]))


def check_well_labeled(t):
    if t[0] != 0:
        raise NotWellLabeled("root label must be 0")
    for parent, (lab, _) in _preorder(t):
        if parent is not None and abs(lab - parent[0]) > 1:
            raise NotWellLabeled("adjacent labels must differ by <= 1")
        if lab < 0:
            raise NotWellLabeled("labels must be non-negative")


def tree_edges(t):
    return sum(1 for _ in _preorder(t)) - 1


def enumerate_well_labeled(n_edges, root_label=0):
    """All well-labeled trees with the given number of edges."""
    if n_edges > TREE_CAP:
        raise TooLarge("tree enumeration capped at %d edges" % TREE_CAP)

    def forests(budget, root_lab):
        if budget == 0:
            yield ()
            return
        for first_edges in range(1, budget + 1):
            for lab in (root_lab - 1, root_lab, root_lab + 1):
                if lab < 0:
                    continue
                for sub in forests(first_edges - 1, lab):
                    for rest in forests(budget - first_edges, root_lab):
                        yield ((lab, sub),) + rest

    for kids in forests(n_edges, root_label):
        yield (root_label, kids)


# ---------------------------------------------------------------------------
# CVS bijection: rooted quadrangulations <-> well-labeled trees


def check_quadrangulation(m):
    """Rooted, connected, planar, every face of degree 4; returns (faces,
    dist) with dist as _bfs gives it.  A connected planar map whose faces
    all have even degree is bipartite, so none is checked."""
    if m.root is None:
        raise NotQuadrangulation("a root dart is required")
    dist, sizes, _ = _bfs(m)
    if -1 in dist:
        raise NotQuadrangulation("map not connected")
    faces = m.faces()
    # Euler's formula, with sum(sizes) vertices
    if sum(sizes) - m.n_darts // 2 + len(faces) != 2:
        raise NotQuadrangulation("map not planar")
    for f in faces:
        if len(f) != 4:
            raise NotQuadrangulation("all faces must have degree 4")
    return faces, dist


def cvs_forward(m):
    """Rooted quadrangulation -> well-labeled tree (root label 0)."""
    faces, dist = check_quadrangulation(m)
    # one new edge per face, joining the two corners preceded around the
    # face by a corner with a label one less.  Every edge of the bipartite
    # map changes the distance by exactly 1, so the four steps around a
    # face are two +1 and two -1, and exactly two corners are marked.
    anchor = {}
    for face in faces:
        a, b = [d for i, d in enumerate(face)
                if dist[face[i - 1]] == dist[d] - 1]
        anchor[a] = b
        anchor[b] = a
    sigma = m.sigma
    seen = [False] * m.n_darts

    def rotation(b):
        # the darts after b around its vertex, b excluded; the walk marks
        # every dart of the vertex, so a second visit is caught at b
        if seen[b]:
            raise NotQuadrangulation("new edges do not form a tree")
        seen[b] = True
        out = []
        d = sigma[b]
        while d != b:
            seen[d] = True
            out.append(d)
            d = sigma[d]
        return out

    def enter(b, darts):
        # b anchors the tree edge at the child vertex; the children hang off
        # the anchored darts among darts, in rotation order
        return dist[b] - 1, [], iter(darts)

    # the root vertex's children follow the root's dart, all the way round
    a = m.alpha[m.root]
    stack = [enter(a, rotation(a) + [a])]
    while True:
        lab, kids, darts = stack[-1]
        for d in darts:
            if d in anchor:
                b = anchor[d]
                stack.append(enter(b, rotation(b)))
                break
        else:
            stack.pop()
            t = (lab, tuple(kids))
            if not stack:
                break
            stack[-1][1].append(t)
    check_well_labeled(t)
    if tree_edges(t) != len(faces):
        raise NotQuadrangulation("tree edge count differs from face count")
    return t


def _tree_contour(t):
    """Corners of a nested labelled tree in contour order, as (vid, lab):
    vid[i] is the vertex that contour step i leaves and lab[i] its label.
    Ids follow preorder with the root as 0; a lone root has one corner."""
    vid, lab = [], []
    stack = [(0, t[0], iter(t[1]))]
    next_id = 1
    while stack:
        v, l, kids = stack[-1]
        c = next(kids, None)
        if c is not None:
            # step down to a new child
            vid.append(v)
            lab.append(l)
            stack.append((next_id, c[0], iter(c[1])))
            next_id += 1
        else:
            stack.pop()
            if stack:
                # step back up to the parent
                vid.append(v)
                lab.append(l)
    return (vid, lab) if vid else ([0], [t[0]])


def _quad_from_contour(vid, lab, root):
    """Chord construction shared by cvs_inverse and the pointed sampler.

    Corner i sits at vertex vid[i] with label lab[i] >= 1.  Every corner
    gets a chord to the next corner around the contour whose label is one
    less; label-1 corners chord to an added origin vertex.  The chords alone
    form the quadrangulation: dart 2i leaves corner i and its partner 2i+1
    lands at the other end.  Returns the map and a dart at the origin.
    """
    n = len(lab)
    # succ[i] is the nearest later corner with label lab[i] - 1; once the
    # backward pass ends, first[l] is the first corner with label l, the
    # successor of every corner with none later
    first = [None] * (max(lab) + 1)
    succ = [None] * n
    for i in range(n - 1, -1, -1):
        l = lab[i]
        succ[i] = first[l - 1]
        first[l] = i
    # chords into a corner nest without crossing: rotating across corner j
    # we meet the chords from the nearest sources before j, then those that
    # wrap around, each nearest first, and the outgoing dart 2j last.  Each
    # chain is built by prepending to head[j], so the sources go in
    # ascending order, the wrapping ones first.
    sigma = [0] * (2 * n)
    head = list(range(0, 2 * n, 2))
    ones = []
    for i in range(n):
        if succ[i] is None:
            l = lab[i]
            if l == 1:
                ones.append(i)
                continue
            j = first[l - 1]
            if j is None:
                raise NotWellLabeled("corner with no successor")
            sigma[2 * i + 1] = head[j]
            head[j] = 2 * i + 1
    for i, j in enumerate(succ):
        if j is not None:
            sigma[2 * i + 1] = head[j]
            head[j] = 2 * i + 1
    # a vertex links the chains of its corners in contour order, cyclically
    last = [-1] * (max(vid) + 1)
    start = last[:]
    for i, v in enumerate(vid):
        p = last[v]
        if p < 0:
            start[v] = head[i]
        else:
            sigma[2 * p] = head[i]
        last[v] = i
    for p, h in zip(last, start):
        sigma[2 * p] = h
    # the origin sees the label-1 corners in reversed contour order
    d = 2 * ones[-1] + 1
    for i in ones:
        sigma[2 * i + 1] = d
        d = 2 * i + 1
    alpha = [0] * (2 * n)
    alpha[0::2] = range(1, 2 * n, 2)
    alpha[1::2] = range(0, 2 * n, 2)
    return CombinatorialMap(sigma, alpha, root=root), d


def cvs_inverse(t):
    """Well-labeled tree (root label 0) -> rooted quadrangulation, rooted
    on the origin side of the root corner's chord."""
    check_well_labeled(t)
    vid, lab = _tree_contour(t)
    m, _ = _quad_from_contour(vid, [l + 1 for l in lab], root=1)
    check_quadrangulation(m)
    return m


def pointed_quadrangulation(t, eps):
    """Free-labeled tree (root label 0, increments in {-1,0,+1}) plus a
    sign -> (rooted quadrangulation, dart at the marked vertex).

    Labels are shifted so their minimum becomes 1 before applying the chord
    rule; the marked vertex is the added origin, and the root edge is the
    root corner's chord, oriented by eps.  With the tree, the labels and
    the sign all uniform, forgetting the marked vertex leaves the uniform
    distribution on rooted quadrangulations."""
    vid, lab = _tree_contour(t)
    shift = 1 - min(lab)
    return _quad_from_contour(vid, [l + shift for l in lab],
                              root=0 if eps > 0 else 1)


def enumerate_quadrangulations(n_faces):
    """All rooted quadrangulations with n_faces faces, via the trees."""
    seen = set()
    out = []
    for t in enumerate_well_labeled(n_faces):
        m = cvs_inverse(t)
        key = canonical_form(m)
        if key in seen:
            raise NotQuadrangulation("tree collision; bijection broken")
        seen.add(key)
        out.append(m)
    return out


# ---------------------------------------------------------------------------
# uniform sampling


def _rng(seed, index):
    # counter-based stream: an independent generator per sample index
    return random.Random("mapforge:%d:%d" % (seed, index))


def _tree_steps(A, rng):
    """Contour of a uniform plane tree with A edges by the cycle lemma, as
    2A steps: +1 down to a new child, -1 back up to the parent."""
    steps = [1] * A + [-1] * (A + 1)
    # Fisher-Yates on the words Random.shuffle draws: j is uniform on
    # 0..i as getrandbits(k), k = (i+1).bit_length(), drawn again while it
    # exceeds i.  k is the same for i = 2^k - 2 down to 2^(k-1) - 1, so
    # it is set once per such block.
    getrandbits = rng.getrandbits
    top = 2 * A
    while top:
        k = (top + 1).bit_length()
        low = (1 << (k - 1)) - 1  # the least i with this k
        for i in range(top, low - 1, -1):
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            steps[i], steps[j] = steps[j], steps[i]
        top = low - 1
    # rotate to start after the first lowest point; the rotated path stays
    # >= 0 until its final down step, which is dropped
    heights = list(accumulate(steps))
    start = (heights.index(min(heights)) + 1) % len(steps)
    return (steps[start:] + steps[:start])[:-1]


def random_plane_tree(A, rng):
    """Uniform plane tree with A edges via the cycle lemma."""
    stack = [[]]
    for s in _tree_steps(A, rng):
        if s > 0:
            stack.append([])
        else:
            kids = tuple(stack.pop())
            stack[-1].append(kids)
    return tuple(stack[0])


def _labeled_tree(A, rng):
    """A uniform plane tree with A edges, root label 0 and iid uniform
    {-1,0,+1} edge increments drawn in preorder, as a nested (label, kids)
    tree; None as soon as a label goes negative."""
    getrandbits = rng.getrandbits
    stack = [(0, [])]
    for s in _tree_steps(A, rng):
        if s > 0:
            # rng.choice((-1, 0, 1)) on the same words: two bits, drawn
            # again while they read 3
            r = getrandbits(2)
            while r == 3:
                r = getrandbits(2)
            lab = stack[-1][0] + r - 1
            if lab < 0:
                return None
            stack.append((lab, []))
        else:
            lab, kids = stack.pop()
            stack[-1][1].append((lab, tuple(kids)))
    lab, kids = stack[0]
    return (lab, tuple(kids))


def sample_well_labeled_tree(A, seed, index=0):
    """Uniform well-labeled tree with A edges; returns (tree, proposals)."""
    rng = _rng(seed, index)
    tries = 0
    while True:
        tries += 1
        t = _labeled_tree(A, rng)
        if t is not None:
            return t, tries


def sample_quadrangulation(A, seed, index=0):
    """Uniform rooted quadrangulation with A faces by label rejection;
    the acceptance rate is 2/(A+2), so prefer the uniform pointed route
    for large A."""
    t, _ = sample_well_labeled_tree(A, seed, index)
    return cvs_inverse(t)


def _free_contour(A, rng):
    """A uniform plane tree with A edges and free labels, flat: returns
    (vid, vlab) with vid as in _tree_contour and vlab[v] the label of
    vertex v.  The root has label 0 and each edge an iid uniform increment
    in {-1,0,+1}, drawn in preorder, as _labeled_tree draws them."""
    path = _tree_steps(A, rng)
    getrandbits = rng.getrandbits
    vid = [0] * len(path)
    vlab = [0]
    up = []  # the ancestors of vertex v
    v = 0
    for i, s in enumerate(path):
        vid[i] = v
        if s > 0:
            up.append(v)
            # the increment as _labeled_tree draws it
            r = getrandbits(2)
            while r == 3:
                r = getrandbits(2)
            vlab.append(vlab[v] + r - 1)
            v = len(vlab) - 1
        else:
            v = up.pop()
    return (vid, vlab) if path else ([0], vlab)


def sample_quadrangulation_uniform(A, seed, index=0):
    """Uniform rooted quadrangulation with A faces, without rejection.

    Samples a uniform (plane tree, free labels, sign) triple and forgets
    the marked vertex of the pointed construction; since every rooted
    quadrangulation corresponds to exactly 2(A+2) such triples, the result
    is exactly uniform.  A < 1 raises NotQuadrangulation, as the rejection
    sampler does: the empty tree's one-edge map has no face of degree 4."""
    if A < 1:
        raise NotQuadrangulation("a quadrangulation needs at least one face")
    rng = _rng(seed, index)
    vid, vlab = _free_contour(A, rng)
    eps = rng.choice((1, -1))
    shift = 1 - min(vlab)
    m, _ = _quad_from_contour(vid, [vlab[v] + shift for v in vid],
                              root=0 if eps > 0 else 1)
    return m


def _bfs(m):
    """Breadth-first search from the root's vertex over the vertices, each
    a sigma cycle, one level at a time.  Returns (dist, sizes, deg):
    dist[d] is the distance of d's vertex (-1 where not reached), sizes[k]
    the number of vertices at distance k and deg the root vertex's
    degree."""
    sigma, alpha = m.sigma, m.alpha
    dist = [-1] * len(sigma)
    d = m.root
    deg = 0
    while dist[d] < 0:
        dist[d] = 0
        d = sigma[d]
        deg += 1
    # one dart per vertex of the current level; walking round each one
    # finds the vertices of the next
    level = [m.root]
    sizes = []
    while level:
        sizes.append(len(level))
        k = len(sizes)
        found = []
        for start in level:
            d = start
            while True:
                e = alpha[d]
                if dist[e] < 0:
                    found.append(e)
                    while dist[e] < 0:
                        dist[e] = k
                        e = sigma[e]
                d = sigma[d]
                if d == start:
                    break
        level = found
    return dist, sizes, deg


def distance_profile(m):
    """(counts of vertices per distance from the root start, degree of the
    root start vertex)."""
    _, sizes, deg = _bfs(m)
    return dict(enumerate(sizes)), deg


def acceptance_stats(A, seed, proposals):
    """Number of accepted proposals; the exact rate is 2/(A+2)."""
    rng = _rng(seed, 0)
    ok = 0
    for _ in range(proposals):
        if _labeled_tree(A, rng) is not None:
            ok += 1
    return ok


def tree_label_profile(t):
    """Vertex counts per label; label n-1 means distance n in the map."""
    out = {}
    for _, node in _preorder(t):
        out[node[0]] = out.get(node[0], 0) + 1
    return out
