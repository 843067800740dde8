"""Independent oracles for the map tests.

The breadth-first search here runs over ``m.vertices()`` through a
dart -> vertex dict, a route separate from the dart-wise search behind
``mapforge.bijections.distance_profile`` and ``check_quadrangulation``, so
the exact distance statistics are checked against code that shares none of
the library's BFS.

``map_check_message`` validates a (sigma, alpha, root) triple the plain way,
with full dart sets and no shared edge pairing; ``CombinatorialMap`` must
accept and refuse exactly as it does.
"""

from fractions import Fraction as F
from operator import eq

from mapforge.bijections import enumerate_quadrangulations


def vertex_bfs(m):
    """(verts, vertex_of, dist): the vertices of m, the dart -> vertex index
    dict, and each vertex's distance from the root's vertex (None where not
    reached)."""
    verts = m.vertices()
    vertex_of = {d: i for i, v in enumerate(verts) for d in v}
    origin = vertex_of[m.root]
    dist = [None] * len(verts)
    dist[origin] = 0
    queue = [origin]
    for v in queue:
        for d in verts[v]:
            w = vertex_of[m.alpha[d]]
            if dist[w] is None:
                dist[w] = dist[v] + 1
                queue.append(w)
    return verts, vertex_of, dist


def origin_average(A, stat):
    """Exact average of stat(map, dist, vertex_of) over area-A
    quadrangulations with a uniform origin vertex: root-start origin,
    weights 1/deg."""
    num = F(0)
    den = F(0)
    for m in enumerate_quadrangulations(A):
        verts, vertex_of, dist = vertex_bfs(m)
        w = F(1, len(verts[vertex_of[m.root]]))
        num += w * stat(m, dist, vertex_of)
        den += w
    return num / den


def map_check_message(sigma, alpha, root=None):
    """The MalformedMap message CombinatorialMap(sigma, alpha, root) must
    raise, or None where it must accept the map.  The checks run in the
    library's order: dart-set sizes, permutations, the involution, root."""
    sigma, alpha = tuple(sigma), tuple(alpha)
    n = len(sigma)
    if len(alpha) != n:
        return "sigma and alpha act on different dart sets"
    darts = range(n)
    try:
        involution = [alpha[a] for a in alpha] == list(darts)
    except (IndexError, TypeError):
        involution = False
    if not involution or set(sigma) != set(alpha):
        every = set(darts)
        if set(sigma) != every or set(alpha) != every:
            return "not permutations"
    if not involution or any(map(eq, alpha, darts)):
        return "alpha is not a fixed-point-free involution"
    if root is not None and (not isinstance(root, int) or root not in darts):
        return "root is not a dart"
    return None
