"""Independent vertex-BFS oracle for the map tests.

The breadth-first search here runs over ``m.vertices()`` through a
dart -> vertex dict, a route separate from the dart-wise search behind
``mapforge.bijections.distance_profile`` and ``check_quadrangulation``, so
the exact distance statistics are checked against code that shares none of
the library's BFS.
"""

from fractions import Fraction as F

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
