"""Gaussian matrix-integral oracle: Wick pairings of star vertices.

Star diagrams are laid out as labeled darts 0..2E-1 grouped per vertex in
counterclockwise order; a Wick pairing is a fixed-point-free involution
alpha on the darts.  Faces are the cycles of sigma∘alpha and each pairing
contributes N^(F-E).  Labeled counting together with the (N g_i)^{n_i} /
(i^{n_i} n_i!) prefactors reproduces 1/|Aut| automatically, so no
isomorphism machinery appears anywhere.

gaussian_trace_average counts the pairings by face number without listing
them: contracting the edge at one dart leaves a star diagram whose count
depends only on its valences (Tutte's recursion for maps), memoised per
sorted valence tuple.  enumerate_pairings lists the (2E-1)!! pairings one
by one and serves as its independent test oracle.

Two bounds refuse work with TooLarge: listing stops at LIST_CAP half-edges
((2E-1)!! pairings), counting at COUNT_CAP.  At COUNT_CAP a cold
connected_free_energy_F of valences 1..8 to order 6 takes 0.5-0.8 s on a
2-vCPU host, and at 64 half-edges 1.6-4 s.
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial
from operator import eq

from .series_core import SymbolPoly, TruncSeries

LIST_CAP = 16
COUNT_CAP = 48


class TooLarge(ValueError):
    pass


class StructureViolation(ValueError):
    pass


class MalformedMap(ValueError):
    pass


@lru_cache(maxsize=1)
def edge_pairing(n):
    """The alpha that pairs dart 2i with dart 2i+1 on n darts (n even),
    as a tuple.  The tuple for the last n asked is kept, so the maps built
    one after another at one size share it."""
    alpha = [0] * n
    alpha[0::2] = range(1, n, 2)
    alpha[1::2] = range(0, n, 2)
    return tuple(alpha)


class CombinatorialMap:
    """Half-edge map: sigma rotates darts around vertices, alpha pairs them."""

    __slots__ = ("sigma", "alpha", "root")

    def __init__(self, sigma, alpha, root=None):
        self.sigma = sigma = tuple(sigma)
        self.alpha = alpha = tuple(alpha)
        self.root = root
        n = len(sigma)
        if len(alpha) != n:
            raise MalformedMap("sigma and alpha act on different dart sets")
        darts = range(n)
        # The shared edge_pairing tuple itself is a fixed-point-free
        # involution.  It is matched by identity: an equal tuple may hold
        # 1.0, which compares equal to 1 but cannot index a dart list.
        # Any other alpha is an involution when alpha(alpha(d)) == d for
        # every dart, which also makes it a permutation of the darts (no
        # negative or too large value passes).
        pairing = n % 2 == 0 and alpha is edge_pairing(n)
        if pairing:
            involution = True
        else:
            try:
                involution = [alpha[a] for a in alpha] == list(darts)
            except (IndexError, TypeError):
                involution = False
        # With alpha a permutation of the darts, sigma is one exactly when
        # its n values include alpha's n distinct ones: one set, of sigma's
        # values.  The set of all darts only tells the two failures apart.
        values = set(sigma)
        if not (involution and values.issuperset(alpha)):
            every = set(darts)
            if values != every or set(alpha) != every:
                raise MalformedMap("not permutations")
        if not pairing and (not involution or any(map(eq, alpha, darts))):
            raise MalformedMap("alpha is not a fixed-point-free involution")
        if root is not None and (not isinstance(root, int)
                                 or root not in darts):
            raise MalformedMap("root is not a dart")

    @property
    def n_darts(self):
        return len(self.sigma)

    def vertices(self):
        return _cycles(self.sigma)

    def faces(self):
        sigma, alpha = self.sigma, self.alpha
        return _cycles([sigma[alpha[d]] for d in range(len(sigma))])

    def components(self):
        """Connected components as lists of darts."""
        n = len(self.sigma)
        seen = [False] * n
        comps = []
        for start in range(n):
            if seen[start]:
                continue
            stack, comp = [start], []
            seen[start] = True
            while stack:
                d = stack.pop()
                comp.append(d)
                for e in (self.sigma[d], self.alpha[d]):
                    if not seen[e]:
                        seen[e] = True
                        stack.append(e)
            comps.append(comp)
        return comps


def _cycles(perm):
    n = len(perm)
    seen = [False] * n
    out = []
    for start in range(n):
        if seen[start]:
            continue
        cyc = []
        d = start
        while not seen[d]:
            seen[d] = True
            cyc.append(d)
            d = perm[d]
        out.append(cyc)
    return out


def star_sigma(profile):
    """Vertex rotation for a star layout of the given valence profile."""
    sigma = []
    base = 0
    for valence in sorted(profile):
        for _ in range(profile[valence]):
            sigma.extend(base + (i + 1) % valence for i in range(valence))
            base += valence
    return sigma


def _pairings(n):
    """All fixed-point-free involutions of range(n), as alpha lists."""
    alpha = [-1] * n

    def rec(free):
        if not free:
            yield list(alpha)
            return
        a = free[0]
        rest = free[1:]
        for idx, b in enumerate(rest):
            alpha[a], alpha[b] = b, a
            yield from rec(rest[:idx] + rest[idx + 1:])
        alpha[a] = -1

    yield from rec(list(range(n)))


def enumerate_pairings(profile):
    """Stream of CombinatorialMap over all Wick pairings of the profile.

    Lists all (2E-1)!! pairings; the independent test oracle for
    gaussian_trace_average, which counts them without listing them.
    """
    n = sum(v * m for v, m in profile.items())
    if n > LIST_CAP:
        raise TooLarge("profile has %d half-edges, cap is %d"
                       % (n, LIST_CAP))
    if n % 2:
        return
    sigma = star_sigma(profile)
    for alpha in _pairings(n):
        yield CombinatorialMap(sigma, alpha)


def faces_and_genus(m):
    """(V, E, F, genus list per connected component)."""
    verts = m.vertices()
    faces = m.faces()
    face_of = [0] * m.n_darts
    for i, f in enumerate(faces):
        for d in f:
            face_of[d] = i
    vert_of = [0] * m.n_darts
    for i, v in enumerate(verts):
        for d in v:
            vert_of[d] = i
    genera = []
    for comp in m.components():
        cv = len({vert_of[d] for d in comp})
        cf = len({face_of[d] for d in comp})
        ce = len(comp) // 2
        chi = cv - ce + cf
        if chi % 2:
            raise MalformedMap("odd Euler characteristic")
        genera.append((2 - chi) // 2)
    return len(verts), m.n_darts // 2, len(faces), genera


@lru_cache(maxsize=None)
def _face_histogram(valences):
    """{faces: number of pairings} over the Wick pairings of star vertices
    of the given valences (a sorted tuple without zeros).

    The dart a on the first vertex, of valence L, is paired first.  A
    partner p darts after a on the same vertex splits it into vertices of
    valences p and L-2-p; a partner on a vertex of valence L' (L' choices)
    merges the two into one of valence L+L'-2.  Every other face survives
    the contraction; a new valence of 0 is a face that only a and b bound.
    """
    if not valences:
        return {0: 1}
    L, rest = valences[0], valences[1:]
    out = {}

    def add(vals, closed, mult):
        key = tuple(sorted(v for v in vals if v))
        for faces, count in _face_histogram(key).items():
            out[faces + closed] = out.get(faces + closed, 0) + mult * count

    for p in range(L - 1):
        q = L - 2 - p
        add(rest + (p, q), (p == 0) + (q == 0), 1)
    for i, other in enumerate(rest):
        if i and other == rest[i - 1]:
            continue
        merged = L + other - 2
        add(rest[:i] + rest[i + 1:] + (merged,), merged == 0,
            other * rest.count(other))
    return out


def gaussian_trace_average(profile, symbols=("N",)):
    """<prod_i (Tr M^i)^{n_i}> under the Gaussian measure, exact in N, as
    a SymbolPoly over symbols (which must hold N)."""
    n = sum(v * m for v, m in profile.items())
    if n > COUNT_CAP:
        raise TooLarge("profile has %d half-edges, cap is %d"
                       % (n, COUNT_CAP))
    zero = SymbolPoly.const(symbols, 0)
    if n % 2:
        return zero
    if n == 0:
        return SymbolPoly.const(symbols, 1)
    E = n // 2
    N = SymbolPoly.sym(symbols, "N")
    valences = tuple(sorted(v for v, m in profile.items() if v
                            for _ in range(m)))
    total = zero
    for faces, mult in sorted(_face_histogram(valences).items()):
        total = total + mult * N ** (faces - E)
    return total


def catalan(p):
    return factorial(2 * p) // (factorial(p) ** 2 * (p + 1))


def vertex_profiles(valences, budget):
    """All vertex multiplicity assignments with at most budget vertices.

    Yields dicts valence -> multiplicity (zero entries omitted), the
    multiplicity of valences[0] varying slowest.
    """
    out = {}

    def rec(i, left):
        if i == len(valences):
            yield dict(out)
            return
        for c in range(left + 1):
            if c:
                out[valences[i]] = c
            yield from rec(i + 1, left - c)
            out.pop(valences[i], None)

    yield from rec(0, budget)


def partition_series_Z(weights, order):
    """Z as a series in g; coefficient of g^k sums profiles with k vertices.

    weights maps valence -> coupling value: a Fraction, or a SymbolPoly
    for marked-vertex bookkeeping, whose symbols (which must hold N) are
    then those of every coefficient; with no SymbolPoly weight they are N
    alone.  Every vertex carries one power of the counting
    variable g and the prefactor (N g_i)^{n_i} / (i^{n_i} n_i!).
    """
    valences = sorted(v for v in weights if weights[v] != 0)
    worst = order * max(valences, default=0)
    if worst > COUNT_CAP:
        raise TooLarge("order %d needs up to %d half-edges, cap is %d"
                       % (order, worst, COUNT_CAP))
    symbols = next((w.symbols for w in weights.values()
                    if isinstance(w, SymbolPoly)), ("N",))
    one = SymbolPoly.const(symbols, 1)
    N = SymbolPoly.sym(symbols, "N")
    coeffs = [SymbolPoly.const(symbols, 0) for _ in range(order + 1)]
    for profile in vertex_profiles(valences, order):
        n_darts = sum(v * m for v, m in profile.items())
        if n_darts % 2:
            continue
        g_order = sum(profile.values())
        pref = one
        for v, m in profile.items():
            pref = pref * (N * weights[v]) ** m
            pref = pref / Fraction(v ** m * factorial(m))
        avg = gaussian_trace_average(profile, symbols)
        coeffs[g_order] = coeffs[g_order] + pref * avg
    return TruncSeries("g", coeffs)


def connected_free_energy_F(weights, order):
    """F = log Z; the N-degree of each nonzero coefficient is exactly 2."""
    f = partition_series_Z(weights, order).log()
    for k in range(1, order + 1):
        c = f.coeffs[k]
        if isinstance(c, SymbolPoly) and c:
            if max(c.exponents_of("N")) != 2:
                raise MalformedMap("connected coefficient with N-degree != 2")
    return f


def genus_split(f_coeff):
    """Split a Laurent-in-N coefficient into {genus h: coefficient of
    N^(2-2h)}; any other N-exponent (odd, or above 2) is refused."""
    out = {}
    for e in f_coeff.exponents_of("N"):
        if e > 2 or e % 2:
            raise StructureViolation("N-exponent %d is not 2 - 2h for a "
                                     "genus h >= 0" % e)
        out[(2 - e) // 2] = f_coeff.coeff(N=e)
    return out
