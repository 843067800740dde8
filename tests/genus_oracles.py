"""Independent all-genus oracle for the free energy of cubic maps.

``cubic_map_counts`` runs the Goulden-Jackson recursion for rooted cubic
maps (Goulden-Jackson, *The KP hierarchy, branched covers, and
triangulations*, Adv. Math. 219, 2008), in the rearranged form below, on
Python ints alone: it shares no code with the orthogonal-polynomial route
behind ``mapforge.ortho_genus.exact_free_energy_FN``, so it checks that
route at every genus and at orders the Wick pairings cannot reach.

T(n, h) counts rooted genus-h cubic maps with 2n vertices (dual to rooted
triangulations with 2n faces), and 6n [g^{2n} N^{2-2h}] F_N = T(n, h) for
the potential {3: 1}.  For n >= 1,

    (n+1) T(n,h) = 4(3n-1) T(n-1,h) + 4n(3n-2)(3n-4) T(n-2,h-1)
                   + 4 sum_{i+j=n-2; i,j>=0} sum_{a+b=h}
                       (3i+2)(3j+2) T(i,a) T(j,b),

with T(0,0) = 1, T(0,h>=1) = 0, and T(-1,0) = -1/2, which enters only at
n = h = 1 (where it gives T(1,1) = 1); every other value is 0, and every
division is exact.
"""


def cubic_map_counts(n_max, h_max):
    """T as a list of rows: T[n][h] for 0 <= n <= n_max, 0 <= h <= h_max."""
    T = [[1] + [0] * h_max]

    def t(n, h):
        return T[n][h] if n >= 0 and 0 <= h <= h_max else 0

    for n in range(1, n_max + 1):
        row = []
        for h in range(h_max + 1):
            total = 4 * (3 * n - 1) * t(n - 1, h)
            if n >= 2:
                total += 4 * n * (3 * n - 2) * (3 * n - 4) * t(n - 2, h - 1)
            elif h == 1:
                # 4 * 1 * 1 * (-1) * T(-1, 0), with T(-1, 0) = -1/2
                total += 2
            for i in range(n - 1):
                j = n - 2 - i
                for a in range(h + 1):
                    total += (4 * (3 * i + 2) * (3 * j + 2)
                              * t(i, a) * t(j, h - a))
            q, r = divmod(total, n + 1)
            assert r == 0, "inexact division at T(%d, %d)" % (n, h)
            row.append(q)
        T.append(row)
    return T
