"""Independent oracles for the pure-quartic R_n.

mapforge reads every pure-quartic coefficient [g^k] R_n by Lagrange
inversion of the closed form (``geodesic._quartic_area_terms``).  The two
routes here share none of that code, and each is an independent oracle for
it:

- ``quartic_table_oracle`` solves the integer recursion
  R_n = 1 + g R_n (R_{n+1} + R_n + R_{n-1}) with R_{-1} = 0, row by row;
- ``closed_form_Rn`` expands the closed form
  R (1-x^{n+1})(1-x^{n+4}) / ((1-x^{n+2})(1-x^{n+3})) as a truncated
  series, with R the unit one-cut solution and x the characteristic root
  ``char_root_series``.
"""

from fractions import Fraction as F

from mapforge.planar_onecut import unit_quartic_solution
from mapforge.series_core import TruncSeries, fixed_point_solve


def quartic_table_oracle(n_max, A):
    """{n: [[g^k] R_n for k = 0..A]} for n = 0..n_max, as Fractions.

    The coefficients are integers, and [g^k] R_n reads only rows n-1..n+1
    below order k, so at order k only rows n <= n_max + A - k can reach
    the answer."""
    top = n_max + A
    rows = [[1] for _ in range(top + 1)]
    for k in range(1, A + 1):
        for n in range(top - k + 1):
            row = rows[n]
            down = rows[n - 1] if n else [0] * k
            s = [u + r + d for u, r, d in zip(rows[n + 1], row, down)]
            row.append(sum(a * b for a, b in zip(row, reversed(s))))
    return {n: [F(c) for c in rows[n]] for n in range(n_max + 1)}


def char_root_series(order):
    """x = O(g) solving x + 1/x + 4 = 1/(gR), i.e. x = gR(1 + 4x + x^2)."""
    R = unit_quartic_solution(order).R
    g = TruncSeries.gen("g", order)

    def eq(x):
        return g * R * (1 + 4 * x + x * x)

    return fixed_point_solve(eq, 0, order)


def closed_form_Rn(n, order):
    """The series of R_n through order, from the closed form in x."""
    R = unit_quartic_solution(order).R
    x = char_root_series(order)
    one = TruncSeries.const("g", 1, order)
    num = (one - x ** (n + 1)) * (one - x ** (n + 4))
    den = (one - x ** (n + 2)) * (one - x ** (n + 3))
    return R * num / den
