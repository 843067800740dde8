"""Independent oracles for ``series_core`` arithmetic and its solver.

Every series operation of mapforge is one node class: ``TruncSeries``
arithmetic builds the node and reads it out at once, and
``fixed_point_solve`` runs the equation once on lazy unknowns and reads
its DAG of nodes one degree per round.  Two oracles check the two halves.

``convolution``, ``quotient`` and ``power`` compute products, quotients
and integer powers on plain coefficient lists by the textbook sums, with
no zero skips, so they check the node formulas' values (not the Python
type of a zero, which the skips decide).

The pass loop shares the coefficient formulas, since it runs ``TruncSeries``
arithmetic, but not the online schedule.  It re-applies the whole equation
to ordinary series at truncation order k, for k = 0..order, so pass k
fixes coefficient k; the unknowns read coefficient k as the seed at k = 0
and as the padding 0 of ``truncate(k)`` after it.  That costs
sum_k cost(k) (O(n^3) for schoolbook products), so it serves only as the
reference the online route must reproduce, in value and in the Python type
of every coefficient.
"""

from fractions import Fraction

from mapforge.series_core import NotContracting, SymbolPoly, TruncSeries


def pass_loop_solve(equation, seed, order, var="g"):
    """fixed_point_solve by one full pass of the equation per degree."""
    system = isinstance(seed, tuple)

    def apply(xs, k):
        out = equation(xs) if system else (equation(xs[0]),)
        return tuple((y if isinstance(y, TruncSeries)
                      else TruncSeries.const(var, y, k)).truncate(k)
                     for y in out)

    xs = tuple(TruncSeries.const(var, s, 0) for s in
               (seed if system else (seed,)))
    for k in range(order + 1):
        xs = apply(tuple(x.truncate(k) for x in xs), k)
    if apply(xs, order) != xs:
        raise NotContracting("fixed point iteration did not stabilize")
    return xs if system else xs[0]


def convolution(a, b):
    """Coefficients of a*b to the shorter length: c_k = sum_i a_i b_{k-i}."""
    n = min(len(a), len(b))
    return [sum((a[i] * b[k - i] for i in range(k + 1)), Fraction(0))
            for k in range(n)]


def quotient(a, b):
    """Coefficients of a/b to the shorter length, b_0 a unit:
    q_k = (a_k - sum_{j<k} q_j b_{k-j}) / b_0."""
    inv = b[0].inverse() if isinstance(b[0], SymbolPoly) else 1 / b[0]
    q = []
    for k in range(min(len(a), len(b))):
        q.append((a[k] - sum((q[j] * b[k - j] for j in range(k)),
                             Fraction(0))) * inv)
    return q


def power(a, k):
    """Coefficients of a**k: k products from 1, or from 1/a when k < 0."""
    one = [Fraction(1)] + [Fraction(0)] * (len(a) - 1)
    base = quotient(one, a) if k < 0 else a
    out = one
    for _ in range(abs(k)):
        out = convolution(out, base)
    return out
