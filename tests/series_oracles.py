"""An independent oracle for ``series_core.fixed_point_solve``.

mapforge solves X = equation(X) online: the equation runs once on lazy
unknowns, and round k computes each node's coefficient k once.  The pass
loop here shares none of that machinery.  It re-applies the whole equation
to ordinary ``TruncSeries`` at truncation order k, for k = 0..order, so
pass k fixes coefficient k; the unknowns read coefficient k as the seed at
k = 0 and as the padding 0 of ``truncate(k)`` after it.  That costs
sum_k cost(k) (O(n^3) for schoolbook products), so it serves only as the
reference the online route must reproduce, in value and in the Python type
of every coefficient.
"""

from mapforge.series_core import NotContracting, TruncSeries


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
