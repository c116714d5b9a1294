"""Root finding for strictly decreasing scalar functions.

One solver serves both the single-code mean-length inversion and the
two-code equilibrium split: both reduce to solving f(x) = target for a
smooth, strictly decreasing f whose limits bracket the target.
"""

from __future__ import annotations

import math
from typing import Callable

__all__ = ["solve_decreasing"]

# Every solve starts from this bracket and doubles each end outward.
_START_LO, _START_HI = -1.0, 1.0
# Hard ceiling on bracket expansion; any feasible target is bracketed long
# before this because f approaches its limits exponentially fast.
_MAX_EXPAND = 2000
# Step ceiling once bracketed; halving alone collapses a float64 bracket sooner.
_MAX_ITER = 200


def solve_decreasing(
    f: Callable[[float], float],
    target: float,
    df: Callable[[float], float],
    f_tol: float = 1e-12,
) -> float:
    """Solve f(x) = target for strictly decreasing f with derivative df.

    Starts from the bracket [-1, 1] and doubles its ends outward until it
    straddles the target.  Then iterates Newton steps safeguarded by
    bisection: a step is rejected in favour of the midpoint whenever it
    would leave the bracket or fail to shrink faster than halving, so
    progress is at worst geometric.  Iteration continues until the bracket
    collapses to machine precision, making the returned point as sharp as
    float64 allows; f_tol is the guaranteed bound on the residual
    |f(x) - target|, checked at the end.
    """
    lo, hi = _START_LO, _START_HI
    flo = f(lo)
    fhi = f(hi)
    # Grow the end that misses until f(lo) >= target >= f(hi).  f decreases,
    # so at most one end misses, and its old point, the new other end, holds.
    for _ in range(_MAX_EXPAND):
        if not flo >= target:
            hi, fhi, lo = lo, flo, 2.0 * lo
            flo = f(lo)
        elif not fhi <= target:
            lo, flo, hi = hi, fhi, 2.0 * hi
            fhi = f(hi)
        else:
            break
    else:
        side = "left" if not flo >= target else "right"
        raise ValueError(f"could not bracket target {target} from the {side}")

    best_x, best_gap = lo, abs(flo - target)
    if abs(fhi - target) < best_gap:
        best_x, best_gap = hi, abs(fhi - target)

    x = 0.5 * (lo + hi)
    step_prev = hi - lo
    step = step_prev
    for _ in range(_MAX_ITER):
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"function returned nan at {x}")
        gap = abs(fx - target)
        if gap < best_gap:
            best_x, best_gap = x, gap
        if gap == 0.0:
            return x
        if fx > target:
            lo = x
        else:
            hi = x
        width = hi - lo
        if width <= 4.0 * math.ulp(max(abs(lo), abs(hi), 1.0)):
            break
        x_next = lo + 0.5 * width
        d = df(x)
        if d != 0.0 and math.isfinite(d):
            candidate = x - (fx - target) / d
            # Accept only if inside the bracket and at least as fast as
            # bisection relative to the step before last (rtsafe rule).
            if lo < candidate < hi and 2.0 * gap <= abs(step_prev * d):
                x_next = candidate
        step_prev = step
        step = x_next - x
        x = x_next

    if best_gap > f_tol:
        raise ValueError(
            f"no convergence: best residual {best_gap:.3e} exceeds {f_tol:.3e}"
        )
    return best_x
