"""Independent oracles: a 50-digit root of the optimality condition, the limit
table, and an LP optimum from scipy's HiGHS.

mpmath and scipy are imported on first use, after the timed loop, so neither
counts in a workload's set-up time or peak resident set.
"""

from __future__ import annotations

import math
from fractions import Fraction

EPS = 2.0 ** -52
DIGITS = 50


def _mp():
    import mpmath
    mpmath.mp.dps = DIGITS
    return mpmath


def condition_root(r, c, nu, t, rho, n):
    """Root y* of R = gamma*Phi(y) + (1 - gamma)*Phi(L_n*y) and f'(y*), from the doubles.

    R, gamma and L_n are formed in 50-digit arithmetic from the exact double
    inputs. The root is polished by safeguarded Newton inside the bracket
    [Phi^-1(R)/L, Phi^-1(R)] (L >= 1 for every valid rho), then certified by a
    sign change of f across y* -+ 1e-30, so it cannot inherit an error of the
    program under test. Returns (R, y*, f'(y*)) as mpf.
    """
    mp = _mp()
    r, c, nu, t, rho = (mp.mpf(v) for v in (r, c, nu, t, rho))
    R = (r - c) / (r - nu)
    gamma = t / (r - nu)
    L = mp.sqrt(mp.mpf(n) / (1 + (n - 1) * rho)) if rho != 1 else mp.mpf(1)

    def f(y):
        return gamma * mp.ncdf(y) + (1 - gamma) * mp.ncdf(L * y) - R

    def fprime(y):
        return gamma * mp.npdf(y) + (1 - gamma) * L * mp.npdf(L * y)

    a = mp.sqrt(2) * mp.erfinv(2 * R - 1)
    if a == 0:
        return R, mp.mpf(0), fprime(mp.mpf(0))
    lo, hi = sorted((a / L, a))
    tiny = mp.mpf(10) ** -30
    lo -= tiny * max(1, abs(lo))
    hi += tiny * max(1, abs(hi))
    if not f(lo) < 0 < f(hi):
        raise ArithmeticError(f"no sign change on [{lo}, {hi}]")
    y = a / 2 + a / (2 * L)
    converged = mp.mpf(10) ** (8 - DIGITS)
    for _ in range(200):
        fy = f(y)
        if fy == 0:
            break
        if fy < 0:
            lo = y
        else:
            hi = y
        step = fy / fprime(y)
        if abs(step) <= converged * max(1, abs(y)):
            y -= step
            break
        candidate = y - step
        y = candidate if lo < candidate < hi else (lo + hi) / 2
        if hi - lo <= converged * max(1, abs(y)):
            break
    delta = tiny * max(1, abs(y))
    if not f(y - delta) <= 0 <= f(y + delta):
        raise ArithmeticError(f"root {y} failed its bracket check")
    return R, y, fprime(y)


def root_tolerance(R, slope) -> float:
    """Allowed |y - y*| for a root solved in double precision from a double R.

    16 ulps of R moved through the slope of the condition, plus the 1e-13
    bisection width of the solver's contract. In the upper tail R rounds with
    an absolute, not relative, error, so this band is wide there; the loss it
    admits is what ``analytic_solver.tail_rel_err_max`` measures.
    """
    return 1e-13 + 16.0 * EPS * float(R) / float(slope)


def grid_tolerance(spacing, sigma, n, r, nu, slope, profit) -> float:
    """Allowed |x_grid - x*| for the grid oracle.

    One spacing, as in acceptance criterion 6, plus the half-width of the top
    of the profit curve over which J_n falls by less than 16 ulps of J_n.
    There the doubles, not the curve, rank the grid points. With
    |d2J/dy2| = n sigma (r - nu) f'(y*), that width is negligible for body
    markets and several spacings when R is within 1e-8 of 1.
    """
    curvature = n * sigma * (r - nu) * float(slope)
    return spacing + sigma * math.sqrt(32.0 * EPS * abs(profit) / curvature)


def normal_quantile(p):
    """50-digit Phi^-1(p) of a double p."""
    mp = _mp()
    return mp.sqrt(2) * mp.erfinv(2 * mp.mpf(p) - 1)


def limit_table(r, c, nu, t):
    """Expected (game, regime, Phi(Y_inf)) for rho = 0, from the paper's four-regime table."""
    g, g_tilde = Fraction(r) - Fraction(c), Fraction(c) - Fraction(nu)
    half_t = Fraction(t) / 2
    if g == g_tilde:
        return "mean", "below-cut", Fraction(1, 2)
    if g > g_tilde:
        if half_t < g_tilde:
            return "over-mean", "below-cut", Fraction(1, 2)
        return "over-mean", "at-or-above-cut", 1 - g_tilde / Fraction(t)
    if half_t < g:
        return "under-mean", "below-cut", Fraction(1, 2)
    return "under-mean", "at-or-above-cut", g / Fraction(t)


def lp_optimum(surplus, shortage, profit) -> float:
    """max sum p_ij W_ij s.t. row sums <= H, column sums <= E, W >= 0, by HiGHS."""
    import numpy as np
    from scipy.optimize import linprog

    n = len(surplus)
    p = np.asarray(profit, dtype=float)
    rows = np.zeros((n, n * n))
    cols = np.zeros((n, n * n))
    for i in range(n):
        rows[i, i * n:(i + 1) * n] = 1.0
        cols[i, i::n] = 1.0
    result = linprog(-p.ravel(), A_ub=np.vstack([rows, cols]),
                     b_ub=np.concatenate([surplus, shortage]),
                     bounds=(0, None), method="highs")
    if result.status != 0:
        raise ArithmeticError(f"linprog failed: {result.message}")
    return -float(result.fun)


def plan_violation(routes, surplus, shortage) -> str:
    """'' when the nonzero shipments (i, j, w) are positive, ship at most H_i out
    of each i and at most E_j into each j, in exact arithmetic; else the reason."""
    sent = [Fraction(0)] * len(surplus)
    received = [Fraction(0)] * len(shortage)
    for i, j, w in routes:
        if not (math.isfinite(w) and w > 0.0):
            return f"shipment {w!r} from agent {i + 1} to {j + 1}"
        sent[i] += Fraction(w)
        received[j] += Fraction(w)
    for i, (out, h) in enumerate(zip(sent, surplus)):
        if out > Fraction(h):
            return f"agent {i + 1} ships more than its surplus"
    for j, (got, e) in enumerate(zip(received, shortage)):
        if got > Fraction(e):
            return f"agent {j + 1} receives more than its shortage"
    return ""
