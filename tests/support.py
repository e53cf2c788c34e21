"""Shared helpers for the test suite: random valid parameter sets and oracles."""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import numpy as np

from transship.game_model import MarketParams


def random_market_params(rng: np.random.Generator, rho=None,
                         rho_range=(0.0, 0.9)) -> MarketParams:
    """Draw a valid parameter set with comfortable margins on every inequality.

    The critical fractile lands in [0.1, 0.9] but never within 1e-6 of 1/2,
    so game types are unambiguous and optimal quantities stay well inside a
    6-sigma grid. sigma/mu <= 0.25 keeps every draw CV-feasible.
    """
    r = rng.uniform(5.0, 50.0)
    nu = r * rng.uniform(0.05, 0.5)
    while True:
        fractile = rng.uniform(0.1, 0.9)
        if abs(fractile - 0.5) > 1e-6:
            break
    c = r - fractile * (r - nu)  # (r - c)/(r - nu) = fractile
    t = (r - nu) * rng.uniform(0.0, 0.95)
    mu = rng.uniform(50.0, 200.0)
    sigma = mu * rng.uniform(0.05, 0.25)
    if rho is None:
        rho = rng.uniform(*rho_range)
    return MarketParams(r=r, c=c, nu=nu, t=t, mu=mu, sigma=sigma, rho=rho)


def edge_markets(rng: np.random.Generator, n_max: int) -> list[MarketParams]:
    """Random markets plus the edges of the per-size solve up to size n_max.

    The edges are rho = 1 (L_n = 1), rho just above -1/(n_max - 1) (L_n huge),
    t = 0 (the root is exactly Phi^-1(R)/L_n) and the deep tails R = 1e-10 and
    R = 1 - 1e-10.
    """
    markets = [random_market_params(rng, rho_range=(-0.5 / (n_max - 1), 1.0))
               for _ in range(3)]
    base = random_market_params(rng)
    markets += [replace(base, rho=1.0), replace(base, rho=-1.0 / (n_max - 1) + 1e-9),
                replace(base, t=0.0)]
    r, nu = 10.0, 2.0
    for fractile in (1e-10, 1.0 - 1e-10):
        markets.append(MarketParams(r=r, c=r - fractile * (r - nu), nu=nu, t=1.0,
                                    mu=100.0, sigma=20.0, rho=0.2))
    return markets


def random_surplus_shortage(rng: np.random.Generator, n: int, integer=False,
                            max_units=3.0):
    """Per-agent surplus/shortage with the mutual-exclusivity invariant."""
    surplus, shortage = [], []
    for _ in range(n):
        amount = (float(rng.integers(0, int(max_units) + 1)) if integer
                  else float(rng.uniform(0.0, max_units)))
        if rng.random() < 0.5:
            surplus.append(amount)
            shortage.append(0.0)
        else:
            surplus.append(0.0)
            shortage.append(amount)
    return tuple(surplus), tuple(shortage)


def enumerate_best_plan(surplus, shortage, profit) -> float:
    """Exhaustive search over integral feasible plans; returns the best objective.

    Only valid for small integer instances. Objective accumulated in exact
    rational arithmetic and rounded to float once, matching the solver's
    output convention bit for bit.
    """
    senders = [i for i, h in enumerate(surplus) if h > 0]
    receivers = [j for j, e in enumerate(shortage) if e > 0]
    cells = [(i, j) for i in senders for j in receivers]
    rem_h = {i: int(surplus[i]) for i in senders}
    rem_e = {j: int(shortage[j]) for j in receivers}
    best = Fraction(0)

    def recurse(k: int, acc: Fraction) -> None:
        nonlocal best
        if k == len(cells):
            if acc > best:
                best = acc
            return
        i, j = cells[k]
        limit = min(rem_h[i], rem_e[j])
        for w in range(limit + 1):
            rem_h[i] -= w
            rem_e[j] -= w
            recurse(k + 1, acc + Fraction(profit[i][j]) * w)
            rem_h[i] += w
            rem_e[j] += w

    recurse(0, Fraction(0))
    return float(best)


def lp_best_plan(surplus, shortage, profit) -> float:
    """max sum p_ij W_ij s.t. row sums <= H, column sums <= E, W >= 0, by
    HiGHS in floats: an oracle independent of the exact solver."""
    from scipy.optimize import linprog

    n = len(surplus)
    rows = np.zeros((n, n * n))
    cols = np.zeros((n, n * n))
    for i in range(n):
        rows[i, i * n:(i + 1) * n] = 1.0
        cols[i, i::n] = 1.0
    result = linprog(-np.asarray(profit, dtype=float).ravel(),
                     A_ub=np.vstack([rows, cols]),
                     b_ub=np.concatenate([surplus, shortage]),
                     bounds=(0, None), method="highs")
    assert result.status == 0, result.message
    return -float(result.fun)
