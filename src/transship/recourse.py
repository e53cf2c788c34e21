"""Second-stage transshipment recourse: the exact transportation solver.

After demands realize, surpluses H can be shipped toward shortages E; route
(i, j) earns the marginal profit p_ij per unit and shipping is optional.
Only routes from a surplus row S (H_i > 0) to a shortage column T (E_j > 0)
can carry flow, so the solver keeps one state over S x T: the exact flow on
each arc that shipped, and one exact remainder per agent, H_i for i in S and
E_j for j in T. No agent has both a surplus and a shortage, so S and T are
disjoint and every per-agent map is keyed by agent alone. Two builders fill
the state, and each prices what it ships.

For general agents this is a transportation problem solved by successive
most-profitable augmenting paths. A path is the list of agents it visits,
surplus and shortage agents in turn, and the objective is a running sum:
each path adds its exact profit times the units it carries.

Identical agents are visible in the input: the profit is one value v on
every route from S to T. There the solver skips the path search and builds
the northwest-corner plan of the transportation problem (Dantzig, 1963),
the first surplus agent shipping to the first shortage agent until one side
is used up; its objective is v times the units shipped, which is
p * min(sum(H), sum(E)). That is the plan the path search would build, step
for step (see `solve_transshipment_plan`), so both give the same bits.
`symmetric_recourse_value` forms p * min(sum(H), sum(E)) from the totals on
its own, so it stays an independent check of the northwest plan.

Every result is exact until it is rounded once at the end. Float inputs
are dyadic rationals, so each surplus and shortage is held as a Python int
at one scale, the least common multiple of their denominators, which for
floats is the largest of them, a power of two. Remainders and flows are
those ints, so sums, minima and differences stay exact; the path search
keeps profits and distances as `fractions.Fraction`s. The symmetric
shortcut and the general solver therefore agree bit-for-bit on uniform
profit matrices. Each shipment is its exact flow rounded to the nearest
float on its own, so a row or column total of the float plan can exceed
H_i or E_j in exact arithmetic, by at most n/2 units in the last place of
the bound; the exact flows never do.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "GeneralAgentParams",
    "SurplusShortage",
    "TransshipmentPlan",
    "validate_general_params",
    "solve_transshipment_plan",
    "symmetric_recourse_value",
]


@dataclass(frozen=True)
class GeneralAgentParams:
    """Per-agent economics for heterogeneous agents.

    r, c, nu are per-agent prices/costs/salvage values; t is the n x n
    transport cost matrix with t[i][i] = 0. The marginal transshipment profit
    from i to j is p_ij = r_j - nu_i - t_ij.
    """

    r: tuple[float, ...]
    c: tuple[float, ...]
    nu: tuple[float, ...]
    t: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        n = len(self.r)
        if not (len(self.c) == len(self.nu) == n):
            raise ValueError("r, c, nu must have equal lengths")
        if len(self.t) != n or any(len(row) != n for row in self.t):
            raise ValueError(f"t must be an {n} x {n} matrix")

    @property
    def n(self) -> int:
        return len(self.r)

    def profit_matrix(self) -> list[list[float]]:
        return [
            [self.r[j] - self.nu[i] - self.t[i][j] for j in range(self.n)]
            for i in range(self.n)
        ]


def validate_general_params(params: GeneralAgentParams) -> list[str]:
    """Return every violated model inequality (1-based agent indices); empty if ok."""
    violations: list[str] = []
    n = params.n
    for i in range(n):
        if not params.nu[i] < params.c[i]:
            violations.append(f"nu < c violated at agent {i + 1}")
        if not params.c[i] < params.r[i]:
            violations.append(f"c < r violated at agent {i + 1}")
        if params.t[i][i] != 0.0:
            violations.append(f"t_ii = 0 violated at agent {i + 1}")
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if not params.c[i] < params.c[j] + params.t[j][i]:
                violations.append(f"c_i < c_j + t_ji violated at (i, j) = ({i + 1}, {j + 1})")
            if not params.nu[i] < params.nu[j] + params.t[j][i]:
                violations.append(f"nu_i < nu_j + t_ji violated at (i, j) = ({i + 1}, {j + 1})")
            if not params.r[i] < params.r[j] + params.t[j][i]:
                violations.append(f"r_i < r_j + t_ji violated at (i, j) = ({i + 1}, {j + 1})")
            if not params.t[i][j] < params.r[j] - params.nu[i]:
                violations.append(f"t_ij < r_j - nu_i violated at (i, j) = ({i + 1}, {j + 1})")
    return violations


@dataclass(frozen=True)
class SurplusShortage:
    """Realized per-agent surplus H and unmet demand E (mutually exclusive)."""

    surplus: tuple[float, ...]
    shortage: tuple[float, ...]

    def __post_init__(self):
        if len(self.surplus) != len(self.shortage):
            raise ValueError("surplus and shortage must have equal lengths")
        for i, (h, e) in enumerate(zip(self.surplus, self.shortage)):
            if not (math.isfinite(h) and math.isfinite(e)):
                raise ValueError(f"non-finite surplus/shortage at agent {i + 1}")
            if h < 0.0 or e < 0.0:
                raise ValueError(f"negative surplus/shortage at agent {i + 1}")
            if h > 0.0 and e > 0.0:
                raise ValueError(f"agent {i + 1} has both surplus and shortage")

    @classmethod
    def from_quantities(cls, quantities: Sequence[float], demands: Sequence[float]) -> "SurplusShortage":
        if len(quantities) != len(demands):
            raise ValueError("quantities and demands must have equal lengths")
        return cls(
            surplus=tuple(max(x - d, 0.0) for x, d in zip(quantities, demands)),
            shortage=tuple(max(d - x, 0.0) for x, d in zip(quantities, demands)),
        )


@dataclass(frozen=True)
class TransshipmentPlan:
    """An optimal shipping plan: W[i][j] units from i to j, and its profit.

    The solver's flows are exact, Python ints at one scale. Each W[i][j] is
    its flow rounded to the nearest float, and objective is the exact profit
    rounded once. A row total sum_j W[i][j] (or column total) can therefore
    exceed H_i (or E_j) in exact arithmetic, by up to n/2 ulp of that bound.
    augmentations counts the paths the solver shipped along, one per step
    of the northwest-corner plan for identical agents.
    """

    shipments: tuple[tuple[float, ...], ...]
    objective: float
    augmentations: int


def _rounded(objective: Fraction) -> float:
    """The exact objective rounded once; past the float range, a ValueError."""
    try:
        return float(objective)
    except OverflowError:
        raise ValueError("recourse objective exceeds the float range "
                         f"(> {sys.float_info.max!r})") from None


def symmetric_recourse_value(ss: SurplusShortage, p: float) -> float:
    """Recourse profit of identical agents, p * min(sum(H), sum(E)), finite p > 0."""
    if not 0.0 < p < math.inf:
        raise ValueError(f"marginal transshipment profit p must be positive and finite, got {p}")
    total_h = sum(Fraction(h) for h in ss.surplus)
    total_e = sum(Fraction(e) for e in ss.shortage)
    return _rounded(Fraction(p) * min(total_h, total_e))


def solve_transshipment_plan(ss: SurplusShortage, profit: Sequence[Sequence[float]]) -> TransshipmentPlan:
    """Maximize sum(p_ij * W_ij) s.t. row sums <= H, column sums <= E, W >= 0.

    Only routes from a surplus row S (H_i > 0) to a shortage column T
    (E_j > 0) can carry flow, so the plan is built over S x T alone: one
    map rem of remainders, H_i for i in S and E_j for j in T, keyed by
    agent since S and T are disjoint, and a sparse dict of flows. Both hold
    exact Python ints at one scale: each amount is converted once, with
    `as_integer_ratio`, and multiplied by the least common multiple of the
    denominators (for floats the largest, a power of two). One builder
    fills them and returns the scaled exact profit of what it shipped and
    its step count; the plan is assembled here once, where the scale is
    undone: each shipment is w / scale, which int division rounds
    correctly, and the objective is rounded once.
    When the profit is one value v on all of S x T (equal by ==, so 0.0 and
    -0.0 are one value), the builder is the northwest-corner rule
    (`_northwest_flows`, the one reader of v); otherwise successive
    most-profitable augmenting paths (`_augmenting_path_flows`). Both give
    the same plan, bit for bit, on a constant block:
    - Every alternating path on the block has gain v, so with v <= 0 no
      path is strictly profitable and the plan is empty.
    - Bellman-Ford visits arcs in (i, j) order, so the first row with
      spare surplus sets dist[j] = -v for every column; later rows tie
      and are never strictly less.
    - A back arc brings a used-up row to distance -v + v = 0, the origins'
      own distance, so it changes no predecessor.
    - The path ends at the first column with spare shortage.
    So each round ships min(rem[i], rem[j]) on one arc, (first spare row,
    first spare column): one northwest step, at most |S| + |T| - 1 of
    them. The objective is v * min(sum(H), sum(E)) either way.
    """
    n = len(ss.surplus)
    if len(profit) != n or any(len(row) != n for row in profit):
        raise ValueError(f"profit matrix must be {n} x {n}")
    if not all(all(map(math.isfinite, row)) for row in profit):
        raise ValueError("profit matrix entries must be finite")

    rows = [i for i in range(n) if ss.surplus[i] > 0.0]
    cols = [j for j in range(n) if ss.shortage[j] > 0.0]
    amounts = {i: ss.surplus[i] for i in rows}
    amounts.update((j, ss.shortage[j]) for j in cols)
    ratios = [(k, (x if isinstance(x, float) else Fraction(x)).as_integer_ratio())
              for k, x in amounts.items()]
    # A float's denominator is a power of two, so for floats the least common
    # multiple is the largest denominator; any other number is made exact first.
    scale = math.lcm(*(d for _, (_, d) in ratios))
    rem = {k: m * (scale // d) for k, (m, d) in ratios}
    flow: dict[tuple[int, int], int] = {}
    # One value on the block, by ==, so 0.0 and -0.0 are one; an empty block
    # holds none and ships nothing.
    constant = len({profit[i][j] for i in rows for j in cols}) < 2
    build = _northwest_flows if constant else _augmenting_path_flows
    objective, steps = build(rows, cols, profit, rem, flow)

    shipments = [[0.0] * n for _ in range(n)]
    for (i, j), w in flow.items():
        shipments[i][j] = w / scale  # int division rounds correctly
    return TransshipmentPlan(shipments=tuple(map(tuple, shipments)),
                             objective=_rounded(objective / scale), augmentations=steps)


def _northwest_flows(rows, cols, profit, rem, flow):
    """The flows on a profit block constant at v over rows x cols.

    While v > 0, each step ships min(rem[i], rem[j]) exactly from the first
    row i with spare surplus to the first column j with spare shortage, and
    moves past whichever side it used up, or both on a tie. One map rem
    holds both sides, keyed by agent, since no row is also a column. Every
    unit earns v, so the objective is v times the units shipped, which is
    exactly v * min(sum(H), sum(E)), at rem's scale.
    """
    v = profit[rows[0]][cols[0]] if rows and cols else 0.0
    a = b = 0
    while v > 0.0 and a < len(rows) and b < len(cols):
        i, j = rows[a], cols[b]
        w = flow[i, j] = min(rem[i], rem[j])
        rem[i] -= w
        rem[j] -= w
        if not rem[i]:
            a += 1
        if not rem[j]:
            b += 1
    return Fraction(v) * sum(flow.values()), len(flow)


def _augmenting_path_flows(rows, cols, profit, rem, flow):
    """The flows by successive most-profitable augmenting paths, any matrix.

    Only the positive-profit arcs of rows x cols can carry flow, so only
    they are kept, exact. Augmentation stops as soon as the best path
    profit is no longer strictly positive. Ties between equal-profit paths
    resolve deterministically by index order.

    Each path [i0, j0, ..., ik, jk] ships along (i0, j0), ..., (ik, jk) and
    takes flow back along (i1, j0), ..., (ik, j(k-1)). Its bottleneck is
    positive: i0 has no predecessor, so it has spare surplus; jk is chosen
    with spare shortage; and a route is taken back only while it carries
    flow. Each augmentation raises sum(p_ij * W_ij) by exactly the path's
    gain times its bottleneck, so the objective is that running sum, at
    rem's scale: the bottlenecks are ints and the gains `Fraction`s.
    """
    p = {(i, j): Fraction(profit[i][j]) for i in rows for j in cols if profit[i][j] > 0.0}
    objective = Fraction(0)
    for steps in range(4 * (len(p) + len(rows) + len(cols)) + 16):
        found = _best_augmenting_path(rows, cols, p, flow, rem)
        if found is None:
            return objective, steps
        gain, path = found
        back = list(zip(path[2::2], path[1::2]))
        bottleneck = min(rem[path[0]], rem[path[-1]], *(flow[arc] for arc in back))
        for arc in zip(path[0::2], path[1::2]):
            flow[arc] = flow.get(arc, 0) + bottleneck
        for arc in back:
            flow[arc] -= bottleneck
        rem[path[0]] -= bottleneck
        rem[path[-1]] -= bottleneck
        objective += gain * bottleneck
    raise RuntimeError("augmenting-path loop failed to terminate")


def _best_augmenting_path(rows, cols, p, flow, rem):
    """Most profitable residual path from spare surplus to spare shortage.

    Bellman-Ford on negated profits over the arcs of p. S and T are
    disjoint, so one dist map and one pred map, keyed by agent, cover both:
    pred[j] is the row that ships to column j, and pred[i] the column whose
    flow from row i is taken back, which only an arc with flow > 0 allows.
    Returns (gain, path), where path lists the agents visited,
    [i0, j0, ..., ik, jk], and gain = -dist[jk] is its exact profit; jk is
    the column with spare shortage at the least distance, the first by
    index among equals (`min` keeps the first of equal keys). Returns
    None when no path with strictly positive profit remains. Successive
    shortest-path augmentation keeps the residual graph free of negative
    cycles.
    """
    dist: dict[int, Fraction | None] = dict.fromkeys(rem)
    dist.update((i, Fraction(0)) for i in rows if rem[i])
    pred: dict[int, int | None] = dict.fromkeys(rem)

    for _ in range(len(rows) + len(cols) + 1):
        changed = False
        for arc, pij in p.items():
            i, j = arc
            if dist[i] is not None:
                cand = dist[i] - pij
                if dist[j] is None or cand < dist[j]:
                    dist[j] = cand
                    pred[j] = i
                    changed = True
            if flow.get(arc) and dist[j] is not None:
                cand = dist[j] + pij
                if dist[i] is None or cand < dist[i]:
                    dist[i] = cand
                    pred[i] = j
                    changed = True
        if not changed:
            break
    else:
        raise RuntimeError("negative cycle detected in residual graph")

    end = min((j for j in cols if rem[j] and dist[j] is not None), key=dist.__getitem__,
              default=None)
    if end is None or dist[end] >= 0:
        return None

    # Walk predecessors back from the chosen shortage to an agent with none,
    # a spare surplus; a path visits each agent at most once.
    path = [end]
    for _ in range(len(pred)):
        if pred[path[-1]] is None:
            break
        path.append(pred[path[-1]])
    else:
        raise RuntimeError("predecessor walk failed to reach an origin")
    path.reverse()
    return -dist[end], path
