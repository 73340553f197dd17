"""Policy search over the policy spaces, plus structural checks.

The full, reduced and bang-bang spaces are searched by the paper's policy
iteration on the signs of G + c (Cao, Stochastic Learning and
Optimization, 2007, ch. 4; Howard, Dynamic Programming and Markov
Processes, 1960). The performance difference formula

    eta' - eta = sum_j mu2 pi'(n,j) (d'_j - d_j) [G^d(n,j) + c],

with every value in 0..j, makes a policy optimal in all three spaces if
each level takes j where its G(n,j) + c > 0 and 0 where it is < 0, so
their optimum is bang-bang. (A value above j serves as j does and costs
more; where the rounding of the rates undercuts j's cost, the full space
wakes a level to its cheapest value, _awake.) From the awake policy each
step reads the policy's lines and a bound e_j on the float error of G + c
(sensitivity._margins), one O(m) pass, and moves only the levels whose
sign is certain, so the exact eta rises at every step (_iterate). No step
depends on the size of the space. The answer's eta is its closed form
eta = N/D, N and D sums over the levels of the running products of
lambda/nu, extended level by level in Python floats (_extend) on the
(lambda/nu, f) pairs chain._level_tables lists from the rates of the
answer's policy record (_profit).

One entry, _rankings, answers optimize, with or without top_k, and
price_sweep. Its one step runs the iteration at every price and forms
each answering policy's eta at all the prices it won. Rankings (top_k > 1)
of a product space are Lawler's partition over that step (Lawler, "A
procedure for computing the K best solutions to discrete optimization
problems", Management Science 18(7), 1972): each subspace keeps one value
set per level, and its best policy is the step on one candidate pair per
level, so k policies cost about k m iterations at any m. The threshold
family, like the monotonicity sweep, extends shared prefixes by _extend
one policy at a time, so it holds O(m) floats at any m.

The module also houses the structural results: closed-form optima at
extreme prices, the threshold-policy scan with its optimality sign
conditions, and per-coordinate monotonicity checks (profit is affine in a
coordinate above its level and monotone below it when the price clears the
critical values).
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .chain import (_energy_costs, _level_tables, _policy_record, _rates, _require_finite,
                    _value_rates, stationary_closed_form)
from .errors import ConfigError, ConsistencyError, NumericalError, RegimeError
from .model import (
    ModelParams,
    Policy,
    ReadOnlyRecord,
    _check_count,
    _level_values,
    check_policy,
    policy_space_size,
    require_valid,
    threshold_policy,
)
from .reward import policy_profit
from .sensitivity import (_factor_plus_c, _margins, _record_means, _record_roots, _skew,
                          critical_prices_global)


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of a policy search.

    best_policy is the optimum. In the full, reduced and bang-bang spaces
    it is the policy iteration's answer: it meets the paper's optimality
    condition (d_j = j where G(n,j) + c > 0, 0 where it is < 0) at every
    level whose margin |G + c| clears its error bound e_j, and the levels
    inside their band take 0 (or keep j, where 0 would leave a margin
    there that clears its bound on the waking side). In the full space an
    awake level takes, in place of j, the value of least float cost among
    j..m, which is j unless the rounding of the rates undercuts it. So it
    is the space's exact optimum on its float rates wherever no level lies
    in a band. In the threshold space it is the lexicographically smallest
    float maximizer. best_eta is its float eta.
    evaluations is the size of the space searched, however many policies
    the search formed; ranking (optional) lists the top policies as
    (policy, eta) pairs, best first, each the iteration's answer on a
    subspace of Lawler's partition in the product spaces, so ranking[0] is
    best_policy.
    """

    best_policy: Policy
    best_eta: float
    space: str
    evaluations: int
    ranking: list[tuple[Policy, float]] | None = None


@dataclass(frozen=True)
class ThresholdResult(ReadOnlyRecord):
    """Scan of the threshold family d_theta, theta = 1..m+1.

    theta_star is the minimal maximizer of eta_by_theta, so on an exact tie
    it names the most awake policy; optimize(space="threshold") breaks the
    same tie the other way, to the lexicographically smallest policy, which
    is the maximal theta.

    necessary_condition holds the sign triple at theta*: (value at
    (n,theta*-1) under d_{theta*-1}, at (n,theta*) under d_{theta*}, at
    (n,theta*+1) under d_{theta*+1}), each of the form G+c, with NaN for
    boundary-skipped terms. The first must be <= 0 and the others >= 0.
    necessary_condition_proof_form is G^{d_{theta*+1}}(n,theta*)+c, the
    variant that follows directly from pairing d_{theta*} with
    d_{theta*+1}; it is >= 0 whenever theta* is a true maximizer, whereas
    the third triple entry additionally assumes the scan is unimodal.
    """

    theta_star: int
    eta_by_theta: np.ndarray
    necessary_condition: tuple[float, float, float]
    necessary_condition_proof_form: float


@dataclass(frozen=True)
class MonotonicityReport(ReadOnlyRecord):
    """Profit sweep over one policy coordinate.

    etas[v] is the profit with coordinate j set to v (0..m). On {j..m} the
    profit must be affine with slope_expected = -pi(n,j)(P2W-P2S)C1;
    linear_residual is the worst deviation. On {0..j} the diffs are
    classified strictly monotone with margin 1e-12 * max(1, |eta|).
    expected_direction records what the supplied critical prices imply
    ("increasing", "decreasing", or None), ok whether the sweep meets it.
    """

    j: int
    values: np.ndarray
    etas: np.ndarray
    slope_expected: float
    linear_residual: float
    strictly_increasing: bool
    strictly_decreasing: bool
    expected_direction: str | None
    argmax_value: int
    ok: bool


def _extend(state, xi_n, tables, span=slice(None)):
    """The (P, S, W) state of a prefix, extended by the levels span of
    tables, one list of (lambda/nu, f) pairs per lane: S holds one sum per
    lane. A lane is a price, or a value that shares lambda/nu with others.

    The closed form eta = (S + low_profit) / (W + low_weight) in Python
    floats, on the floats of chain._level_tables, for the eta of
    optimize's answers, the threshold family and the monotonicity sweep.
    Each level runs P <- r P, xi <- P xi_n, S <- xi f + S and W <- xi + W,
    so a policy's eta is the same bit for bit wherever it is formed. P, xi
    and W are the same in every lane: they are formed once, and only S in
    each lane.
    """
    prod, sums, weight = state
    if len(sums) == 1:
        (total,), (table,) = sums, tables
        for ratio, f in table[span]:
            prod = ratio * prod
            xi = prod * xi_n
            total = xi * f + total
            weight = xi + weight
        return prod, [total], weight
    xis = []
    for ratio, _ in tables[0][span]:
        prod = ratio * prod
        xi = prod * xi_n
        weight = xi + weight
        xis.append(xi)
    grown = []
    for total, table in zip(sums, tables):
        for xi, (_, f) in zip(xis, table[span]):
            total = xi * f + total
        grown.append(total)
    return prod, grown, weight


def _threshold_family(params: ModelParams, prices: list[float]) -> np.ndarray:
    """Profit of every threshold policy at each price, one row per price:
    column r is the policy of theta = r + 1.

    A descent of _extend: rank r continues the all-asleep state of the
    first r levels with the awake values of the levels above, so the
    family holds O(m) floats per price at any m.
    """
    m = params.m
    death, cost, _ = _value_rates(params, _level_values(m, "threshold"))
    low_profit, low_weight, xi_n, tables = _level_tables(params, death, cost, prices)
    state, grown = (1.0, [0.0] * len(prices), 0.0), []
    # Level k + 1's values are (0, k + 1): pairs 2k (asleep) and 2k + 1.
    for r in range(m + 1):
        grown.append(_extend(state, xi_n, tables, slice(2 * r + 1, 2 * m, 2)))
        if r < m:
            state = _extend(state, xi_n, tables, slice(2 * r, 2 * r + 1))
    return _profits(grown, low_profit, low_weight)


def _profits(states, low_profit: np.ndarray, low_weight: float) -> np.ndarray:
    """eta = (S + low_profit) / (W + low_weight) of each (P, S, W) state
    of _extend, one row per price. A profit that is not finite raises
    NumericalError."""
    etas = np.array([[(sums[p] + low) / (weight + low_weight) for _, sums, weight in states]
                     for p, low in enumerate(low_profit.tolist())])
    _require_finite(etas, "profits")
    return etas


def _cheapest(params: ModelParams, j: int, low: int, after: tuple):
    """The least (float cost, value) past after among level j's values
    low..m, or None: one O(m) pass of chain._rates, ties to the smallest
    value. The values from j on share level j's death rate, so the
    cheapest of them is the best."""
    _, cost = _rates(params, [(j, v) for v in range(low, params.m + 1)])
    return min((key for key in zip(cost[params.n + 1:], range(low, params.m + 1))
                if key > after), default=None)


def _awake(params: ModelParams, space: str) -> Policy:
    """The value the policy iteration wakes each level to: j, or in the
    full space the value of least float cost among j..m (_cheapest), the
    smallest on a tie. Those values share level j's death rate, so it is
    at least as good as any of them on the float rates; it is j unless the
    rounding of the rates undercuts j's cost, and
    sensitivity._record_bounds covers it in j's place.

    A value's cost at a level never falls below that of a value with a
    smaller energy cost (chain._energy_costs), so j wins where its energy
    cost is the least of j..m, a suffix minimum; only the other levels form
    their values' costs, so the choice holds O(m) floats.
    """
    m = params.m
    if space != "full":
        return tuple(range(1, m + 1))
    energy = _energy_costs(params)
    least = list(itertools.accumulate(reversed(energy), min))[::-1]
    return tuple(_cheapest(params, j, j, (-math.inf, 0))[1] if energy[j] > least[j] else j
                 for j in range(1, m + 1))


def _iterate(params: ModelParams, pairs: list, prices: list[float]) -> list[Policy]:
    """The policy iteration's answer at each price on one candidate pair
    (lo, hi) per level: both in 0..j, 0 and _awake's value, or one value
    twice, the comparisons sensitivity._record_bounds certifies.

    From the policy of the hi values, each step reads G(n,j) + c and its
    error bound e_j from the policy's record (sensitivity._margins) and
    sets level j to hi where G + c > e_j and to lo where G + c < -e_j; in
    the band between, where the sign is not known, it stays. So every step
    raises the exact eta and no policy comes back: one that does means a
    bound failed, and raises NumericalError. The iteration stops when the
    policy repeats. At the fixed point the band levels go to lo, the
    lexicographically smaller value, where the policy with lo there is a
    fixed point too; otherwise they stay. Where no level lies in a band the
    answer meets the optimality condition exactly, so it is the exact
    optimum over the pairs, the same from every start.
    """
    lows, highs = (tuple(side) for side in zip(*pairs))
    skew = _skew(params)

    def step(d, price):
        """The next policy, and the sign of each level's margin, 0 in its band."""
        value, bound = _margins(params, d, price, skew)
        signs = [1 if v > e else -1 if v < -e else 0
                 for v, e in zip(value.tolist(), bound.tolist())]
        return tuple(hi if s > 0 else lo if s < 0 else x
                     for x, lo, hi, s in zip(d, lows, highs, signs)), signs

    answers = []
    for price in prices:
        d, seen = highs, []
        while d not in seen:
            seen.append(d)
            d, signs = step(d, price)
        if d != seen[-1]:
            raise NumericalError("policy iteration came back to a policy: "
                                 "an error bound of G + c failed")
        low = tuple(x if s else lo for x, lo, s in zip(d, lows, signs))
        # seen[-1] equals d, and is the tuple its policy record holds.
        answers.append(low if low != d and step(low, price)[0] == low else seen[-1])
    return answers


def _profit(params: ModelParams, d: Policy, prices: list[float]) -> list[float]:
    """eta of policy d at each price: _extend on chain._level_tables of the
    rates its policy record holds, which are _value_rates' for its values,
    so bit for bit its eta at that price alone."""
    record = _policy_record(params, d)
    low_profit, low_weight, xi_n, tables = _level_tables(
        params, record.death, record.cost, prices)
    state = _extend((1.0, [0.0] * len(prices), 0.0), xi_n, tables)
    return _profits([state], low_profit, low_weight)[:, 0].tolist()


def _rankings(params: ModelParams, space: str, k: int,
              prices: list[float]) -> list[list[tuple[float, Policy]]]:
    """The k best (-eta, policy) pairs of a space at each price, best
    first: the one search behind optimize and price_sweep. A ranking of
    more than one policy takes one price.

    The threshold space ranks each row of one _threshold_family call whole,
    by eta descending, ties by policy order, which is falling theta, so an
    exact tie goes to the largest theta. A product space takes one step for
    every answer (answers): _iterate's answer at each price, then _profit
    once per answering policy, at all the prices it won. On the pairs
    (0, _awake's value) of every level, where the space's optimum lies,
    that step gives the whole space's answer at every price, and with
    k = 1 it is the ranking.

    For k > 1 the price is ranked by Lawler's partition, from the whole
    space's answer. A subspace holds one value set per level, and its
    candidate is the step on one pair per set. Candidates are ordered by
    (-eta, policy), so ties go to the smaller policy. The best is popped,
    and for each level i its child fixes the levels below i to the popped
    policy and takes its value out of level i's set: the children part the
    rest of the subspace. At most k candidates are kept, so the ranking
    holds O(k m) values.

    Each set holds values of one kind, so its pair is one _iterate
    compares. Values in 0..j are a range sliced from _level_values, paired
    by its ends: a value taken out slices off an end, and a fixed value v
    is range(v, v + 1). Values above j, in the full space, share level j's
    death rate, so the cheapest is best: they are the (float cost, value)
    key of _cheapest, the values from it on in that order, paired (v, v).
    A full-space level that no child has touched below m holds every
    value, None, paired (0, _awake's value), as the rest is dominated; a
    value taken out of it parts the rest into 0..j and the values above j.
    """
    m = params.m
    if space == "threshold":
        # Column i of a reversed row is the policy of theta = m + 1 - i.
        return [[(neg, threshold_policy(m, m + 1 - i)) for neg, i in
                 heapq.nsmallest(k, zip((-etas[::-1]).tolist(), range(m + 1)))]
                for etas in _threshold_family(params, prices)]

    def answers(pairs, at):
        """(-eta, policy) of _iterate's answer on pairs at each price of at."""
        policies, won = _iterate(params, pairs, at), {}
        for price, d in zip(at, policies):
            won.setdefault(d, []).append(price)
        etas = {d: iter(_profit(params, d, prices_won)) for d, prices_won in won.items()}
        return [(-next(etas[d]), d) for d in policies]

    untouched = [(0, w) for w in _awake(params, space)]
    firsts = answers(untouched, prices)
    if k == 1:
        return [[first] for first in firsts]
    [price], [(neg, d)] = prices, firsts

    def pair(j, part):
        if part is None:
            return untouched[j - 1]
        return (part[0], part[-1]) if isinstance(part, range) else (part[1],) * 2

    def rest(j, part, v):
        """The sets left at level j once value v leaves part."""
        if part is None:
            above = _cheapest(params, j, j + 1, (-math.inf, 0))
            return (rest(j, range(j + 1), v) + [above] if v <= j
                    else [range(j + 1)] + rest(j, above, v))
        if not isinstance(part, range):
            key = _cheapest(params, j, j + 1, part)
            return [] if key is None else [key]
        return [] if len(part) == 1 else [part[1:] if v == part[0] else part[:-1]]

    def candidate(parts):
        [(neg, d)] = answers([pair(j, part) for j, part in enumerate(parts, start=1)], [price])
        return neg, d, parts

    whole = tuple(None if space == "full" and j < m else values
                  for j, values in enumerate(_level_values(m, space), start=1))
    found, best = [], [(neg, d, whole)]
    while best:
        neg, d, parts = best.pop(0)
        found.append((neg, d))
        if len(found) == k:
            break
        for i in range(m):
            fixed = tuple(range(v, v + 1) for v in d[:i])
            for part in rest(i + 1, parts[i], d[i]):
                bisect.insort(best, candidate(fixed + (part,) + parts[i + 1:]))
                del best[k - len(found):]
    return [found]


def optimize(params: ModelParams, space: str = "full", top_k: int | None = None,
             threads: int | None = None) -> OptimizationResult:
    """The optimal policy of a space, and its average profit.

    The full, reduced and bang-bang spaces are searched by the policy
    iteration of _iterate from the all-awake policy, in one O(m) pass per
    step, whatever the size of the space. The answer meets the paper's
    optimality condition at every level whose margin |G + c| clears its
    error bound e_j (d_j = j where G + c > 0, 0 where G + c < 0), and takes
    0 at the levels inside their band, unless 0 there would leave a margin
    that clears its bound on the waking side. In the full space a level
    wakes to its value of least float cost among j..m, j unless the
    rounding of the rates undercuts it. So the answer is the same bang-bang
    policy in the reduced and bang-bang spaces, and where no level lies in
    a band it is each space's exact optimum on its float rates. best_eta is
    that policy's float eta. The threshold space ranks the float eta of its
    m + 1 policies, ties to the lexicographically smallest policy, the
    maximal theta, while threshold_scan reports the minimal one.

    top_k (an integer, at least 1; any other top_k but None raises
    ValueError) adds a ranking of the top_k best policies as (policy, eta)
    pairs, best first, or of the whole space where it is smaller. The
    threshold space is ranked by eta descending, ties by policy ascending.
    A product space is ranked by Lawler's partition over the iteration,
    about top_k m iterations at any m: each entry is the iteration's answer
    on a subspace, taken by float eta, ties by policy, and the order is
    that of the exact eta but between policies whose float etas lie within
    a few ulps. Every call reads the one search, _rankings, whose first
    entry is the whole space's answer, so ranking[0] is the best_policy of
    the call without top_k.

    evaluations is the size of the space, however many policies the search
    formed. A non-finite profit or realization factor (the stationary
    weights overflow under heavy load) raises NumericalError.

    threads selects nothing: every search runs on the calling thread. It
    is kept, and still refused with ValueError unless it is None or a
    positive integer, only because the repository's benchmark workloads
    pass threads=1 and threads=2.
    """
    require_valid(params)
    if top_k is not None:
        _check_count(top_k, "top_k must be >= 1 and an integer")
    if threads is not None:
        _check_count(threads, "threads must be None or a positive integer")
    total = policy_space_size(params.m, space)
    [ranked] = _rankings(params, space, top_k or 1, [params.price])
    ranking = [(policy, -neg) for neg, policy in ranked]
    return OptimizationResult(*ranking[0], space, total, ranking if top_k else None)


def _price_grid(r_grid) -> list[float]:
    """The prices of r_grid as floats, refused as validate refuses a price.

    An empty grid or a negative price raises ValueError, a non-finite price
    ConfigError.
    """
    grid = [float(r) for r in r_grid]
    if not grid:
        raise ValueError("price grid must be nonempty")
    if not all(math.isfinite(r) for r in grid):
        raise ConfigError("price must be finite")
    if any(r < 0 for r in grid):
        raise ValueError("prices must be >= 0")
    return grid


def price_sweep(params: ModelParams, r_grid: Sequence[float], space: str = "full"):
    """The optimal policy at every price of a grid, with regime labels.

    Returns (rows, crit) where each row is (R, best policy, eta,
    per-level critical prices of that policy, regime label, crossing
    note) and crit carries the R_H / R_L thresholds of the space from
    critical_prices_global. The grid is checked once, before anything is
    computed. The answers come from the search optimize reads, _rankings,
    over the whole grid at once: one threshold family, or one policy
    iteration per price with each answering policy's eta formed at all the
    prices it won. So each row's policy and eta are optimize's at its
    price. Each answering policy's record gives its critical prices, those
    perturbation_factors reports (sensitivity._record_roots), and its
    completion and cost rates A and B (sensitivity._record_means). As a
    sanity check, eta is reconciled against the affine form R * A - B on
    every grid point; a mismatch raises ConsistencyError.
    """
    grid = _price_grid(r_grid)
    # One validate covers every grid price; critical_prices_global makes it.
    # Its roots do not depend on R.
    crit = critical_prices_global(replace(params, price=grid[0]), space)
    bests = [(d, -neg) for [(neg, d)] in _rankings(params, space, 1, grid)]

    # A, B and the critical prices of each answering policy, taken once
    # each: none of them depends on the price
    pieces: dict[tuple, tuple[float, float, tuple[float, ...]]] = {}
    rows = []
    prev_regime = None
    for r, (d, eta) in zip(grid, bests):
        if d not in pieces:
            record = _policy_record(params, d)
            pieces[d] = (*record.value(_record_means)[:2],
                         tuple(record.value(_record_roots).tolist()))
        completions, cost, crits = pieces[d]
        affine = r * completions - cost
        tol = 1e-9 * max(1.0, abs(eta))
        if completions < -1e-15 or abs(affine - eta) > tol:
            raise ConsistencyError(
                f"price sweep: eta at R={r:.6g} deviates from the affine "
                f"form ({eta!r} vs {affine!r})"
            )
        regime = "high" if r >= crit.r_high else "low" if r <= crit.r_low else "mid"
        crossing = ""
        if prev_regime is not None and regime != prev_regime:
            boundary = "R_H" if "high" in (regime, prev_regime) else "R_L"
            crossing = f"crosses {boundary}"
        prev_regime = regime
        rows.append((r, d, eta, crits, regime, crossing))
    return rows, crit


def optimal_extreme_prices(params: ModelParams, regime: str,
                           crit=None) -> tuple[Policy, float]:
    """Closed-form optimal policy when the price clears a critical value.

    regime "high" requires price >= R_H and yields the all-awake ladder
    (1,...,m); regime "low" requires price <= R_L and yields all-asleep.
    crit may carry precomputed critical prices; otherwise they are
    computed over the full space by critical_prices_global, which raises
    NumericalError where a root is not a finite double. The closed form is
    the policy; its eta is that policy's policy_profit, so weights that
    overflow raise NumericalError there.
    """
    require_valid(params)
    if regime not in ("high", "low"):
        raise ValueError(f"regime must be 'high' or 'low', got {regime!r}")
    if crit is None:
        crit = critical_prices_global(params, "full")
    if regime == "high":
        if not params.price >= crit.r_high:
            raise RegimeError(
                f"price {params.price!r} is below R_H={crit.r_high!r}; "
                "the all-awake closed form is not established"
            )
    else:
        if not (np.isfinite(crit.r_low) and params.price <= crit.r_low):
            raise RegimeError(
                f"price {params.price!r} is above R_L={crit.r_low!r}; "
                "the all-asleep closed form is not established"
            )

    d_star = threshold_policy(params.m, 1 if regime == "high" else params.m + 1)
    return d_star, policy_profit(params, d_star)


def threshold_scan(params: ModelParams) -> ThresholdResult:
    """Profit of every threshold policy and the sign conditions at theta*.

    theta* is the minimal maximizer (optimize over the threshold space
    returns the maximal one, its lexicographically smallest policy). Each
    eta, from the descent of _threshold_family, is bit for bit the eta
    optimize gives that policy in any space that contains it, and the scan
    holds O(m) floats as m grows. The sign triple skips boundary terms
    (NaN): the theta*-1 term needs theta* > 1, the theta* and theta*+1
    terms need their level to exist (<= m).
    """
    require_valid(params)
    m = params.m
    etas = _threshold_family(params, [params.price])[0]
    theta_star = 1 + int(np.argmax(etas))

    def value(theta: int, level: int) -> float:
        # The chain module's memo keeps the factors of all three policies.
        return float(_factor_plus_c(params, threshold_policy(m, theta), level))

    t_prev = value(theta_star - 1, theta_star - 1) if theta_star > 1 else np.nan
    t_here = value(theta_star, theta_star) if theta_star <= m else np.nan
    t_next = value(theta_star + 1, theta_star + 1) if theta_star + 1 <= m else np.nan
    t_proof = value(theta_star + 1, theta_star) if theta_star <= m else np.nan

    return ThresholdResult(
        theta_star=theta_star,
        eta_by_theta=etas,
        necessary_condition=(float(t_prev), float(t_here), float(t_next)),
        necessary_condition_proof_form=float(t_proof),
    )


def verify_monotonicity(params: ModelParams, d: Policy, j: int,
                        r_high: float | None = None,
                        r_low: float | None = None) -> MonotonicityReport:
    """Sweep coordinate j of d over {0..m} and check the profit shape.

    Above level j the profit must be affine with slope
    -pi(n,j)(P2W-P2S)C1 (the stationary law no longer depends on the
    coordinate there). Below, it must be strictly increasing when the
    price is at least r_high and strictly decreasing when at most r_low,
    with strictness margin 1e-12 * max(1, |eta|). A j that is not an
    integer in 1..m raises ValueError.
    """
    require_valid(params)
    d = check_policy(d, params.m)
    _check_count(j, f"j must be an integer in 1..{params.m}", params.m)
    m = params.m

    # Singleton levels but level j, whose value v is pair j - 1 + v of the
    # tables: one prefix below level j, then a continuation per value. From
    # v = j on, min(v, j) = j servers serve, so those values share
    # lambda/nu at j, and with it P, xi and W above j: they continue as one
    # state with an S per value, as prices do.
    levels = [range(m + 1) if i == j else (v,) for i, v in enumerate(d, start=1)]
    death, cost, _ = _value_rates(params, levels)
    low_profit, low_weight, xi_n, tables = _level_tables(
        params, death, cost, [params.price])
    above = slice(j + m, None)
    below = _extend((1.0, [0.0], 0.0), xi_n, tables, slice(j - 1))
    at_j = [_extend(below, xi_n, tables, slice(v, v + 1)) for v in range(j - 1, j + m)]
    ends = [_extend(state, xi_n, tables, above) for state in at_j[:j]]
    prod, _, weight = at_j[j]
    shared = (prod, [total for _, [total], _ in at_j[j:]], weight)
    prod, sums, weight = _extend(shared, xi_n, tables * (m + 1 - j), above)
    etas = _profits(ends + [(prod, [total], weight) for total in sums],
                    low_profit, low_weight)[0]

    pi = stationary_closed_form(params, d[:j - 1] + (j,) + d[j:])
    slope = -(pi.pi[params.n + j] * (params.p2_work - params.p2_sleep)
              * params.c_energy)
    span = np.arange(j, m + 1)
    linear_residual = float(np.max(np.abs(
        etas[span] - (etas[j] + slope * (span - j)))))

    margin = 1e-12 * max(1.0, float(np.max(np.abs(etas))))
    lower = np.diff(etas[:j + 1])
    strictly_inc = bool(lower.size == 0 or np.all(lower > margin))
    strictly_dec = bool(lower.size == 0 or np.all(lower < -margin))

    expected = None
    if r_high is not None and params.price >= r_high:
        expected = "increasing"
    elif r_low is not None and params.price <= r_low:
        expected = "decreasing"
    ok = linear_residual < 1e-10
    if expected == "increasing":
        ok = ok and strictly_inc
    elif expected == "decreasing":
        ok = ok and strictly_dec

    return MonotonicityReport(
        j=j, values=np.arange(m + 1), etas=etas, slope_expected=float(slope),
        linear_residual=linear_residual, strictly_increasing=strictly_inc,
        strictly_decreasing=strictly_dec, expected_direction=expected,
        argmax_value=int(np.argmax(etas)), ok=bool(ok),
    )
