"""Policy search over the policy spaces, plus structural checks.

Every policy's average profit has a closed form (stationary weights are
products of birth/death ratios), eta = N/D with N and D sums over the
levels of the same running products of lambda/nu. The full, reduced and
bang-bang spaces are products of per-level value sets, so their best
policy is found by Dinkelbach's ratio iteration over a backward dynamic
program on the levels (_near_best), which costs a sum over the levels of
their value counts, not the size of the space. It returns what exact
enumeration with a lexicographic tie-break returns, bit for bit: the
policies that may tie the float maximum are regrown from the root in the
enumeration tree's order and operations. It reads the tables of
chain._level_tables, formed from one scalar rate pass over every value of
every level; the walk below, the threshold family and the monotonicity
sweep read the same tables.

The enumeration tree is still walked where that set of near ties is
large, for rankings (top_k) and for price_sweep: policies that share their
first j coordinates share the partial weight product and profit sums of
those levels. The prefixes stay in the order the tree grows them; only
each chunk's candidates are ranked, and only the winning ranks are
unranked back into policies.
The price is an axis of that walk. Only the profit sums depend on it, so
price_sweep searches a whole grid of prices in one walk; each price's eta
is bit for bit what optimize returns at that price alone. The walk grows
its chunks one after another on the calling thread. The threshold family
and the monotonicity sweep extend shared prefixes one policy at a time
in Python floats (_extend, the arithmetic of the DP's profit), so they
hold O(m) floats at any m.

The module also houses the structural results: closed-form optima at
extreme prices, the threshold-policy scan with its optimality sign
conditions, and per-coordinate monotonicity checks (profit is affine in a
coordinate above its level and monotone below it when the price clears the
critical values).
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .chain import _level_tables, _require_finite, stationary_closed_form
from .errors import ConfigError, ConsistencyError, GateError, RegimeError
from .model import (
    BLOCK_SIZE,
    ModelParams,
    Policy,
    ReadOnlyRecord,
    _check_count,
    _gated_size,
    _level_values,
    _policy_block,
    _size_text,
    check_policy,
    require_valid,
    threshold_policy,
)
from .reward import affine_decomposition, policy_profit, profit_components
from .sensitivity import _factor_plus_c, critical_prices_global, perturbation_factors


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of a policy search.

    best_policy is the lexicographically smallest maximizer; evaluations
    is the size of the space searched, however many policies the search
    formed; ranking (optional) lists the top policies as (policy, eta)
    pairs, best first.
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
    floats, on the floats of chain._level_tables, for the DP's profit, the
    threshold family and the monotonicity sweep. Each level runs
    P <- r P, xi <- P xi_n, S <- xi f + S and W <- xi + W, the operations
    of the walk's grow in its order, so a policy's eta is bit for bit the
    walk's (see _near_best, whose pruned regrowth tests every such step
    inline). P, xi and W are the same in every lane: they are formed once,
    and only S in each lane.
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


def _pairs(ratios: np.ndarray, rates: np.ndarray) -> list:
    """The (lambda/nu, f) pairs of _level_tables' flat tables, one list per
    price, as _extend reads them."""
    ratios = ratios.tolist()
    return [list(zip(ratios, row)) for row in rates.tolist()]


def _threshold_family(params: ModelParams, prices: list[float]) -> np.ndarray:
    """Profit of every threshold policy at each price, one row per price:
    column r is rank r of model._space_block, theta = r + 1.

    A descent of _extend: rank r continues the all-asleep state of the
    first r levels with the awake values of the levels above, so the
    family holds O(m) floats per price at any m.
    """
    m = params.m
    _, low_profit, low_weight, xi_n, ratios, rates = _level_tables(
        params, _level_values(m, "threshold"), prices)
    tables = _pairs(ratios, rates)
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
    NumericalError, as in _chunk_summary."""
    etas = np.array([[(sums[p] + low) / (weight + low_weight) for _, sums, weight in states]
                     for p, low in enumerate(low_profit.tolist())])
    _require_finite(etas, "profits")
    return etas


def _chunk_summary(etas, ranks, k):
    """The k best (-eta, rank) pairs of a chunk of rows, at each price.

    etas holds one row of profits per price, and ranks(rows) gives the
    lexicographic rank of each column index. Rank order is policy order,
    so ordering by eta descending, then rank ascending, and merging
    summaries with heapq.nsmallest ranks by eta descending, then policy
    ascending, however the rows were split into chunks; only the winners
    need unranking.
    """
    cut = etas.max(axis=1, keepdims=True)
    _require_finite((etas.min(), cut.max()), "profits")  # NaN reaches both
    size = etas.shape[1]
    count = min(k, size)
    if count > 1:
        cut = np.partition(etas, size - count, axis=1)[:, size - count, None]
    price, top = np.divmod(np.flatnonzero(etas >= cut), size)
    rank, eta = ranks(top), etas[price, top]
    order = np.lexsort((rank, -eta, price))
    # Each price has at least count rows at or above its cut.
    starts = np.searchsorted(price[order], np.arange(etas.shape[0]))
    return [[(-float(eta[t]), int(rank[t])) for t in order[start:start + count]]
            for start in starts]


# The most bytes the walk's split-level prefixes may take; a space that
# needs more is refused, whatever allow_large says.
_WALK_BYTES = 2**30


def _product_candidates(params: ModelParams, space: str, k: int,
                        prices: np.ndarray) -> list[list[tuple[float, int]]]:
    """The best (-eta, rank) pairs of a product space, one list per price.

    Each list holds the space's k best at that price, best first: the
    _chunk_summary of every chunk, merged by heapq.nsmallest as the chunks
    are grown, one after another on the calling thread.

    Policies that share their first j coordinates share the first j factors
    of the weight product P (cumulative lambda/nu) and the first j terms of
    S = sum xi f and W = sum xi, with xi = xi_low[n] P. So the enumeration
    tree is grown one level at a time: each level multiplies every prefix's
    P by its values' lambda/nu and adds their terms. Only S depends on the
    price, through f = R nu - cost, so one walk grows P and W once and S as
    a (prices, rows) array, on _level_tables of the space's value sets.
    _extend runs these operations in this order on the same tables, so a
    policy gets the same profit from the walk, the level DP, the threshold
    family and the monotonicity sweep at every m. A level's values form the
    leading axis of its rows, so every operation runs along the contiguous
    prefix axis. The levels above a split are built once and stay in the
    tree's order; each chunk grows the next run of split-level prefixes into
    leaves. Only a chunk's candidates are ranked, by two index tables: the
    rank of each split-level prefix, and of each path from one to a leaf. No
    array holds more than BLOCK_SIZE rows x prices unless one price's
    prefixes alone do: the split deepens as prices are added, and the prices
    are walked in batches small enough for their prefixes to fit. A space
    whose split-level prefixes and rank table would pass _WALK_BYTES is
    refused with GateError before any is grown. Every leaf's numbers come
    from the same elementwise operations wherever the tree is split, so no
    result depends on the chunks, the batches or the other prices.
    """
    m, levels = params.m, _level_values(params.m, space)
    sizes = [len(values) for values in levels]
    start, low_profit, low_weight, xi_n, every_ratio, f_top = _level_tables(
        params, levels, prices.tolist())
    ratios = [every_ratio[a:b] for a, b in zip(start, start[1:])]

    def split_for(q):
        """(split, leaves) for q prices: the first chunk level, and the
        leaves under each of its prefixes, at most BLOCK_SIZE // q."""
        cap = max(1, BLOCK_SIZE // q)
        split, leaves = m, 1
        while split > 1 and leaves * sizes[split - 1] <= cap:
            split -= 1
            leaves *= sizes[split]
        return split, leaves

    def walk(f_top, low_profit):
        """Each price's candidates from one walk over the prices of f_top."""
        q = low_profit.size
        split, leaves = split_for(q)
        # The split level holds q + 2 floats and one int64 rank per prefix.
        if (q + 3) * 8 * (space_size // leaves) > _WALK_BYTES:
            raise GateError(f"{space} policy space has {_size_text(m, space)} members for "
                            f"m={m}; its walk needs over {_WALK_BYTES >> 30} GiB of "
                            "prefix sums, a budget allow_large does not lift")

        def grow(state, j, out):
            """Level j's (P, S, W) from level j-1's, written into out.

            The leaf level m-1 gets no P: its out has no P slot, and its
            xi is formed in W's slot by the same two roundings.
            """
            prod, profit, weight = state
            ratio, f = ratios[j], f_top[:, start[j]:start[j + 1]]
            shape = (ratio.size, prod.size)
            size = ratio.size * prod.size
            xi = out[1][:size].reshape(shape)
            term = out[2][:q * size].reshape((q,) + shape)
            if out[0] is None:
                new_prod = None
                np.multiply.outer(ratio, prod, out=xi)
                xi *= xi_n
            else:
                new_prod = out[0][:size].reshape(shape)
                np.multiply.outer(ratio, prod, out=new_prod)
                np.multiply(new_prod, xi_n, out=xi)
                new_prod = new_prod.ravel()
            np.multiply(xi, f[:, :, None], out=term)
            term += profit[:, None, :]
            xi += weight
            return new_prod, term.reshape(q, size), xi.ravel()

        def buffers(flat, rows):
            """Out arrays for rows rows of (P, W, S), carved from flat."""
            return flat[:rows], flat[rows:2 * rows], flat[2 * rows:]

        prefix = (np.ones(1), np.zeros((q, 1)), np.zeros(1))
        for j in range(split):
            size = prefix[0].size * sizes[j]
            prefix = grow(prefix, j, buffers(np.empty((q + 2) * size), size))
        # The rank of each tree-order prefix, and of each tree-order leaf
        # path below one, in rank units of their levels.
        top, deep = (np.arange(math.prod(part)).reshape(part).transpose().ravel()
                     for part in (sizes[:split], sizes[split:]))
        # A chunk of split-level prefixes, never more than there are.
        per = min(max(1, BLOCK_SIZE // q) // leaves, prefix[0].size)
        rows = per * leaves
        small = rows // sizes[m - 1]

        # Fresh chunk-sized arrays cost page faults in every chunk, so the
        # chunks are grown in two reused buffer sets, one per level parity.
        # The leaf set holds level m-1, which needs no P, and forms eta in
        # place; the levels below m-1 hold at most small rows each, so the
        # walk holds (q + 1) rows + (q + 3) small floats. One allocation
        # holds both sets: freeing several smaller ones let the allocator
        # return their pages after every call.
        flat = np.empty((q + 1) * rows + (q + 3) * small)
        leaf = (flat[:small], flat[small:small + rows],
                flat[small + rows:small + (q + 1) * rows])
        work = (leaf, buffers(flat[small + (q + 1) * rows:], small))
        found = [[] for _ in range(q)]
        for lo in range(0, prefix[0].size, per):
            state = (prefix[0][lo:lo + per], prefix[1][:, lo:lo + per],
                     prefix[2][lo:lo + per])
            width = state[0].size
            for j in range(split, m - 1):
                state = grow(state, j, work[(m - 1 - j) % 2])
            if split < m:
                state = grow(state, m - 1, (None,) + leaf[1:])
            # Once a level is grown, the state lies in the leaf set and
            # these write over it; when none is, it is a slice of the
            # shared prefix, which they leave alone.
            size = state[2].size
            total, etas = leaf[1][:size], leaf[2][:q * size].reshape(q, size)
            np.add(state[1], low_profit[:, None], out=etas)
            np.add(state[2], low_weight, out=total)
            etas /= total

            def ranks(rows):
                return top[lo + rows % width] * leaves + deep[rows // width]

            for p, best in enumerate(_chunk_summary(etas, ranks, k)):
                found[p] = heapq.nsmallest(k, found[p] + best)
        return found

    # The largest batch of prices whose prefix sums fit in BLOCK_SIZE
    # values; a batch's split deepens, and its prefixes multiply, with it.
    space_size = math.prod(sizes)
    batch, most = 1, prices.size
    while batch < most:
        mid = (batch + most + 1) // 2
        if mid * (space_size // split_for(mid)[1]) <= BLOCK_SIZE:
            batch = mid
        else:
            most = mid - 1
    candidates = []
    for first in range(0, prices.size, batch):
        at = slice(first, first + batch)
        candidates += walk(f_top[at], low_profit[at])
    return candidates


def _rankings(params: ModelParams, space: str, k: int,
              prices) -> list[list[tuple[float, Policy]]]:
    """The k best (-eta, policy) pairs of a space at each price, best first.

    The threshold family is _threshold_family's, ranked whole at every
    price by heapq.nsmallest on (-eta, policy order); the product spaces
    are one walk of _product_candidates over all the prices. Overflow and
    NaN are refused by _threshold_family and _chunk_summary.
    """
    m = params.m
    prices = np.asarray(prices, dtype=np.float64)
    if space == "threshold":
        # Policy order is falling theta: column i is rank m - i.
        candidates = [heapq.nsmallest(k, zip((-etas).tolist(), range(m + 1)))
                      for etas in _threshold_family(params, prices.tolist())[:, ::-1]]
        policy_of = lambda ranks: _policy_block(m, space, [m - r for r in ranks])
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            candidates = _product_candidates(params, space, k, prices)
        policy_of = functools.partial(_policy_block, m, space)

    # Neighbouring prices mostly share their winners: unrank each once,
    # all of them in one pass.
    ranks = sorted({rank for found in candidates for _, rank in found})
    policies = dict(zip(ranks, map(tuple, policy_of(ranks).tolist())))
    return [[(neg, policies[rank]) for neg, rank in found]
            for found in candidates]


# The most prefixes _near_best grows at one level; a larger set of near
# ties is ranked by the walk.
_TIE_CAP = 256


def _near_best(params: ModelParams, space: str,
               ) -> list[tuple[Policy, float]] | None:
    """The policies of a product space that may tie its float maximum.

    Returns (policy, eta) pairs in policy order, each eta bit for bit the
    walk's, among them every policy whose eta is the walk's maximum; or
    None where the walk must rank the space itself.

    eta = N/D, where N = low_profit + sum xi f and D = low_weight + sum xi
    over the levels, and xi = xi_n P with P the running product of the
    levels' lambda/nu. For a fixed eta the largest N - eta D over a
    product space is a backward pass over the levels: V_m = 0 and V_j =
    max_a r_j(a) (f_j(a) - eta + V_{j+1}), with r = lambda/nu. Dinkelbach's
    ratio iteration (Management Science 13(7), 1967) starts from the most
    awake policy, whose weights are the smallest, sets eta to the profit of
    the pass's argmax and stops once eta no longer rises; it finds the
    maximum to within rounding. The walk's answer is the lexicographically
    smallest policy among those whose float eta is largest, so the tree is
    grown again from the root, in policy order, keeping the prefixes whose
    best completion can still reach lo = eta - 2 delta: those whose
    base + (S - lo W) + xi V_{j+1}(lo) is at least 0, with base =
    low_profit - lo low_weight. Each policy's P, xi, S = sum xi f, W =
    sum xi and eta = (S + low_profit) / (W + low_weight) are formed by the
    operations of the walk's grow, in its order, on the same floats.

    Why 2 delta keeps every float maximizer. Let u = 2**-53, F = max|f|
    and K = F + |low_profit| / low_weight. The DP, the walk and _extend
    start from the same floats, the tables of chain._level_tables: ratios
    and rates, xi_n, low_profit and low_weight. So only the roundings after
    them count; each multiplies a term by some 1 + e with |e| <= u. With
    no overflow (the reach test) and no subnormal result:
    - A leaf's eta. Level j's term (1-based) goes through j roundings of
      P, one of xi, one of xi f and at most m - j + 1 of the sums; then
      come the addition of low_profit and the division. All of D's terms
      are positive, so its error is relative. A leaf's float eta is thus
      within about (m + 5) u (F + |eta|) of its exact value.
    - The prefix test. Rounding is monotone and every ratio and xi is
      positive, so the float V_{j+1} is at least the float Horner sum
      along any one completion, in particular a policy L's own. Each term
      of that sum and of the prefix part goes through at most 3m + 6
      roundings, so for a prefix of L the float test is at least
      D_L (eta_L - lo - (3m + 6) u (K + |lo|)), with D_L and eta_L L's
      exact denominator and profit.
    If L's float eta is the float maximum, it is at least eta (the profit
    of one policy, formed the same way), so eta_L - lo >= 2 delta -
    (m + 5) u (F + |eta|). delta = 4 (m + 4) u (K + |eta|) leaves about
    twice the (4m + 11) u (K + |eta|) that the two bounds need together,
    so no prefix of L is dropped. The states (i, 0) enter only through
    K: low_profit and low_weight are the same floats on both paths, so n
    does not enter delta.

    None is returned where the weights and profit rates are too large to
    rule out an overflow anywhere in the space, so that the walk refuses
    exactly the spaces it refuses, and where more than _TIE_CAP prefixes
    near the maximum share a level.
    """
    levels = _level_values(params.m, space)
    start, low_profit, low_weight, xi_n, ratios, rates = _level_tables(
        params, levels, [params.price])
    scale = float(np.abs(rates).max())
    # The tables as Python floats, one list per level: lambda/nu and
    # (lambda/nu, f) pairs.
    pairs, ratios = (
        [table[a:b] for a, b in zip(start, start[1:])]
        for table in (_pairs(ratios, rates)[0], ratios.tolist()))
    low_profit, m = float(low_profit[0]), params.m

    # Rounding is monotone, so the all-asleep prefix has the largest float
    # P at every level. Times the largest profit rate it bounds every sum,
    # P and V below; NaN fails the test.
    prod = peak = 1.0
    for ratio in ratios:
        prod = max(ratio) * prod
        peak = max(peak, prod)
    scale += abs(low_profit) / low_weight
    reach = low_weight + max(1.0, xi_n) * m * (1.0 + peak)
    if not reach * scale < 2.0 ** 1000:
        return None

    def backward(eta):
        """V_0..V_m at eta, and each level's first maximizing pair."""
        values, choice = [0.0] * (m + 1), [None] * m
        for j in range(m - 1, -1, -1):
            shift = values[j + 1] - eta
            gains = [r * (f + shift) for r, f in pairs[j]]
            values[j] = max(gains)
            choice[j] = pairs[j][gains.index(values[j])]
        return values, choice

    def profit(choice):
        """eta of the policy of the level pairs choice."""
        _, [total], weight = _extend((1.0, [0.0], 0.0), xi_n, [choice])
        return (total + low_profit) / (weight + low_weight)

    eta = profit([level[-1] for level in pairs])
    while True:
        rising = profit(backward(eta)[1])
        if not rising > eta:
            break
        eta = rising

    delta = 4 * (m + 4) * 2.0 ** -53 * (scale + abs(eta))
    lo = eta - 2 * delta
    values, _ = backward(lo)
    base = low_profit - lo * low_weight
    frontier = [((), 1.0, 0.0, 0.0)]
    for j in range(m):
        grown, ahead = [], values[j + 1]
        for prefix, prod, total, weight in frontier:
            for a, (r, f) in enumerate(pairs[j]):
                new_prod = r * prod
                xi = new_prod * xi_n
                new_total = xi * f + total
                new_weight = xi + weight
                if base + (new_total - lo * new_weight) + xi * ahead >= 0:
                    grown.append((prefix + (a,), new_prod, new_total, new_weight))
            if len(grown) > _TIE_CAP:
                return None
        frontier = grown
    near = [(tuple(levels[j][a] for j, a in enumerate(prefix)),
             (total + low_profit) / (weight + low_weight))
            for prefix, _, total, weight in frontier]
    # The pass's own maximizer must be among them; if rounding lost it,
    # the walk answers.
    if not near or max(e for _, e in near) < eta:
        return None
    return near


def optimize(params: ModelParams, space: str = "full",
             allow_large: bool = False, top_k: int | None = None,
             threads: int | None = None) -> OptimizationResult:
    """Exact argmax of the average profit over a policy space.

    Ties in eta resolve to the lexicographically smallest policy; in the
    threshold space that is the maximal theta, while threshold_scan
    reports the minimal one. top_k (an integer, at least 1) requests a
    ranking of the best policies by eta descending, ties by policy
    ascending, so ranking[0] is always best_policy; any other top_k but
    None raises ValueError. Without top_k the full, reduced and bang-bang
    spaces are searched by the level DP of _near_best; with it, or where
    more than a few policies tie the maximum in float, their enumeration
    tree is walked on the calling thread in chunks of at most BLOCK_SIZE
    policies. No result depends on the path or the chunking, and
    evaluations is the size of the space. A walk whose split-level prefix
    sums would pass _WALK_BYTES raises GateError, allow_large or not. A
    non-finite profit of any policy (the stationary weights overflow under
    heavy load) raises NumericalError.

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
    total = _gated_size(params.m, space, allow_large)
    if top_k is None and space != "threshold":
        near = _near_best(params, space)
        if near is not None:
            best_eta = max(eta for _, eta in near)
            best_policy = next(d for d, eta in near if eta == best_eta)
            return OptimizationResult(best_policy, best_eta, space, total)
    merged, = _rankings(params, space, top_k or 1, [params.price])

    ranking = None
    if top_k:
        ranking = [(policy, -neg) for neg, policy in merged]
    return OptimizationResult(
        best_policy=merged[0][1], best_eta=-merged[0][0], space=space,
        evaluations=total, ranking=ranking,
    )


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


def price_sweep(params: ModelParams, r_grid: Sequence[float],
                space: str = "full", allow_large: bool = False):
    """The optimal policy at every price of a grid, with regime labels.

    Returns (rows, crit) where each row is (R, best policy, eta,
    per-level critical prices of that policy, regime label, crossing
    note) and crit carries the R_H / R_L thresholds of the space. The grid
    is checked once, before anything is computed, and the whole grid is
    searched in one walk down the enumeration tree (a few walks where a
    large space and a long grid would not fit in memory at once): each
    row's policy and eta equal those of optimize at its price, bit for bit.
    As a sanity check, eta is reconciled against the affine form
    R * completion_rate - cost_rate of the winning policy on every grid
    point; a mismatch raises ConsistencyError.
    """
    grid = _price_grid(r_grid)
    # One validate covers every grid price; critical_prices_global makes it
    # and gates the space as optimize does. Its roots do not depend on R.
    crit = critical_prices_global(replace(params, price=grid[0]), space,
                                  allow_large=allow_large)
    bests = _rankings(params, space, 1, grid)

    # affine pieces and per-level critical prices per winning policy,
    # computed once each: none of them depends on the price
    pieces: dict[tuple, tuple[float, float, tuple[float, ...]]] = {}
    rows = []
    prev_regime = None
    for r, [(neg_eta, d)] in zip(grid, bests):
        eta = -neg_eta
        if d not in pieces:
            sol = stationary_closed_form(params, d)
            crits = perturbation_factors(params, d).crit_prices
            pieces[d] = (*profit_components(sol, affine_decomposition(params, d)),
                         tuple(float(x) for x in crits))
        completions, cost, crits = pieces[d]
        affine = r * completions - cost
        tol = 1e-9 * max(1.0, abs(eta))
        if completions < -1e-15 or abs(affine - eta) > tol:
            raise ConsistencyError(
                f"price sweep: eta at R={r:.6g} deviates from the affine "
                f"form ({eta!r} vs {affine!r})"
            )
        if not math.isnan(crit.r_high) and r >= crit.r_high:
            regime = "high"
        elif not math.isnan(crit.r_low) and r <= crit.r_low:
            regime = "low"
        else:
            regime = "mid"
        crossing = ""
        if prev_regime is not None and regime != prev_regime:
            boundary = "R_H" if "high" in (regime, prev_regime) else "R_L"
            crossing = f"crosses {boundary}"
        prev_regime = regime
        rows.append((r, d, eta, crits, regime, crossing))
    return rows, crit


def optimal_extreme_prices(params: ModelParams, regime: str,
                           crit=None, allow_large: bool = False,
                           ) -> tuple[Policy, float]:
    """Closed-form optimal policy when the price clears a critical value.

    regime "high" requires price >= R_H and yields the all-awake ladder
    (1,...,m); regime "low" requires price <= R_L and yields all-asleep.
    crit may carry precomputed critical prices; otherwise they are
    computed over the full space (gated at m <= 8, as optimize is). The
    closed form is the policy; its eta is that policy's policy_profit, so
    weights that overflow raise NumericalError there.
    """
    require_valid(params)
    if regime not in ("high", "low"):
        raise ValueError(f"regime must be 'high' or 'low', got {regime!r}")
    if crit is None:
        crit = critical_prices_global(params, "full", allow_large=allow_large)
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
    _, low_profit, low_weight, xi_n, ratios, rates = _level_tables(
        params, levels, [params.price])
    tables, above = _pairs(ratios, rates), slice(j + m, None)
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
