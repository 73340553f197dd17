"""Policy search by exact enumeration, plus structural checks.

Every policy's average profit has a closed form (stationary weights are
products of birth/death ratios), so optimization over the supported policy
spaces is exact enumeration with a deterministic lexicographic tie-break.
The full, reduced and bang-bang spaces are products of per-level value
sets, so the search walks their lexicographic enumeration tree one level
at a time: policies that share their first j coordinates share the
partial weight product and profit sums of those levels, and only the
winning ranks are unranked back into policies. The threshold family is
evaluated as one block.

The module also houses the structural results that make enumeration mostly
unnecessary: closed-form optima at extreme prices, the threshold-policy
scan with its optimality sign conditions, and per-coordinate monotonicity
checks (profit is affine in a coordinate above its level and monotone
below it when the price clears the critical values).
"""

from __future__ import annotations

import functools
import heapq
import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .chain import _block_chain, _profit_rates, stationary_closed_form
from .errors import NumericalError, RegimeError
from .model import (
    BLOCK_SIZE,
    ModelParams,
    Policy,
    _gated_size,
    _level_values,
    _policy_block,
    check_policy,
    require_valid,
    threshold_policy,
)
from .reward import policy_profit
from .sensitivity import critical_prices_global, price_constant, realization_factors


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of an enumeration run.

    best_policy is the lexicographically smallest maximizer; evaluations
    counts enumerated policies; ranking (optional) lists the top policies
    as (policy, eta) pairs, best first.
    """

    best_policy: Policy
    best_eta: float
    space: str
    evaluations: int
    ranking: list[tuple[Policy, float]] | None = None


@dataclass(frozen=True)
class ThresholdResult:
    """Scan of the threshold family d_theta, theta = 1..m+1.

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

    def __post_init__(self):
        self.eta_by_theta.setflags(write=False)


@dataclass(frozen=True)
class MonotonicityReport:
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

    def __post_init__(self):
        self.values.setflags(write=False)
        self.etas.setflags(write=False)


def profits_block(params: ModelParams, block: np.ndarray) -> np.ndarray:
    """Average profit for each policy row of block, vectorized.

    Same closed form as policy_profit, through _block_chain.
    """
    chain = _block_chain(params, block)
    low_profit, low_weight, f_top = _profit_rates(params, chain)
    return ((low_profit + (chain.xi_top * f_top).sum(axis=1))
            / (low_weight + chain.xi_top.sum(axis=1)))


def _chunk_summary(etas, ranks, policy_of, k):
    """The k best (-eta, policy) pairs of a chunk of rows.

    ranks(rows) gives the lexicographic rank of each row index and
    policy_of(rank) the policy; only the winners are unranked. Rows are
    ordered by eta descending, then rank ascending, so merging summaries
    with heapq.nsmallest ranks by eta descending, then policy ascending,
    however the rows were split into chunks.
    """
    low, cut = etas.min(), etas.max()
    if not (np.isfinite(low) and np.isfinite(cut)):  # NaN reaches both
        raise NumericalError(
            "profits are not finite; the stationary weights overflow at "
            "this load"
        )
    count = min(k, etas.size)
    if count > 1:
        cut = np.partition(etas, etas.size - count)[etas.size - count]
    top = np.flatnonzero(etas >= cut)
    rank = ranks(top)
    order = np.lexsort((rank, -etas[top]))[:count]
    return [(-float(etas[top[t]]), tuple(int(v) for v in policy_of(rank[t])))
            for t in order]


def _product_candidates(params: ModelParams, space: str, k: int,
                        threads: int | None) -> list[tuple[float, Policy]]:
    """The _chunk_summary of every chunk of a product space, concatenated.

    Policies that share their first j coordinates share the first j factors
    of the weight product P (cumulative lambda/nu) and the first j terms of
    S = sum xi f and W = sum xi, with xi = xi_low[n] P. So the enumeration
    tree is grown one level at a time: each level multiplies every prefix's
    P by its values' lambda/nu and adds their terms. These are the
    operations of profits_block in its order, except that numpy sums rows
    longer than 7 pairwise, so from m = 8 on the last bits can differ. A
    level's values form the leading axis, so every operation runs along the
    contiguous prefix axis. The levels above a split are built once and put
    in rank order; each chunk grows a run of split-level prefixes into at
    most BLOCK_SIZE leaves, which are consecutive ranks.
    """
    m = params.m
    levels = _level_values(m, space)
    # Row v holds each level's v-th value (0 past the end), so the chain's
    # nu and cost_top are the rates of every (value, level) pair; its
    # xi_top is not used.
    table = np.zeros((max(v.size for v in levels), m), dtype=np.int64)
    for j, values in enumerate(levels):
        table[:values.size, j] = values
    chain = _block_chain(params, table)
    low_profit, low_weight, f_top = _profit_rates(params, chain)
    xi_n = chain.xi_low[params.n]
    steps = [(params.lambda_ / chain.nu[:v.size, j], f_top[:v.size, j])
             for j, v in enumerate(levels)]

    def grow(state, j, out):
        """Level j's (P, S, W) from level j-1's, written into out's rows."""
        prod, profit, weight = state
        ratio, f = steps[j]
        shape = (ratio.size, prod.size)
        new_prod, term, xi = (row[:ratio.size * prod.size].reshape(shape)
                              for row in out)
        np.multiply.outer(ratio, prod, out=new_prod)
        np.multiply(new_prod, xi_n, out=xi)
        np.multiply(xi, f[:, None], out=term)
        term += profit
        xi += weight
        return new_prod.ravel(), term.ravel(), xi.ravel()

    split, leaves = m, 1
    while split > 1 and leaves * levels[split - 1].size <= BLOCK_SIZE:
        split -= 1
        leaves *= levels[split].size
    prefix = (np.ones(1), np.zeros(1), np.zeros(1))
    for j in range(split):
        prefix = grow(prefix, j, np.empty((3, prefix[0].size * levels[j].size)))
    shape = [levels[j].size for j in reversed(range(split))]
    prefix = [a.reshape(shape).transpose().ravel() for a in prefix]
    per = BLOCK_SIZE // leaves

    def run(starts):
        # Fresh chunk-sized arrays cost page faults in every chunk, so a
        # worker grows its chunks in two reused buffer sets, one per level
        # parity, and forms eta in the set the last level left free.
        work = np.empty((2, 3, per * leaves))
        candidates = []
        # The caller's np.errstate does not reach pool threads.
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in starts:
                state = tuple(a[lo:lo + per] for a in prefix)
                width = state[0].size
                for j in range(split, m):
                    state = grow(state, j, work[j % 2])
                size = state[0].size
                etas, total = work[m % 2, 0, :size], work[m % 2, 1, :size]
                np.add(state[1], low_profit, out=etas)
                np.add(state[2], low_weight, out=total)
                etas /= total

                def ranks(rows):
                    # Row digits, least significant first: the prefix, then
                    # levels split..m-1 with falling rank place values.
                    rank = (lo + rows % width) * leaves
                    rows = rows // width
                    place = leaves
                    for j in range(split, m):
                        place //= levels[j].size
                        rank += rows % levels[j].size * place
                        rows //= levels[j].size
                    return rank

                candidates += _chunk_summary(
                    etas, ranks,
                    lambda r: _policy_block(m, space, r, r + 1)[0], k)
        return candidates

    starts = range(0, prefix[0].size, per)
    workers = min(threads or 1, len(starts))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = pool.map(run, (starts[t::workers] for t in range(workers)))
            return list(itertools.chain.from_iterable(parts))
    return run(starts)


def optimize(params: ModelParams, space: str = "full",
             allow_large: bool = False, top_k: int | None = None,
             threads: int | None = None) -> OptimizationResult:
    """Exact argmax of the average profit over a policy space.

    Ties in eta resolve to the lexicographically smallest policy. top_k
    (at least 1) requests a ranking of the best policies by eta descending,
    ties by policy ascending, so ranking[0] is always best_policy. The full,
    reduced and bang-bang spaces are evaluated down their enumeration tree
    in chunks of at most BLOCK_SIZE policies; threads > 1 evaluates chunks
    concurrently. No result depends on the chunking or the threads. A
    non-finite profit (the stationary weights overflow under heavy load)
    raises NumericalError.
    """
    require_valid(params)
    if top_k is not None and top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    total = _gated_size(params.m, space, allow_large)
    k = top_k or 1

    # Overflow and NaN are caught by _chunk_summary's finiteness check.
    with np.errstate(over="ignore", invalid="ignore"):
        if space == "threshold":
            # Falling theta is lexicographic order.
            block = _policy_block(params.m, space, 0, total)[::-1]
            candidates = _chunk_summary(profits_block(params, block),
                                        lambda rows: rows, block.__getitem__, k)
        else:
            candidates = _product_candidates(params, space, k, threads)
    merged = heapq.nsmallest(k, candidates)

    ranking = None
    if top_k:
        ranking = [(policy, -neg) for neg, policy in merged]
    return OptimizationResult(
        best_policy=merged[0][1], best_eta=-merged[0][0], space=space,
        evaluations=total, ranking=ranking,
    )


def _extreme_closed_form(params: ModelParams, regime: str) -> tuple[Policy, float]:
    """The displayed closed-form optimum for an extreme-price regime.

    regime "high": d* = (1,...,m), death rates n*mu1 + j*mu2; regime
    "low": d* = (0,...,0), death rates n*mu1 and all group-2 servers
    asleep. Written out term by term, independent of the generic
    evaluator, so the two can be cross-checked.
    """
    n, m = params.n, params.m
    lam, mu1, mu2 = params.lambda_, params.mu1, params.mu2
    r = params.price

    xi_low = np.cumprod(np.concatenate(
        [[1.0], lam / (np.arange(1, n + 1) * mu1)]))
    base_energy = (n * params.p1_work + m * params.p2_sleep) * params.c_energy
    i_arr = np.arange(n + 1)
    f_low = r * i_arr * mu1 - (base_energy + i_arr * params.c_hold_g1)

    j_arr = np.arange(1, m + 1)
    if regime == "high":
        d_star: Policy = tuple(range(1, m + 1))
        nu = n * mu1 + j_arr * mu2
        energy = (n * params.p1_work + j_arr * params.p2_work
                  + (m - j_arr) * params.p2_sleep) * params.c_energy
    else:
        d_star = (0,) * m
        nu = np.full(m, n * mu1, dtype=np.float64)
        energy = np.full(m, base_energy)
    xi_top = xi_low[n] * np.cumprod(lam / nu)
    cost = (energy + n * params.c_hold_g1 + j_arr * params.c_hold_g2
            + n * mu1 * params.c_transfer)
    cost[m - 1] += lam * params.c_loss
    f_top = r * nu - cost

    eta = (xi_low @ f_low + xi_top @ f_top) / (xi_low.sum() + xi_top.sum())
    return d_star, float(eta)


def optimal_extreme_prices(params: ModelParams, regime: str,
                           crit=None, allow_large: bool = False,
                           ) -> tuple[Policy, float]:
    """Closed-form optimal policy when the price clears a critical value.

    regime "high" requires price >= R_H and yields the all-awake ladder
    (1,...,m); regime "low" requires price <= R_L and yields all-asleep.
    crit may carry precomputed critical prices; otherwise they are
    computed over the full space (gated at m <= 8, as optimize is). The
    closed-form eta is cross-checked against generic evaluation to 1e-10.
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

    d_star, eta = _extreme_closed_form(params, regime)
    generic = policy_profit(params, d_star)
    if abs(eta - generic) > 1e-10 * max(1.0, abs(generic)):
        raise NumericalError(
            f"closed-form eta {eta!r} disagrees with generic {generic!r}"
        )
    return d_star, eta


def threshold_scan(params: ModelParams) -> ThresholdResult:
    """Profit of every threshold policy and the sign conditions at theta*.

    theta* is the minimal maximizer. The sign triple is evaluated with
    boundary terms skipped (NaN): the theta*-1 term needs theta* > 1, the
    theta* and theta*+1 terms need their level to exist (<= m).
    """
    require_valid(params)
    m = params.m
    block = _policy_block(m, "threshold", 0, m + 1)
    etas = profits_block(params, block)
    theta_star = 1 + int(np.argmax(etas))
    c = price_constant(params)

    @functools.cache
    def factors(theta: int) -> np.ndarray:
        return realization_factors(params, threshold_policy(m, theta))

    def value(theta: int, level: int) -> float:
        return float(factors(theta)[level - 1] + c)

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
    with strictness margin 1e-12 * max(1, |eta|).
    """
    require_valid(params)
    check_policy(d, params.m)
    if not 1 <= j <= params.m:
        raise ValueError(f"j={j} outside 1..{params.m}")
    m = params.m

    block = np.tile(np.asarray(d, dtype=np.int64), (m + 1, 1))
    block[:, j - 1] = np.arange(m + 1)
    etas = profits_block(params, block)

    pi = stationary_closed_form(params, tuple(int(v) for v in block[j]))
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
