"""Policy search by exact enumeration, plus structural checks.

Every policy's average profit has a closed form (stationary weights are
products of birth/death ratios), so optimization over the supported policy
spaces is exact enumeration with a deterministic lexicographic tie-break.
Policies are unranked from indices in vectorized blocks; nothing is ever
materialized policy-by-policy in Python except the threshold family.

The module also houses the structural results that make enumeration mostly
unnecessary: closed-form optima at extreme prices, the threshold-policy
scan with its optimality sign conditions, and per-coordinate monotonicity
checks (profit is affine in a coordinate above its level and monotone
below it when the price clears the critical values).
"""

from __future__ import annotations

import heapq
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .chain import ChainSolution, stationary_closed_form
from .errors import NumericalError, RegimeError
from .model import (
    ModelParams,
    Policy,
    check_policy,
    enumerate_policies,
    policy_space_size,
    require_valid,
    threshold_policy,
)
from .reward import policy_profit

#: Policies evaluated per vectorized block.
BLOCK_SIZE = 65536


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


def _space_radices(m: int, space: str) -> list[int]:
    if space == "full":
        return [m + 1] * m
    if space == "reduced":
        return [j + 1 for j in range(1, m + 1)]
    if space == "bang_bang":
        return [2] * m
    raise ValueError(f"space {space!r} has no radix form")


def _policy_block(m: int, space: str, start: int, stop: int) -> np.ndarray:
    """Policies with ranks [start, stop) as an integer array, in lex order.

    Rank digits are mixed-radix with the last coordinate least significant,
    matching the order enumerate_policies yields.
    """
    if space == "threshold":
        block = np.array([threshold_policy(m, t) for t in range(1, m + 2)],
                         dtype=np.int64)
        return block[start:stop]
    radices = _space_radices(m, space)
    idx = np.arange(start, stop, dtype=np.int64)
    block = np.empty((idx.shape[0], m), dtype=np.int64)
    for k in range(m - 1, -1, -1):
        block[:, k] = idx % radices[k]
        idx //= radices[k]
    if space == "bang_bang":
        block *= np.arange(1, m + 1, dtype=np.int64)
    return block


@dataclass(frozen=True)
class _BlockChain:
    """Stationary weights and reward pieces of each policy row of a block.

    The states (i, 0) are shared by every row: xi_low are their
    unnormalized weights, jobs_low = i, and cost_low their cost rates; their
    completion rate is i*mu1. The levels (n, j) get one row per policy:
    xi_top, the service rates nu (which are also the completion rates) and
    cost_top. A state's profit rate is price * completion rate - cost.
    """

    xi_low: np.ndarray
    jobs_low: np.ndarray
    cost_low: np.ndarray
    xi_top: np.ndarray
    nu: np.ndarray
    cost_top: np.ndarray


def _block_chain(params: ModelParams, block: np.ndarray) -> _BlockChain:
    """Closed-form chain of each policy row of block, vectorized.

    Same closed form as stationary_closed_form and affine_decomposition:
    weights by cumulative birth/death ratios, raw-coordinate energy and
    clamped service rates.
    """
    block = np.asarray(block, dtype=np.int64)
    if block.ndim != 2 or block.shape[1] != params.m:
        raise ValueError(f"expected (batch, {params.m}) policy array")
    if block.size and (block.min() < 0 or block.max() > params.m):
        raise ValueError(f"policy entries must lie in 0..{params.m}")
    n, m = params.n, params.m
    lam, mu1, mu2 = params.lambda_, params.mu1, params.mu2

    i_arr = np.arange(n + 1, dtype=np.float64)
    ratios_low = np.ones(n + 1)
    ratios_low[1:] = lam / (np.arange(1, n + 1) * mu1)
    xi_low = np.cumprod(ratios_low)

    j_arr = np.arange(1, m + 1, dtype=np.float64)
    clamped = np.minimum(block, np.arange(1, m + 1, dtype=np.int64))
    nu = n * mu1 + clamped * mu2
    xi_top = xi_low[n] * np.cumprod(lam / nu, axis=1)

    base_energy = (n * params.p1_work + m * params.p2_sleep) * params.c_energy
    energy = (n * params.p1_work + block * params.p2_work
              + (m - block) * params.p2_sleep) * params.c_energy
    hold = n * params.c_hold_g1 + j_arr * params.c_hold_g2
    cost = energy + hold + n * mu1 * params.c_transfer
    cost[:, m - 1] += lam * params.c_loss
    return _BlockChain(xi_low=xi_low, jobs_low=i_arr,
                      cost_low=base_energy + i_arr * params.c_hold_g1,
                      xi_top=xi_top, nu=nu, cost_top=cost)


def profits_block(params: ModelParams, block: np.ndarray) -> np.ndarray:
    """Average profit for each policy row of block, vectorized.

    Same closed form as policy_profit, through _block_chain.
    """
    chain = _block_chain(params, block)
    f_low = params.price * chain.jobs_low * params.mu1 - chain.cost_low
    f_top = params.price * chain.nu - chain.cost_top
    total = chain.xi_low.sum() + chain.xi_top.sum(axis=1)
    return (chain.xi_low @ f_low + (chain.xi_top * f_top).sum(axis=1)) / total


def evaluate_policies(params: ModelParams, policies) -> np.ndarray:
    """Average profit for an explicit iterable of policies."""
    block = np.array([check_policy(d, params.m) for d in policies],
                     dtype=np.int64)
    if block.size == 0:
        return np.empty(0)
    return profits_block(params, block)


def _chunk_summary(block, etas, top_k):
    best = float(np.max(etas))
    ties = np.flatnonzero(etas == best)
    best_policy = min(tuple(int(v) for v in block[t]) for t in ties)
    ranking = None
    if top_k:
        count = min(top_k, etas.shape[0])
        part = np.argpartition(-etas, count - 1)[:count]
        ranking = [(-float(etas[t]), tuple(int(v) for v in block[t]))
                   for t in part]
    return best, best_policy, ranking


def optimize(params: ModelParams, space: str = "full",
             allow_large: bool = False, top_k: int | None = None,
             threads: int | None = None) -> OptimizationResult:
    """Exact argmax of the average profit over a policy space.

    Ties in eta resolve to the lexicographically smallest policy. top_k
    (at least 1) requests a ranking of the best policies. threads > 1
    evaluates blocks concurrently; the reduction is order-independent, so
    results are identical either way.
    """
    require_valid(params)
    if top_k is not None and top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    enumerate_policies(params.m, space, allow_large=allow_large)  # gate check
    total = policy_space_size(params.m, space)

    starts = range(0, total, BLOCK_SIZE)

    def work(start):
        block = _policy_block(params.m, space, start, min(start + BLOCK_SIZE, total))
        return _chunk_summary(block, profits_block(params, block), top_k)

    if threads and threads > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            summaries = list(pool.map(work, starts))
    else:
        summaries = map(work, starts)

    best_eta = -np.inf
    best_policy = None
    merged: list[tuple[float, Policy]] = []
    for eta, policy, ranking in summaries:
        if eta > best_eta or (eta == best_eta and policy < best_policy):
            best_eta, best_policy = eta, policy
        if top_k:
            merged = heapq.nsmallest(top_k, merged + ranking)

    result_ranking = None
    if top_k:
        result_ranking = [(policy, -neg) for neg, policy in merged]
    return OptimizationResult(
        best_policy=best_policy, best_eta=best_eta, space=space,
        evaluations=total, ranking=result_ranking,
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
        from .sensitivity import critical_prices_global

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


def threshold_stationary(params: ModelParams, theta: int) -> ChainSolution:
    """Stationary law of the threshold policy d_theta, two-segment form.

    Below the threshold the top levels are a geometric run in
    lam/(n*mu1); from theta upward each level multiplies in
    lam/(n*mu1 + i*mu2). Written with explicit powers as an independent
    route to the generic ratio recursion.
    """
    if not 1 <= theta <= params.m + 1:
        raise ValueError(f"theta must be in 1..{params.m + 1}, got {theta}")
    n, m = params.n, params.m
    lam, mu1, mu2 = params.lambda_, params.mu1, params.mu2

    xi = np.empty(n + m + 1)
    i_arr = np.arange(n + 1)
    factorials = np.cumprod(np.concatenate([[1.0], np.arange(1, n + 1)]))
    xi[:n + 1] = (lam / mu1) ** i_arr / factorials

    geo = lam / (n * mu1)
    for j in range(1, m + 1):
        if j < theta:
            xi[n + j] = xi[n] * geo ** j
        else:
            awake = np.prod(lam / (n * mu1 + np.arange(theta, j + 1) * mu2))
            xi[n + j] = xi[n] * geo ** (theta - 1) * awake
    b = float(xi.sum())
    return ChainSolution(pi=xi / b, xi=xi, b=b)


def threshold_scan(params: ModelParams) -> ThresholdResult:
    """Profit of every threshold policy and the sign conditions at theta*.

    theta* is the minimal maximizer. The sign triple is evaluated with
    boundary terms skipped (NaN): the theta*-1 term needs theta* > 1, the
    theta* and theta*+1 terms need their level to exist (<= m).
    """
    require_valid(params)
    from .sensitivity import price_constant, realization_factors

    m = params.m
    block = _policy_block(m, "threshold", 0, m + 1)
    etas = profits_block(params, block)
    theta_star = 1 + int(np.argmax(etas))
    c = price_constant(params)

    def value(theta: int, level: int) -> float:
        prf = realization_factors(params, threshold_policy(m, theta))
        return float(prf[level - 1] + c)

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
