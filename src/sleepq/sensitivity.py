"""Perturbation realization factors, critical prices, difference formulas.

The realization factor G(n,j) = g(n,j-1) - g(n,j) measures the profit
effect of moving one queued job down a level; together with the constant
c = R - (P2W - P2S) C1 / mu2 it carries the whole dependence of the
average profit on single policy coordinates:

    eta' - eta = mu2 * pi'(n,j) * (d'_j - d_j) * [G(n,j) + c],

valid when both coordinate values lie in {0..j} (above j the service rate
saturates while the energy draw keeps rising, and the closed form no
longer matches the general difference equation).

On this birth-death chain the RG-factorization of the Poisson equation
collapses to a scalar recursion. With D_K = g_K - g_{K+1} over the states
K = 0..N (N = n + m) and nu_K the death rate of state K, balance at each
state gives it from either end of the chain: the tail recursion

    D_{N-1} = (eta - f_N) / nu_N,
    D_{K-1} = (lambda * D_K + eta - f_K) / nu_K,

and the head recursion

    D_{-1} = 0,
    D_K = (nu_K * D_{K-1} - (eta - f_K)) / lambda,

and G(n,j) = D_{n+j-1}. They are the two forms of the cut identity
lambda pi_K D_K = -sum_{i<=K} pi_i (eta - f_i) = sum_{i>K} pi_i (eta - f_i),
and each multiplies an error by a ratio of stationary probabilities on its
way, which stays below 1 only while it runs toward the mass. So each cut
K takes the side with less mass: the head recursion while the head mass
sum_{i<=K} pi_i is at most 1/2, the tail recursion above the median.
Under heavy load pi rises over most levels, and the tail recursion alone
would lose a digit per level there. No stationary probability is divided
by, and no Poisson equation is solved. One body (_lines) runs the
recursions for one policy and for a whole block of policies at once, so a
policy's factors are bit for bit its row of any block.

f = R*a - b, so G and G + c are affine in the price R: the per-state
critical price (the root of G + c) and its R-slope come from the same
recursion. Maximizing and minimizing the roots over a policy space gives
the global prices R_H and R_L that delimit the all-awake and all-asleep
optimal regimes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .chain import (
    PolicyRecord,
    _block_rates,
    _generator,
    _policy_record,
    _require_finite,
    _stationary,
    _weights,
    stationary_closed_form,
)
from .errors import ConsistencyError, DegeneratePriceError
from .model import (
    BLOCK_SIZE,
    ModelParams,
    Policy,
    ReadOnlyRecord,
    _check_count,
    _gated_size,
    _space_block,
    require_valid,
)
from .potential import _band_product, solve_poisson
from .reward import _reward

#: Below this magnitude a G+c value or an R-slope is treated as degenerate.
DEGENERATE_EPS = 1e-12


@dataclass(frozen=True)
class SensitivityReport(ReadOnlyRecord):
    """Realization factors and critical prices of one policy.

    prf[j-1] = G(n,j); crit_prices[j-1] is the root of G(n,j)+c in R (NaN
    where the R-slope is degenerate); signs[j-1] = sign(G(n,j)+c) at the
    instance's own price.
    """

    prf: np.ndarray
    c: float
    crit_prices: np.ndarray
    signs: np.ndarray


@dataclass(frozen=True)
class CriticalPrices:
    """Global critical prices over a policy space.

    r_high = max{0, roots}; r_low = min{roots}. exact is True only when the
    full space was enumerated.
    """

    r_high: float
    r_low: float
    search_space: str
    exact: bool


@dataclass(frozen=True)
class SignConservationReport:
    """Both sides of the sign-conservation ratio for one coordinate change.

    ratio = [G^d(n,j)+c] / [G^d'(n,j)+c]; pi_ratio is the stationary
    probability ratio it must equal. degenerate marks near-zero G+c values
    where the ratio is not testable.
    """

    ratio: float
    pi_ratio: float
    rel_error: float
    degenerate: bool
    value_d: float
    value_d_prime: float


def _wake_cost(params: ModelParams) -> float:
    """k = (P2W - P2S) C1 / mu2, so that c = R - k."""
    return (params.p2_work - params.p2_sleep) * params.c_energy / params.mu2


def price_constant(params: ModelParams) -> float:
    """c = R - (P2W - P2S) C1 / mu2."""
    return params.price - _wake_cost(params)


def _price_roots(params: ModelParams, intercept: np.ndarray,
                 slope: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-level roots of G + c in the price, and the R-slope of G + c.

    G + c = R * (1 + slope) + (intercept - k); roots are NaN where the
    R-slope is below DEGENERATE_EPS in magnitude.
    """
    r_slope = 1.0 + slope
    degenerate = np.abs(r_slope) < DEGENERATE_EPS
    roots = (_wake_cost(params) - intercept) / np.where(degenerate, 1.0, r_slope)
    return np.where(degenerate, np.nan, roots), r_slope


def _lines(params: ModelParams, death: list, cost: list,
           ) -> tuple[np.ndarray, np.ndarray]:
    """(intercept, slope) of G(n,j) = price * slope + intercept, j = 1..m.

    death and cost are the per-state rates of _state_rates. Each level
    entry is a float for one policy, or a level's array for a block with
    one entry per policy row; every operation is elementwise, so a row gets
    the bits of its policy alone. The weights come from _weights, as
    _stationary's do, and are normalized before they weight the
    rates, and every sum runs state by state. The recursions of the module
    docstring then run on the two affine parts of eta - f = R (A - a) +
    (b - B), where A = pi . a and B = pi . b: the head recursion at the
    cuts whose head mass (the running sum of the weights) is at most half
    the total, the tail recursion at the others. Each runs only over its
    own cuts, the head from state 0 up and the tail from the top state
    down; a block runs each over the cuts where any row takes it and
    selects per row where both run. A normalizer or a line that is not
    finite (the weights overflow under heavy load) raises NumericalError.
    The lines have shape (m,) for one policy and (m, rows) for a block.
    """
    lam = params.lambda_
    weights = _weights(lam, death)
    heads = list(itertools.accumulate(weights))
    total = heads[-1]
    _require_finite(total, "realization factors")
    completion_rate = cost_rate = 0.0
    for weight, rate, state_cost in zip(weights, death, cost):
        share = weight / total
        completion_rate = completion_rate + share * rate
        cost_rate = cost_rate + share * state_cost
    n, top = params.n, len(death) - 1
    # The number of cuts K that take the head side, per row; the head mass
    # only grows with K, so they are the first ones. Below cut n no line
    # is kept, so the count starts there.
    half = 0.5 * total
    head_cuts = n + sum(mass <= half for mass in heads[n:-1])
    # One policy's count is a Python int: its path makes no numpy call.
    if isinstance(head_cuts, int):
        first = last = head_cuts
    else:
        first, last = int(head_cuts.min()), int(head_cuts.max())
    intercept, slope = [None] * (top - n), [None] * (top - n)
    below_i = below_s = 0.0
    for j in range(top, first, -1):
        rate = death[j]
        below_i = (lam * below_i + (cost[j] - cost_rate)) / rate
        below_s = (lam * below_s + (completion_rate - rate)) / rate
        intercept[j - 1 - n], slope[j - 1 - n] = below_i, below_s
    above_i = above_s = 0.0
    for j in range(last if last > n else 0):
        rate = death[j]
        above_i = (rate * above_i - (cost[j] - cost_rate)) / lam
        above_s = (rate * above_s - (completion_rate - rate)) / lam
        if j < n:
            continue
        if j < first:
            intercept[j - n], slope[j - n] = above_i, above_s
        else:
            head = j < head_cuts
            intercept[j - n] = np.where(head, above_i, intercept[j - n])
            slope[j - n] = np.where(head, above_s, slope[j - n])
    lines = np.array([intercept, slope])
    _require_finite(lines, "realization factors")
    return lines[0], lines[1]


def _factor_lines(params: ModelParams, levels, digits: np.ndarray,
                  ) -> tuple[np.ndarray, np.ndarray]:
    """(intercept, slope) of G(n,j) for each policy row of a block.

    Each of shape (rows, m): _lines on chain._block_rates of the block
    (levels, digits), one array per level with an entry per row.
    """
    death, cost = _block_rates(params, levels, digits)
    # Overflow and NaN in the rows are caught by _lines' finiteness checks.
    with np.errstate(over="ignore", invalid="ignore"):
        intercept, slope = _lines(params, death, cost)
    return intercept.T, slope.T


def _policy_lines(params: ModelParams, d: Policy) -> tuple[np.ndarray, np.ndarray]:
    """(intercept, slope) of G(n,j) for one policy, each of shape (m,).

    _lines on the Python floats of the policy record: a 1-row block is
    slower.
    """
    return _policy_record(params, d).value(_record_lines)


def _record_lines(record: PolicyRecord) -> tuple[np.ndarray, np.ndarray]:
    """_lines of a policy record, read-only, as the record shares them."""
    lines = _lines(record.params, record.death, record.cost)
    for line in lines:
        line.setflags(write=False)
    return lines


def realization_factors(params: ModelParams, d: Policy) -> np.ndarray:
    """G(n,j) = g(n,j-1) - g(n,j) for j = 1..m (anchor-free)."""
    intercept, slope = _policy_lines(params, d)
    return params.price * slope + intercept


def _factor_plus_c(params: ModelParams, d: Policy, j: int) -> np.float64:
    """G(n,j) + c of policy d at the instance's price."""
    return realization_factors(params, d)[j - 1] + price_constant(params)


def perturbation_factors(params: ModelParams, d: Policy) -> SensitivityReport:
    """Realization factors, critical prices, and signs for one policy."""
    intercept, slope = _policy_lines(params, d)
    prf = params.price * slope + intercept
    c = price_constant(params)
    crit, _ = _price_roots(params, intercept, slope)
    return SensitivityReport(prf=prf, c=c, crit_prices=crit,
                             signs=np.sign(prf + c))


def critical_price_state(params: ModelParams, d: Policy, j: int) -> float:
    """The price at which G(n,j) + c crosses zero under policy d.

    G + c is affine in R, so the root is (k - G|_{R=0}) / (1 + dG/dR) with
    k = (P2W - P2S) C1 / mu2. A j that is not an integer in 1..m raises
    ValueError.
    """
    _check_count(j, f"j must be an integer in 1..{params.m}", params.m)
    intercept, slope = _policy_lines(params, d)
    roots, r_slope = _price_roots(params, intercept, slope)
    if np.isnan(roots[j - 1]):
        sign = np.sign(intercept[j - 1] - _wake_cost(params))
        raise DegeneratePriceError(
            f"G(n,{j})+c has no price crossing (R-slope {r_slope[j - 1]:.3e}); "
            f"its sign is {sign:+.0f} at every price"
        )
    return float(roots[j - 1])


def critical_prices_global(params: ModelParams, space: str = "full",
                           allow_large: bool = False) -> CriticalPrices:
    """R_H and R_L over a policy space.

    R_H = max{0, roots of G+c over all policies and levels}; R_L is the
    minimum root. Degenerate (no-crossing) levels are skipped. Policies are
    unranked by model._space_block in blocks of BLOCK_SIZE, each a block
    (levels, digits) of the space. params are validated, and each space
    gated, as optimize validates and gates them.
    """
    require_valid(params)
    total = _gated_size(params.m, space, allow_large)

    r_high = 0.0
    r_low = np.inf
    for start in range(0, total, BLOCK_SIZE):
        chunk = np.arange(start, min(start + BLOCK_SIZE, total))
        lines = _factor_lines(params, *_space_block(params.m, space, chunk))
        roots, _ = _price_roots(params, *lines)
        roots = roots[~np.isnan(roots)]
        if roots.size:
            r_high = max(r_high, float(roots.max()))
            r_low = min(r_low, float(roots.min()))
    if r_low == np.inf:  # every level degenerate
        r_low = np.nan
    return CriticalPrices(r_high=float(r_high), r_low=float(r_low),
                          search_space=space, exact=(space == "full"))


def performance_difference(params: ModelParams, d: Policy,
                           d_prime: Policy) -> float:
    """eta' - eta via the general difference equation.

    Returns pi'[(B' - B) g + (f' - f)] with g the potential of d; the
    anchor drops out because (B' - B) has zero row sums. g, B, f and pi'
    come from the policy records, one scalar pass per policy.
    """
    record, record_p = _policy_record(params, d), _policy_record(params, d_prime)
    sol = solve_poisson(params, d)
    b, b_prime = record.value(_generator), record_p.value(_generator)
    change = (b_prime.sub - b.sub, b_prime.diag - b.diag, b_prime.sup - b.sup)
    f = record.value(_reward)
    f_prime = record_p.value(_reward)
    pi_prime = record_p.value(_stationary).pi
    return float(pi_prime @ (_band_product(*change, sol.g) + (f_prime - f)))


def _single_change_level(params: ModelParams, d: Policy, d_prime: Policy,
                         j: int | None = None) -> tuple[int, Policy, Policy]:
    """(j, d, d_prime): the 1-based level where the checked int tuples of
    d and d_prime differ (and nowhere else), and those tuples: each policy
    record's own, so the calls that follow find the records unchecked."""
    d = _policy_record(params, d).policy
    d_prime = _policy_record(params, d_prime).policy
    diffs = [i + 1 for i in range(params.m) if d[i] != d_prime[i]]
    if len(diffs) > 1:
        raise ValueError(f"policies differ at levels {diffs}, expected one")
    if j is None:
        if not diffs:
            raise ValueError("policies are identical; no changed level")
        j = diffs[0]
    elif diffs and diffs != [j]:
        raise ValueError(f"policies differ at level {diffs[0]}, not {j}")
    if d[j - 1] > j or d_prime[j - 1] > j:
        raise ValueError(
            f"closed form needs both coordinate values in 0..{j}; "
            f"got {d[j - 1]} and {d_prime[j - 1]} at level {j}"
        )
    return j, d, d_prime


def single_coordinate_difference(params: ModelParams, d: Policy,
                                 d_prime: Policy) -> float:
    """eta' - eta for policies differing in one coordinate.

    Closed form mu2 * pi'(n,j) * (d'_j - d_j) * [G^d(n,j) + c]. Both
    coordinate values must lie in {0..j}.
    """
    j, d, d_prime = _single_change_level(params, d, d_prime)
    value = _factor_plus_c(params, d, j)
    pi_prime = stationary_closed_form(params, d_prime).pi
    return float(params.mu2 * pi_prime[params.n + j]
                 * (d_prime[j - 1] - d[j - 1]) * value)


def sign_conservation_check(params: ModelParams, d: Policy, d_prime: Policy,
                            j: int) -> SignConservationReport:
    """Check [G^d(n,j)+c] / [G^d'(n,j)+c] = pi^d(n,j) / pi^d'(n,j).

    Both sides are computed independently; disagreement beyond 1e-9
    relative raises. Near-zero G+c values make the left side untestable
    and are reported as degenerate instead. A j that is not an integer in
    1..m raises ValueError.
    """
    _check_count(j, f"j must be an integer in 1..{params.m}", params.m)
    _, d, d_prime = _single_change_level(params, d, d_prime, j)
    value_d = float(_factor_plus_c(params, d, j))
    value_dp = float(_factor_plus_c(params, d_prime, j))
    idx = params.n + j
    pi_ratio = float(stationary_closed_form(params, d).pi[idx]
                     / stationary_closed_form(params, d_prime).pi[idx])

    if min(abs(value_d), abs(value_dp)) < DEGENERATE_EPS:
        return SignConservationReport(
            ratio=np.nan, pi_ratio=pi_ratio, rel_error=np.nan,
            degenerate=True, value_d=value_d, value_d_prime=value_dp,
        )
    ratio = value_d / value_dp
    rel_error = abs(ratio - pi_ratio) / max(abs(pi_ratio), 1e-300)
    if rel_error > 1e-9:
        raise ConsistencyError(
            f"sign-conservation ratio {ratio!r} disagrees with stationary "
            f"ratio {pi_ratio!r} (rel error {rel_error:.3e})"
        )
    return SignConservationReport(
        ratio=ratio, pi_ratio=pi_ratio, rel_error=rel_error,
        degenerate=False, value_d=value_d, value_d_prime=value_dp,
    )
