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
state gives

    D_{N-1} = (eta - f_N) / nu_N,
    D_{K-1} = (lambda * D_K + eta - f_K) / nu_K,

run down to K = n + 1, and G(n,j) = D_{n+j-1}. Every divisor is at least
n*mu1 > 0, and no stationary probability is divided by. The recursion runs
for a whole block of policies at once, without a Poisson solve.

f = R*a - b, so G and G + c are affine in the price R: the per-state
critical price (the root of G + c) and its R-slope come from the same
recursion. Maximizing and minimizing the roots over a policy space gives
the global prices R_H and R_L that delimit the all-awake and all-asleep
optimal regimes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import build_generator, stationary_closed_form
from .errors import ConsistencyError, DegeneratePriceError, NumericalError
from .model import (
    ModelParams,
    Policy,
    check_policy,
    enumerate_policies,
    policy_space_size,
)
from .optimize import BLOCK_SIZE, _block_chain, _policy_block
from .potential import solve_poisson
from .reward import build_reward

#: Below this magnitude a G+c value or an R-slope is treated as degenerate.
DEGENERATE_EPS = 1e-12


@dataclass(frozen=True)
class SensitivityReport:
    """Realization factors and critical prices of one policy.

    prf[j-1] = G(n,j); crit_prices[j-1] is the root of G(n,j)+c in R (NaN
    where the R-slope is degenerate); signs[j-1] = sign(G(n,j)+c) at the
    instance's own price.
    """

    prf: np.ndarray
    c: float
    crit_prices: np.ndarray
    signs: np.ndarray

    def __post_init__(self):
        self.prf.setflags(write=False)
        self.crit_prices.setflags(write=False)
        self.signs.setflags(write=False)


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


def _factor_lines(params: ModelParams, block: np.ndarray,
                  ) -> tuple[np.ndarray, np.ndarray]:
    """G(n,j) = price * slope + intercept for each policy row of block.

    Returns (intercept, slope), each of shape (rows, m), from the scalar
    recursion of the module docstring run on the two affine parts of
    eta - f = R (A - a) + (b - B), where A = pi . a and B = pi . b. Neither
    part depends on the price. A non-finite factor (the stationary weights
    overflow under heavy load) raises NumericalError.
    """
    lam, mu1 = params.lambda_, params.mu1
    # Overflow and NaN are caught by the finiteness check below.
    with np.errstate(over="ignore", invalid="ignore"):
        chain = _block_chain(params, block)
        total = chain.xi_low.sum() + chain.xi_top.sum(axis=1)
        completion_rate = (chain.xi_low @ (chain.jobs_low * mu1)
                           + (chain.xi_top * chain.nu).sum(axis=1)) / total
        cost_rate = (chain.xi_low @ chain.cost_low
                     + (chain.xi_top * chain.cost_top).sum(axis=1)) / total
        # source[0] is the R-coefficient of eta - f at the levels,
        # source[1] the price-free part.
        source = np.stack([completion_rate[:, None] - chain.nu,
                           chain.cost_top - cost_rate[:, None]])
        lines = np.empty_like(source)
        below = np.zeros(source.shape[:2])
        for j in range(params.m - 1, -1, -1):
            below = (lam * below + source[:, :, j]) / chain.nu[:, j]
            lines[:, :, j] = below
    if not np.all(np.isfinite(lines)):
        raise NumericalError(
            "realization factors are not finite; the stationary weights "
            "overflow at this load"
        )
    return lines[1], lines[0]


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


def _policy_lines(params: ModelParams, d: Policy) -> tuple[np.ndarray, np.ndarray]:
    d = check_policy(d, params.m)
    intercept, slope = _factor_lines(params, np.array([d], dtype=np.int64))
    return intercept[0], slope[0]


def realization_factors(params: ModelParams, d: Policy) -> np.ndarray:
    """G(n,j) = g(n,j-1) - g(n,j) for j = 1..m (anchor-free)."""
    intercept, slope = _policy_lines(params, d)
    return params.price * slope + intercept


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
    k = (P2W - P2S) C1 / mu2.
    """
    check_policy(d, params.m)
    if not 1 <= j <= params.m:
        raise ValueError(f"j={j} outside 1..{params.m}")
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
    unranked in blocks of BLOCK_SIZE, as optimize does, and each space is
    gated at the same size as enumerate_policies gates it for optimize.
    """
    enumerate_policies(params.m, space, allow_large=allow_large)  # gate check
    total = policy_space_size(params.m, space)

    r_high = 0.0
    r_low = np.inf
    for start in range(0, total, BLOCK_SIZE):
        block = _policy_block(params.m, space, start,
                              min(start + BLOCK_SIZE, total))
        roots, _ = _price_roots(params, *_factor_lines(params, block))
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
    anchor drops out because (B' - B) has zero row sums.
    """
    check_policy(d, params.m)
    check_policy(d_prime, params.m)
    sol = solve_poisson(params, d)
    b = build_generator(params, d).matrix
    b_prime = build_generator(params, d_prime).matrix
    f = build_reward(params, d)
    f_prime = build_reward(params, d_prime)
    pi_prime = stationary_closed_form(params, d_prime).pi
    return float(pi_prime @ ((b_prime - b) @ sol.g + (f_prime - f)))


def _single_change_level(params: ModelParams, d: Policy, d_prime: Policy,
                         j: int | None = None) -> int:
    """The 1-based level where d and d_prime differ (and nowhere else)."""
    check_policy(d, params.m)
    check_policy(d_prime, params.m)
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
    return j


def single_coordinate_difference(params: ModelParams, d: Policy,
                                 d_prime: Policy) -> float:
    """eta' - eta for policies differing in one coordinate.

    Closed form mu2 * pi'(n,j) * (d'_j - d_j) * [G^d(n,j) + c]. Both
    coordinate values must lie in {0..j}.
    """
    j = _single_change_level(params, d, d_prime)
    prf = realization_factors(params, d)
    c = price_constant(params)
    pi_prime = stationary_closed_form(params, d_prime).pi
    return float(params.mu2 * pi_prime[params.n + j]
                 * (d_prime[j - 1] - d[j - 1]) * (prf[j - 1] + c))


def sign_conservation_check(params: ModelParams, d: Policy, d_prime: Policy,
                            j: int) -> SignConservationReport:
    """Check [G^d(n,j)+c] / [G^d'(n,j)+c] = pi^d(n,j) / pi^d'(n,j).

    Both sides are computed independently; disagreement beyond 1e-9
    relative raises. Near-zero G+c values make the left side untestable
    and are reported as degenerate instead.
    """
    _single_change_level(params, d, d_prime, j)
    c = price_constant(params)
    value_d = float(realization_factors(params, d)[j - 1] + c)
    value_dp = float(realization_factors(params, d_prime)[j - 1] + c)
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
