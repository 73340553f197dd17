"""Generator and stationary distribution of the policy-driven chain.

Under a policy the job count follows a birth-death process on the n + m + 1
states: births at rate lambda everywhere below the top state, deaths at rate
i*mu1 from (i, 0) and at rate nu(d_{n,j}) = n*mu1 + min(d_{n,j}, j)*mu2 from
(n, j). So the generator is tridiagonal and is held as its three bands; only
the dense oracles form the k x k matrix. The stationary vector has a product
form that the closed-form solver builds by recursive ratios; a dense linear
solve is kept as an oracle.

A single policy's rates come from one scalar pass over its states
(_state_rates), from which _generator and _stationary build the bands and
the stationary law, so a caller that needs several of them runs the pass
once. The searches read the same rates for a whole block of policies
(_block_chain).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .model import ModelParams, Policy, check_policy


@dataclass(frozen=True)
class Generator:
    """The tridiagonal transition-rate matrix, held as its three bands.

    sub[k] is the death rate of state k+1 and sup[k] = lambda the birth
    rate of state k (the top state has none: arrivals there are lost);
    diag = -(births + deaths), so rows sum to zero. matrix is the dense
    array, for the dense oracles.
    """

    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray

    def __post_init__(self):
        for band in (self.sub, self.diag, self.sup):
            band.setflags(write=False)

    @property
    def matrix(self) -> np.ndarray:
        size = self.diag.shape[0]
        matrix = np.zeros((size, size))
        flat = matrix.ravel()
        flat[size::size + 1] = self.sub
        flat[::size + 1] = self.diag
        flat[1::size + 1] = self.sup
        return matrix


@dataclass(frozen=True)
class ChainSolution:
    """Stationary distribution pi with its unnormalized weights xi.

    pi = xi / b where xi(0,0) = 1 and b is the normalizing constant. All
    entries are strictly positive: every death rate is at least n*mu1 > 0,
    so the chain is irreducible.
    """

    pi: np.ndarray
    xi: np.ndarray
    b: float

    def __post_init__(self):
        self.pi.setflags(write=False)
        self.xi.setflags(write=False)


def _check_rates(params: ModelParams) -> None:
    """Refuse the rates and counts the weights multiply and divide by.

    Unless they are all positive a weight divides by zero or turns
    negative. A full validate costs more than the pass it guards.
    """
    for name, value in (("lambda", params.lambda_), ("mu1", params.mu1),
                        ("mu2", params.mu2), ("n", params.n)):
        if not value > 0:
            raise ConfigError(f"{name} must be > 0, got {value!r}")


def _state_rates(params: ModelParams, d: Policy) -> tuple[list[float], list[float]]:
    """Death rate and cost rate of every state, as Python floats.

    The death rate of a state is also its completion rate: i*mu1 at (i, 0),
    and nu(d_{n,j}) at (n, j), where Group 1 contributes n*mu1 and Group 2
    min(d_{n,j}, j)*mu2 because only as many awake servers as jobs can
    serve. The energy part of the cost uses the raw entry d_{n,j}: a server
    awake beyond the number of jobs burns power without serving. This is
    the one per-policy pass of the closed form; the generator, the
    stationary law and the reward read their rates from it.
    """
    _check_rates(params)
    d = check_policy(d, params.m)
    n, m = params.n, params.m
    mu1, mu2 = params.mu1, params.mu2
    p2_work, p2_sleep = params.p2_work, params.p2_sleep
    c_energy, c_hold_g2 = params.c_energy, params.c_hold_g2
    # Products that stand alone in the level cost: hoisting them out of the
    # loop keeps every rounding.
    group1_rate, group1_power = n * mu1, n * params.p1_work
    group1_hold, transfer = n * params.c_hold_g1, n * mu1 * params.c_transfer
    base_energy = (group1_power + m * p2_sleep) * c_energy
    death = [i * mu1 for i in range(n + 1)]
    cost = [base_energy + i * params.c_hold_g1 for i in range(n + 1)]
    for j, dj in enumerate(d, start=1):
        death.append(group1_rate + min(dj, j) * mu2)
        cost.append((group1_power + dj * p2_work + (m - dj) * p2_sleep) * c_energy
                    + group1_hold + j * c_hold_g2 + transfer)
    if m:
        # Lost arrivals only happen at the full state.
        cost[-1] += params.lambda_ * params.c_loss
    return death, cost


def build_generator(params: ModelParams, d: Policy) -> Generator:
    """The (n+m+1) x (n+m+1) transition-rate matrix, as its bands."""
    death, _ = _state_rates(params, d)
    return _generator(params, death)


def _generator(params: ModelParams, death: list[float]) -> Generator:
    """The generator's bands with the death rates of _state_rates."""
    sub = np.array(death[1:])
    sup = np.full(sub.shape[0], params.lambda_)
    # Each state's births plus deaths, one rounding, as a row sum gives it.
    return Generator(sub, -(np.append(sup, 0.0) + np.append(0.0, sub)), sup)


def stationary_closed_form(params: ModelParams, d: Policy) -> ChainSolution:
    """Product-form stationary distribution.

    The balance equations telescope: xi(i,0) = lambda^i / (i! mu1^i) and
    xi(n,j) = xi(n,0) * lambda^j / prod_{i<=j} nu(d_{n,i}). Weights are
    accumulated as ratios xi_k = xi_{k-1} * birth/death, never through the
    factorial form, which overflows long before desk scale runs out. If the
    weights still overflow (heavy load at large n or m), the normalizer is
    not finite and NumericalError is raised.
    """
    death, _ = _state_rates(params, d)
    return _stationary(params, death)


def _stationary(params: ModelParams, death: list[float]) -> ChainSolution:
    """The product-form law with the death rates of _state_rates."""
    lam = params.lambda_
    weight = 1.0
    xi = [weight]
    for rate in death[1:]:
        # In this order, not weight * (lam / rate): the Poisson solvers'
        # residual gate refuses draws by the last bit of pi.
        weight = weight * lam / rate
        xi.append(weight)
    xi = np.array(xi)
    # Finite weights can still sum past the largest double: refused below.
    with np.errstate(over="ignore"):
        b = float(xi.sum())
    if not np.isfinite(b):
        raise NumericalError(
            "stationary weights are not finite; they overflow at this load"
        )
    return ChainSolution(xi / b, xi, b)


@dataclass(frozen=True)
class _BlockChain:
    """Rates of each policy row of a block.

    The states (i, 0) are shared by every row: jobs_low = i, their
    completion rate is i*mu1, and cost_low are their cost rates. The levels
    (n, j) get one row per policy: the service rates nu (which are also the
    completion rates) and cost_top. A state's profit rate is price *
    completion rate - cost.
    """

    jobs_low: np.ndarray
    cost_low: np.ndarray
    nu: np.ndarray
    cost_top: np.ndarray


def _block_chain(params: ModelParams, block: np.ndarray) -> _BlockChain:
    """The rates of _state_rates for each policy row of block, vectorized.

    Raw-coordinate energy and clamped service rates, each bit for bit the
    rate of the scalar pass.
    """
    _check_rates(params)
    block = np.asarray(block, dtype=np.int64)
    if block.ndim != 2 or block.shape[1] != params.m:
        raise ValueError(f"expected (batch, {params.m}) policy array")
    if block.size and (block.min() < 0 or block.max() > params.m):
        raise ValueError(f"policy entries must lie in 0..{params.m}")
    n, m = params.n, params.m
    lam, mu1, mu2 = params.lambda_, params.mu1, params.mu2

    i_arr = np.arange(n + 1, dtype=np.float64)
    j_arr = np.arange(1, m + 1, dtype=np.float64)
    clamped = np.minimum(block, np.arange(1, m + 1, dtype=np.int64))
    nu = n * mu1 + clamped * mu2

    base_energy = (n * params.p1_work + m * params.p2_sleep) * params.c_energy
    energy = (n * params.p1_work + block * params.p2_work
              + (m - block) * params.p2_sleep) * params.c_energy
    # Summed in the scalar pass's order, so cost_top equals its cost rates.
    cost = (energy + n * params.c_hold_g1 + j_arr * params.c_hold_g2
            + n * mu1 * params.c_transfer)
    cost[:, m - 1] += lam * params.c_loss
    return _BlockChain(jobs_low=i_arr,
                      cost_low=base_energy + i_arr * params.c_hold_g1,
                      nu=nu, cost_top=cost)


def _profit_rates(params: ModelParams, chain: _BlockChain, prices: np.ndarray,
                  ) -> tuple[np.ndarray, float, float, np.ndarray]:
    """(low_profit, low_weight, xi_n, f_top) of a block chain at each price.

    The weights of the states (i, 0) are cumulative products of
    lambda/(i mu1), shared by every row: low_profit[p] = xi_low . f_low at
    prices[p], low_weight = sum(xi_low) and xi_n = xi_low[n]. f_top[p] is
    the profit rate of each level at prices[p]. A row's level weights are
    xi_top = xi_n * cumprod(lambda/nu), and its average profit at prices[p]
    is (low_profit[p] + sum xi_top f_top[p]) / (low_weight + sum xi_top).
    Each price gets the numbers of a one-price call bit for bit: the same
    elementwise operations, and one dot product of its own.
    """
    ratios_low = np.ones(params.n + 1)
    ratios_low[1:] = params.lambda_ / (np.arange(1, params.n + 1) * params.mu1)
    xi_low = np.cumprod(ratios_low)
    low_profit = np.array([
        xi_low @ (price * chain.jobs_low * params.mu1 - chain.cost_low)
        for price in prices])
    return (low_profit, xi_low.sum(), xi_low[params.n],
            prices[:, None, None] * chain.nu - chain.cost_top)


def stationary_numeric(gen: Generator) -> ChainSolution:
    """Solve pi B = 0, pi e = 1 by dense linear algebra (the oracle path).

    The last balance equation is replaced by the normalization row; for an
    irreducible generator the result does not depend on which one. Entries
    whose true value sits far below machine precision come back as
    roundoff-scale negatives; those are clamped to zero. A genuinely
    negative entry raises NumericalError, as does a singular system; both
    indicate a malformed generator.
    """
    system = gen.matrix.T
    rhs = np.zeros(system.shape[0])
    system[-1, :] = 1.0
    rhs[-1] = 1.0
    try:
        pi = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"stationary solve failed: {exc}") from exc
    if np.min(pi) < -1e-12 * np.max(pi):
        raise NumericalError("stationary solve produced negative entries")
    pi = np.maximum(pi, 0.0)
    pi /= pi.sum()
    if pi[0] <= 0.0:
        raise NumericalError("stationary solve lost the empty state")
    b = 1.0 / pi[0]
    return ChainSolution(pi, pi * b, b)
