"""Generator and stationary distribution of the policy-driven chain.

Under a policy the job count follows a birth-death process on the n + m + 1
states: births at rate lambda everywhere below the top state, deaths at rate
i*mu1 from (i, 0) and at rate nu(d_{n,j}) = n*mu1 + min(d_{n,j}, j)*mu2 from
(n, j). So the generator is tridiagonal and is held as its three bands; only
the dense oracles form the k x k matrix. The stationary vector has a product
form that the closed-form solver builds by recursive ratios; a dense linear
solve is kept as an oracle.

One body (_rates) forms the death and cost rates, the cost on one list of
the energy cost of each Group-2 value (_energy_costs), in two shapes, both
in Python floats: level by level for one policy (_state_rates), and once for
every value of some value sets, one set per level (_value_rates).
_level_tables builds the flat tables of the searches from either: the
first, from a policy record, for the eta of optimize's answer, and the
second for the searches that extend or walk many policies. A block of
policies is value sets with a digit array from model._space_block (row r
takes levels[j][digits[r, j]] at level j + 1), gathering its rates from
the second.

One policy's pass is kept in a PolicyRecord, in a memo of the MEMO_SIZE
most recent records, so the per-policy calls of every layer share one pass
per policy: the record holds the checked policy and its rates, and builds
the generator and the stationary law on first use (_generator,
_stationary); reward adds f and eta to it, potential the RG factors and
the operands of the Poisson solve's tail, and sensitivity the lines of the
realization factors. The key is the identity of the params object with the
policy as check_policy returns it, never params ==: params whose prices
are 0.0 and -0.0 compare equal but give f entries of different sign. The
record holds params, so the identity is not reused while it lives.
check_policy returns a tuple of plain ints as itself, so a record's policy
is then the caller's own tuple, and a call that passes that same tuple
again finds its record by identity without a re-check: a tuple cannot
change. Any other policy is checked on every call, and params, by
validate's rules bar the price's sign, whenever no record holds it: so
each params object is validated once while it has a record, and an invalid
one, which never gets a record, is refused on every call. A build that
raises keeps nothing, so a refusal is raised again on every call. The memo
is one tuple, replaced whole on each insert, so a reader never sees a
half-made one and no lock is taken: threads that miss the same policy at
once each make a record, with equal values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .model import ModelParams, Policy, ReadOnlyRecord, _model_errors, check_policy


@dataclass(frozen=True)
class Generator(ReadOnlyRecord):
    """The tridiagonal transition-rate matrix, held as its three bands.

    sub[k] is the death rate of state k+1 and sup[k] = lambda the birth
    rate of state k (the top state has none: arrivals there are lost);
    diag = -(births + deaths), so rows sum to zero. matrix is the dense
    array, for the dense oracles.
    """

    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray

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
class ChainSolution(ReadOnlyRecord):
    """Stationary distribution pi with its unnormalized weights xi.

    pi = xi / b where xi(0,0) = 1 and b is the normalizing constant. All
    entries are strictly positive: every death rate is at least n*mu1 > 0,
    so the chain is irreducible.
    """

    pi: np.ndarray
    xi: np.ndarray
    b: float


def _rates(params: ModelParams, pairs) -> tuple[list, list]:
    """Death and cost rates of the states (i, 0), then of each pair of pairs.

    The death rate of a state is also its completion rate: i*mu1 at (i, 0),
    and nu(d_{n,j}) at (n, j), where Group 1 contributes n*mu1 and Group 2
    min(d_{n,j}, j)*mu2 because only as many awake servers as jobs can
    serve. The energy part of the cost uses the raw entry d_{n,j}: a server
    awake beyond the number of jobs burns power without serving. pairs
    yields Python ints (j, d_{n,j}): the levels of one policy, or every
    value of some value sets. Arrivals are lost only at the top state: the
    caller adds their cost there.
    """
    n, mu1, mu2, c_hold_g1 = params.n, params.mu1, params.mu2, params.c_hold_g1
    energy, c_hold_g2 = _energy_costs(params), params.c_hold_g2
    # Products that stand alone in the level cost: hoisting them out of the
    # loop keeps every rounding.
    group1_rate, group1_hold = n * mu1, n * c_hold_g1
    transfer = group1_rate * params.c_transfer
    death = [i * mu1 for i in range(n + 1)]
    # Every Group-2 server sleeps at (i, 0), as at value 0.
    cost = [energy[0] + i * c_hold_g1 for i in range(n + 1)]
    # Bound appends and min(dj, j) inline: the loop runs once per value.
    add_death, add_cost = death.append, cost.append
    for j, dj in pairs:
        add_death(group1_rate + (dj if dj < j else j) * mu2)
        add_cost(energy[dj] + group1_hold + j * c_hold_g2 + transfer)
    return death, cost


def _energy_costs(params: ModelParams) -> list:
    """The energy cost (n P1W + v P2W + (m - v) P2S) C1 of each Group-2
    value v = 0..m: the first term of a level's cost rate in _rates, the
    one that does not depend on the level. The terms _rates adds to it
    are the same for every value at a level, and IEEE addition is
    monotone, so a value's cost rate at a level never falls below that of
    a value with a smaller energy cost."""
    group1_power, m = params.n * params.p1_work, params.m
    p2_work, p2_sleep, c_energy = params.p2_work, params.p2_sleep, params.c_energy
    return [(group1_power + v * p2_work + (m - v) * p2_sleep) * c_energy
            for v in range(m + 1)]


def _state_rates(params: ModelParams, d: tuple) -> tuple[list[float], list[float]]:
    """Death rate and cost rate of every state, as Python floats.

    The one per-policy pass of the closed form, on rates and a policy that
    _policy_record has checked; the record keeps it, and the generator, the
    stationary law and the reward read their rates from the record.
    """
    death, cost = _rates(params, enumerate(d, start=1))
    cost[-1] += params.lambda_ * params.c_loss
    return death, cost


#: Policy records the memo keeps, most recent first. A policy and the one
#: it is compared with need two.
MEMO_SIZE = 4

_memo: tuple = ()


class PolicyRecord:
    """One policy's rates, and the values built from them on first use.

    params is the params object itself, policy the tuple check_policy
    returns (the caller's own, if it was a tuple of plain ints), and death
    and cost the rates of _state_rates as tuples.
    """

    __slots__ = ("params", "policy", "death", "cost", "_values")

    def __init__(self, params: ModelParams, policy: tuple, death: tuple,
                 cost: tuple):
        self.params, self.policy = params, policy
        self.death, self.cost = death, cost
        self._values = {}

    def value(self, build):
        """build(self), built on the first call and kept; one that raises
        keeps nothing. Every numpy array in the value kept, itself or inside
        tuples, is set read-only: the memo hands it to every layer."""
        value = self._values.get(build)
        if value is None:
            value = self._values[build] = _frozen(build(self))
        return value


def _frozen(value):
    """value, with every numpy array in it, itself or inside tuples, set
    read-only."""
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    elif isinstance(value, tuple):
        for item in value:
            _frozen(item)
    return value


def _policy_record(params: ModelParams, d: Policy) -> PolicyRecord:
    """The record of policy d under params: the memo's, or one new pass.

    params is validated when no record holds it: a record is made only for
    a valid model, so an invalid one is refused on every call. d is
    checked unless it is the record's own tuple.
    """
    global _memo
    memo = _memo
    # check_policy returns a tuple of plain ints as itself, so the caller's
    # own tuple finds its record unchecked: it passed the check that made it.
    for record in memo:
        if record.policy is d and record.params is params:
            return record
    if not any(record.params is params for record in memo):
        errors = _model_errors(params)
        if errors:
            raise ConfigError("; ".join(errors))
    policy = check_policy(d, params.m)
    for record in memo:
        if record.params is params and record.policy == policy:
            return record
    death, cost = _state_rates(params, policy)
    record = PolicyRecord(params, policy, tuple(death), tuple(cost))
    _memo = (record, *_memo[:MEMO_SIZE - 1])
    return record


def _value_rates(params: ModelParams, levels) -> tuple[list, list, list]:
    """(death, cost, start): _rates of the states (i, 0), then of every
    value of levels, one set of ints in 0..m per level, with the loss cost
    on the top level's: bit for bit those _state_rates gives a policy that
    takes the value. Level j + 1's values' rates begin at n + 1 + start[j].
    """
    death, cost = _rates(params, [(j, v) for j, values in enumerate(levels, start=1)
                                  for v in values])
    top, loss = len(cost) - len(levels[-1]), params.lambda_ * params.c_loss
    cost[top:] = [rate + loss for rate in cost[top:]]
    start = [0]
    for values in levels:
        start.append(start[-1] + len(values))
    return death, cost, start


def _cost_scale(params: ModelParams) -> float:
    """A bound on the sum of the magnitudes of the terms _rates adds into
    any cost: (|n P1W| + m P2W) C1 + n H1 + m H2 + n mu1 T + lambda L, the
    group-1 power, the one term that can be negative, counted positive."""
    p = params
    return ((abs(p.n * p.p1_work) + p.m * p.p2_work) * p.c_energy + p.n * p.c_hold_g1
            + p.m * p.c_hold_g2 + p.n * p.mu1 * p.c_transfer + p.lambda_ * p.c_loss)


def _value_index(start: list, digits: np.ndarray) -> np.ndarray:
    """The (m, rows) index of the rows of digits into tables laid out by
    start, C-contiguous: a transposed one made _lines about 2x slower."""
    return np.ascontiguousarray(digits.T) + np.array(start[:-1])[:, None]


def _level_tables(params: ModelParams, death, cost, prices: list[float]):
    """(low_profit, low_weight, xi_n, ratios, f_top) of per-state rates at
    each of the float prices: the tables every search reads.

    death and cost hold the rates of the states (i, 0), then of the values
    above them: one policy's, from its record, or every value of some
    value sets, from _value_rates, which lays level j + 1's values out at
    its start[j]:start[j + 1]. Each value is a column of ratios, lambda/nu,
    and of f_top[p], the profit rates prices[p] nu - cost. The states
    (i, 0) have weights xi_low, the cumulative products of lambda/(i mu1),
    formed in Python floats by numpy's operations, as is f_low:
    low_profit[p] = xi_low . f_low at prices[p], low_weight = sum(xi_low)
    and xi_n = xi_low[n], summed by numpy. A policy's average profit at
    prices[p] is (low_profit[p] + sum xi f_top[p]) / (low_weight + sum xi),
    xi = xi_n cumprod(lambda/nu).
    """
    lam, mu1, low = params.lambda_, params.mu1, params.n + 1
    xi = [1.0]
    for i in range(1, low):
        xi.append(xi[-1] * (lam / (i * mu1)))
    xi_low = np.array(xi)
    f_low = np.array([[price * i * mu1 - c for i, c in enumerate(cost[:low])]
                      for price in prices])
    nu = np.array(death[low:])
    with np.errstate(over="ignore", invalid="ignore"):
        return (np.array([xi_low @ row for row in f_low]),
                float(xi_low.sum()), xi[-1], lam / nu,
                np.multiply.outer(prices, nu) - cost[low:])


def _block_rates(params: ModelParams, levels, digits: np.ndarray,
                 ) -> tuple[list, list]:
    """The rates of _state_rates for every policy row of a block, value
    sets levels with a (rows, m) integer array digits: row r takes value
    levels[j][digits[r, j]] at level j + 1. Each list holds the floats of
    the states (i, 0), then one array per level gathered from _value_rates,
    with an entry per row. Every caller validates params first.
    """
    death, cost, start = _value_rates(params, levels)
    low, index = params.n + 1, _value_index(start, digits)
    return (death[:low] + list(np.array(death[low:])[index]),
            cost[:low] + list(np.array(cost[low:])[index]))


def build_generator(params: ModelParams, d: Policy) -> Generator:
    """The (n+m+1) x (n+m+1) transition-rate matrix, as its bands."""
    return _policy_record(params, d).value(_generator)


def _generator(record: PolicyRecord) -> Generator:
    """The generator's bands with the death rates of a policy record."""
    sub = np.array(record.death[1:])
    sup = np.full(sub.shape[0], record.params.lambda_)
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
    return _policy_record(params, d).value(_stationary)


def _weights(lam: float, death: list) -> list:
    """Unnormalized stationary weights: xi_0 = 1, xi_k = xi_{k-1} * lam / nu_k.

    nu_k = death[k] is a float for one policy, or an array with one entry
    per policy row for a block; every step is elementwise.
    """
    weight = 1.0
    weights = [weight]
    for rate in death[1:]:
        # In this order, not weight * (lam / rate): the Poisson solvers'
        # residual gate refuses draws by the last bit of pi.
        weight = weight * lam / rate
        weights.append(weight)
    return weights


def _stationary(record: PolicyRecord) -> ChainSolution:
    """The product-form law with the death rates of a policy record."""
    xi = np.array(_weights(record.params.lambda_, record.death))
    # Finite weights can still sum past the largest double: refused below.
    with np.errstate(over="ignore"):
        b = float(xi.sum())
    _require_finite(b, "stationary weights")
    return ChainSolution(xi / b, xi, b)


def _require_finite(values, what: str) -> None:
    """The one refusal of a heavy load, where the product-form weights
    overflow: values that came out infinite or NaN under np.errstate."""
    if not np.isfinite(values).all():
        raise NumericalError(f"{what} are not finite; the stationary weights "
                             "overflow at this load")


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
    if pi.min() < -1e-12 * pi.max():
        raise NumericalError("stationary solve produced negative entries")
    pi = np.maximum(pi, 0.0)
    pi /= pi.sum()
    if pi[0] <= 0.0:
        raise NumericalError("stationary solve lost the empty state")
    b = 1.0 / pi[0]
    return ChainSolution(pi, pi * b, b)
