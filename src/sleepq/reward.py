"""Profit-rate vector, its affine split in the price, and the average profit.

Each state earns revenue at price * (service completion rate) and pays for
energy (all n Group-1 servers work, d_{n,j} Group-2 servers work, the rest
sleep), holding, migrations of Group-2 jobs into freed Group-1 servers, and
lost arrivals at the full state. Writing the vector as f = R*a - b with R
the price makes every downstream quantity affine in R, which the
sensitivity module exploits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import ChainSolution, PolicyRecord, _policy_record, _stationary
from .model import ModelParams, Policy, ReadOnlyRecord


@dataclass(frozen=True)
class AffineReward(ReadOnlyRecord):
    """Coefficients of f = price * a - b.

    a holds the revenue rates (the completion rate of each state) and b the
    cost rates. The energy part of b uses the raw policy entry d_{n,j}: a
    server awake beyond the number of jobs burns power without serving, so b
    keeps growing in d_{n,j} even where a has saturated.
    """

    a: np.ndarray
    b: np.ndarray


def affine_decomposition(params: ModelParams, d: Policy) -> AffineReward:
    record = _policy_record(params, d)
    return AffineReward(np.array(record.death), np.array(record.cost))


def build_reward(params: ModelParams, d: Policy) -> np.ndarray:
    """Profit rate per state, f = price * a - b.

    Computed through the affine decomposition so that recombining at the
    model price reproduces f bit for bit.
    """
    return _policy_record(params, d).value(_reward)


def _reward(record: PolicyRecord) -> np.ndarray:
    """f = price * a - b from the rates of a policy record."""
    f = record.params.price * np.array(record.death) - np.array(record.cost)
    f.setflags(write=False)
    return f


def _eta(record: PolicyRecord) -> float:
    """eta of a policy record, from its stationary law and its f."""
    return average_profit(record.value(_stationary), record.value(_reward))


def average_profit(solution: ChainSolution, f: np.ndarray) -> float:
    """Long-run average profit eta = pi . f.

    Accumulated in extended precision: eta feeds the Poisson right-hand
    side, where its rounding error lands on the redundant balance equation
    divided by pi(0,0).
    """
    if solution.pi.shape != np.shape(f):
        raise ValueError(
            f"dimension mismatch: pi has {solution.pi.shape}, f has {np.shape(f)}"
        )
    return float(solution.pi.astype(np.longdouble) @ np.asarray(f, dtype=np.longdouble))


def profit_components(solution: ChainSolution, aff: AffineReward) -> tuple[float, float]:
    """(D, F) with D = pi . a and F = pi . b, so eta = price * D - F."""
    return float(solution.pi @ aff.a), float(solution.pi @ aff.b)


def policy_profit(params: ModelParams, d: Policy) -> float:
    """eta of a policy via the closed-form stationary distribution."""
    return _policy_record(params, d).value(_eta)
