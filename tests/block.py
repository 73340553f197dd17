"""Block evaluation of the closed-form profit, for the tests.

The searches' independent oracle: it gathers the tables of
chain._level_tables for every policy row of a block at once and cumulates
the weights and terms down the level axis with numpy, where optimize, the
threshold family and the monotonicity sweep extend one prefix state at a
time in Python floats. The enumeration tree of a product space
(space_etas) ranks the whole space by float eta (block_ranking).
"""

import math

import numpy as np

from sleepq.chain import _level_tables, _require_finite, _value_rates
from sleepq.model import _level_values

#: The most leaves space_etas grows at once.
CHUNK = 65536


def _value_index(start: list, digits: np.ndarray) -> np.ndarray:
    """The (m, rows) index of the rows of digits into tables laid out by
    start, C-contiguous: the cumulations run down its level axis."""
    return np.ascontiguousarray(digits.T) + np.array(start[:-1])[:, None]


def block_profits(params, levels, digits: np.ndarray, prices: np.ndarray) -> np.ndarray:
    """Average profit of each policy row of a block: value sets levels
    with a (rows, m) integer array digits, row r taking value
    levels[j][digits[r, j]] at level j + 1. One row per price.

    Same closed form as policy_profit on the tables of _level_tables of
    the _value_rates of levels, gathered level-major, with the weights and
    terms cumulated down the level axis in the order of the enumeration
    tree, so a row's profit is bit for bit what the tree gives its policy.
    A profit that is not finite raises NumericalError, as the searches do.
    """
    death, cost, start = _value_rates(params, levels)
    low_profit, low_weight, xi_n, ratios, f_top = _level_tables(
        params, death, cost, prices.tolist())
    index = _value_index(start, digits)
    with np.errstate(over="ignore", invalid="ignore"):
        xi_top = xi_n * np.cumprod(ratios[index], axis=0)
        etas = ((low_profit[:, None] + np.cumsum(xi_top * f_top[:, index], axis=1)[:, -1])
                / (low_weight + np.cumsum(xi_top, axis=0)[-1]))
    _require_finite(etas, "profits")
    return etas


def space_etas(params, space) -> np.ndarray:
    """The float eta at the price of every policy of a product space, in
    the lexicographic order of enumerate_policies.

    The enumeration tree: policies that share their first levels share the
    weight product and the sums of those levels, so each level multiplies
    every prefix by its values' lambda/nu and adds their terms, in the
    operations of optimize._extend. The top levels are split value by value
    until no array holds more than CHUNK leaves. A profit that is not
    finite raises NumericalError.
    """
    m, levels = params.m, _level_values(params.m, space)
    death, cost, start = _value_rates(params, levels)
    low_profit, low_weight, xi_n, ratios, f_top = _level_tables(
        params, death, cost, [params.price])
    sizes = [len(values) for values in levels]

    def grow(state, j, values):
        prod, total, weight = state
        prod = np.multiply.outer(prod, ratios[start[j]:start[j + 1]][values])
        xi = prod * xi_n
        return (prod.ravel(), (xi * f_top[0, start[j]:start[j + 1]][values]
                               + total[:, None]).ravel(), (xi + weight[:, None]).ravel())

    def leaves(state, j):
        if math.prod(sizes[j:]) > CHUNK:
            return np.concatenate([leaves(grow(state, j, [v]), j + 1)
                                   for v in range(sizes[j])])
        for k in range(j, m):
            state = grow(state, k, slice(None))
        _, total, weight = state
        return (total + low_profit[0]) / (weight + low_weight)

    with np.errstate(over="ignore", invalid="ignore"):
        etas = leaves((np.ones(1), np.zeros(1), np.zeros(1)), 0)
    _require_finite(etas, "profits")
    return etas


def policy_of_rank(m, space, rank) -> tuple:
    """The policy of a rank in the order of space_etas."""
    values = []
    for level in reversed(_level_values(m, space)):
        rank, digit = divmod(rank, len(level))
        values.append(level[digit])
    return tuple(values[::-1])


def block_ranking(params, space, k=None) -> list:
    """The k best (policy, eta) pairs of a product space by float eta
    descending, ties by policy ascending; the whole space without k."""
    etas = space_etas(params, space)
    top = np.arange(etas.size)
    if k is not None and k < etas.size:
        # Only the etas at least the k-th largest are sorted.
        top = np.flatnonzero(etas >= np.partition(etas, etas.size - k)[etas.size - k])
    order = top[np.lexsort((top, -etas[top]))][:k]
    return [(policy_of_rank(params.m, space, int(rank)), float(etas[rank]))
            for rank in order]
