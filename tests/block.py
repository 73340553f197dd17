"""Block evaluation of the closed-form profit, for the tests.

The walk's independent oracle: it gathers the tables of
chain._level_tables for every policy row of a block at once and cumulates
the weights and terms down the level axis with numpy, where the eta of
optimize's answer, the threshold family and the monotonicity sweep extend
one prefix state at a time in Python floats and the walk grows the
enumeration tree.
"""

import numpy as np

from sleepq.chain import _level_tables, _require_finite, _value_rates


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
