"""Reward construction and the average-profit decomposition."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sleepq import (
    affine_decomposition,
    average_profit,
    build_reward,
    policy_profit,
    profit_components,
    stationary_closed_form,
)
from conftest import draw_instance, micro_params, random_policy


def test_micro_reward_vector(micro):
    f = build_reward(micro, (1,))
    assert np.allclose(f, [-2.5, 7.0, 10.3], atol=1e-15)


def test_micro_affine_pieces(micro):
    aff = affine_decomposition(micro, (1,))
    assert np.allclose(aff.a, [0.0, 1.0, 2.0], atol=1e-15)
    assert np.allclose(aff.b, [2.5, 3.0, 9.7], atol=1e-15)


def test_reward_is_affine_in_price():
    rng = np.random.default_rng(11)
    for _ in range(10):
        params, d = draw_instance(rng, n_max=8, m_max=8)
        aff = affine_decomposition(params, d)
        f = build_reward(params, d)
        assert np.array_equal(f, params.price * aff.a - aff.b)


def test_micro_profit(micro):
    assert policy_profit(micro, (1,)) == pytest.approx(3.86, abs=1e-12)
    assert policy_profit(micro, (0,)) == pytest.approx(53 / 30, abs=1e-12)


def test_average_profit_refuses_mismatched_shapes(micro):
    sol = stationary_closed_form(micro, (1,))
    with pytest.raises(ValueError, match=r"pi has \(3,\), f has \(2,\)"):
        average_profit(sol, np.zeros(2))


def test_profit_components_reconstruct_eta():
    rng = np.random.default_rng(12)
    for _ in range(10):
        params, d = draw_instance(rng, n_max=8, m_max=8)
        sol = stationary_closed_form(params, d)
        completions, cost = profit_components(sol, affine_decomposition(params, d))
        eta = average_profit(sol, build_reward(params, d))
        assert eta == pytest.approx(params.price * completions - cost,
                                    rel=1e-12, abs=1e-12)
        assert completions > 0


def test_energy_bill_uses_raw_coordinate():
    """Waking more servers than jobs changes the bill but not the chain."""
    params = micro_params(m=2)
    lazy = (1, 1)
    eager = (2, 1)  # same clamped rates, higher energy draw at level 1
    assert np.array_equal(
        stationary_closed_form(params, lazy).pi,
        stationary_closed_form(params, eager).pi,
    )
    b_lazy = affine_decomposition(params, lazy).b
    b_eager = affine_decomposition(params, eager).b
    idx = params.n + 1
    extra = (params.p2_work - params.p2_sleep) * params.c_energy
    assert b_eager[idx] - b_lazy[idx] == pytest.approx(extra, abs=1e-15)
    assert policy_profit(params, eager) < policy_profit(params, lazy)


def test_loss_cost_only_at_full_state():
    params = micro_params(m=3)
    with_loss = affine_decomposition(params, (0, 1, 2)).b
    free = affine_decomposition(
        dataclasses.replace(params, c_loss=0.0), (0, 1, 2)).b
    diff = with_loss - free
    assert np.count_nonzero(diff) == 1
    assert diff[-1] == pytest.approx(params.lambda_ * params.c_loss, abs=1e-15)


def test_zero_price_zero_costs_zero_profit():
    params = micro_params(price=0.0, c_energy=0.0, c_hold_g1=0.0,
                          c_hold_g2=0.0, c_transfer=0.0, c_loss=0.0)
    assert policy_profit(params, (1,)) == 0.0


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_transfer_term_scales_with_its_cost(seed):
    rng = np.random.default_rng(seed)
    params, d = draw_instance(rng, n_max=6, m_max=6)
    bumped = dataclasses.replace(params, c_transfer=params.c_transfer + 1.0)
    f0 = build_reward(params, d)
    f1 = build_reward(bumped, d)
    diff = f0 - f1
    # transfers occur at rate n*mu1 exactly on the group-2 levels
    assert np.allclose(diff[:params.n + 1], 0.0, atol=1e-15)
    assert np.allclose(diff[params.n + 1:], params.n * params.mu1,
                       rtol=1e-12, atol=1e-12)
