"""Policy search, threshold structure, and the extreme-price closed forms."""

import dataclasses

import numpy as np
import pytest

from sleepq import (
    GateError,
    RegimeError,
    critical_prices_global,
    enumerate_policies,
    evaluate_policies,
    optimal_extreme_prices,
    optimize,
    policy_profit,
    profits_block,
    stationary_closed_form,
    threshold_policy,
    threshold_scan,
    threshold_stationary,
    verify_monotonicity,
)
from conftest import draw_instance, micro_params, sleepy_params


def test_micro_optimum(micro):
    res = optimize(micro, "full")
    assert res.best_policy == (1,)
    assert res.best_eta == pytest.approx(3.86, abs=1e-12)
    assert res.evaluations == 2 and res.ranking is None


def test_micro_ranking(micro):
    res = optimize(micro, "full", top_k=5)
    assert [p for p, _ in res.ranking] == [(1,), (0,)]
    etas = [e for _, e in res.ranking]
    assert etas == sorted(etas, reverse=True)


@pytest.mark.parametrize("top_k", [0, -1])
def test_top_k_below_one_is_rejected(micro, top_k):
    with pytest.raises(ValueError, match="top_k"):
        optimize(micro, "full", top_k=top_k)


def test_zero_price_micro_still_wakes_the_server(micro):
    """c_loss=5 makes the full state so costly that waking the group-2
    server pays for itself even without revenue."""
    res = optimize(dataclasses.replace(micro, price=0.0), "full")
    assert res.best_policy == (1,)
    assert res.best_eta == pytest.approx(-4.14, abs=1e-12)


def test_zero_price_sleepy_instance_sleeps(sleepy):
    res = optimize(sleepy, "full")
    assert res.best_policy == (0, 0)
    assert threshold_scan(sleepy).theta_star == sleepy.m + 1


def test_block_evaluator_matches_scalar_path():
    rng = np.random.default_rng(41)
    for _ in range(6):
        params, _ = draw_instance(rng, n_max=6, m_max=4)
        policies = list(enumerate_policies(params.m, "full"))
        bulk = evaluate_policies(params, policies)
        scalar = np.array([policy_profit(params, d) for d in policies])
        scale = max(1.0, float(np.max(np.abs(scalar))))
        assert np.max(np.abs(bulk - scalar)) < 1e-11 * scale


def test_optimize_agrees_with_brute_force():
    rng = np.random.default_rng(42)
    for _ in range(6):
        params, _ = draw_instance(rng, n_max=6, m_max=4)
        res = optimize(params, "full")
        policies = list(enumerate_policies(params.m, "full"))
        etas = evaluate_policies(params, policies)
        best = int(np.argmax(etas))
        assert res.best_eta == pytest.approx(float(etas[best]), abs=1e-12)


def test_tie_break_is_lexicographic():
    # with all prices and costs zero every policy earns exactly zero
    params = micro_params(m=2, price=0.0, c_energy=0.0, c_hold_g1=0.0,
                          c_hold_g2=0.0, c_transfer=0.0, c_loss=0.0)
    res = optimize(params, "full")
    assert res.best_eta == 0.0
    assert res.best_policy == (0, 0)


def test_threads_do_not_change_the_answer():
    params = micro_params(n=2, m=4)
    serial = optimize(params, "full", top_k=3)
    threaded = optimize(params, "full", top_k=3, threads=4)
    assert serial.best_policy == threaded.best_policy
    assert serial.best_eta == threaded.best_eta
    assert serial.ranking == threaded.ranking


def test_space_gate_and_override():
    params = micro_params(m=9)
    with pytest.raises(GateError, match="allow_large"):
        optimize(params, "full")
    res = optimize(params, "threshold")  # linear spaces are never gated
    assert len(res.best_policy) == 9


def test_bang_bang_subset_of_full():
    rng = np.random.default_rng(43)
    for _ in range(8):
        params, _ = draw_instance(rng, n_max=5, m_max=3)
        full = optimize(params, "full")
        bang = optimize(params, "bang_bang")
        assert bang.best_eta <= full.best_eta + 1e-12


def test_threshold_stationary_matches_generic(micro):
    params = micro_params(n=3, m=4, lambda_=2.0, mu1=0.7, mu2=1.3)
    for theta in range(1, params.m + 2):
        fast = threshold_stationary(params, theta)
        generic = stationary_closed_form(params, threshold_policy(params.m, theta))
        assert np.max(np.abs(fast.pi - generic.pi)) < 1e-12
    with pytest.raises(ValueError):
        threshold_stationary(params, 0)


def test_threshold_scan_micro(micro):
    res = threshold_scan(micro)
    assert res.theta_star == 1
    assert res.eta_by_theta[0] == pytest.approx(3.86, abs=1e-12)
    assert res.eta_by_theta[1] == pytest.approx(53 / 30, abs=1e-12)
    prev, here, nxt = res.necessary_condition
    assert np.isnan(prev)          # theta*-1 boundary
    assert here == pytest.approx(6.28, abs=1e-12)
    assert np.isnan(nxt)           # theta*+1 exceeds m
    assert res.necessary_condition_proof_form > 0


def test_threshold_scan_equals_threshold_optimize():
    rng = np.random.default_rng(44)
    for _ in range(8):
        params, _ = draw_instance(rng, n_max=6, m_max=8)
        scan = threshold_scan(params)
        res = optimize(params, "threshold")
        best_eta = scan.eta_by_theta[scan.theta_star - 1]
        assert best_eta == pytest.approx(res.best_eta, abs=1e-12)
        assert res.best_policy == threshold_policy(params.m, scan.theta_star)


def test_extreme_high_regime_micro(micro):
    crit = critical_prices_global(micro)
    d_star, eta = optimal_extreme_prices(micro, "high", crit=crit)
    assert d_star == (1,)
    assert eta == pytest.approx(3.86, abs=1e-10)
    with pytest.raises(RegimeError, match="R_L"):
        optimal_extreme_prices(micro, "low", crit=crit)


def test_extreme_low_regime_sleepy(sleepy):
    crit = critical_prices_global(sleepy)
    d_star, eta = optimal_extreme_prices(sleepy, "low", crit=crit)
    assert d_star == (0, 0)
    assert eta == pytest.approx(policy_profit(sleepy, (0, 0)), abs=1e-10)
    assert eta == pytest.approx(optimize(sleepy, "full").best_eta, abs=1e-10)
    high = dataclasses.replace(sleepy, price=crit.r_high + 1.0)
    d_star, eta = optimal_extreme_prices(high, "high", crit=crit)
    assert d_star == (1, 2)
    assert eta == pytest.approx(optimize(high, "full").best_eta, abs=1e-10)


def test_extreme_regime_rejects_wrong_name(micro):
    with pytest.raises(ValueError):
        optimal_extreme_prices(micro, "medium")


def test_monotonicity_micro(micro):
    rep = verify_monotonicity(micro, (1,), 1, r_high=0.0)
    assert rep.ok and rep.strictly_increasing
    assert rep.argmax_value == 1
    assert rep.linear_residual < 1e-10
    assert rep.slope_expected == pytest.approx(-0.1, abs=1e-12)


def test_monotonicity_decreasing_in_sleep_regime(sleepy):
    crit = critical_prices_global(sleepy)
    for j in (1, 2):
        rep = verify_monotonicity(sleepy, (0, 0), j, r_low=crit.r_low)
        assert rep.ok and rep.strictly_decreasing
        assert rep.expected_direction == "decreasing"
        assert rep.argmax_value == 0


def test_profits_block_rejects_out_of_range(micro):
    with pytest.raises(ValueError):
        profits_block(micro, np.array([[2]]))


def test_affine_tail_slope_matches_direct_sweep():
    rng = np.random.default_rng(45)
    params, d = draw_instance(rng, n_max=6, m_max=6)
    j = 1 + int(rng.integers(params.m))
    rep = verify_monotonicity(params, d, j)
    span = [v for v in range(j, params.m + 1)]
    etas = [rep.etas[v] for v in span]
    slopes = np.diff(etas)
    if len(slopes):
        assert np.allclose(slopes, rep.slope_expected,
                           atol=1e-10 * max(1.0, abs(rep.slope_expected)))
