"""Policy search, threshold structure, and the extreme-price closed forms."""

import dataclasses
import importlib
import tracemalloc

import numpy as np
import pytest

from sleepq import (
    ConfigError,
    GateError,
    NumericalError,
    RegimeError,
    critical_prices_global,
    enumerate_policies,
    optimal_extreme_prices,
    optimize,
    policy_profit,
    policy_space_size,
    realization_factors,
    threshold_policy,
    threshold_scan,
    verify_monotonicity,
)
from sleepq.model import _policy_block
from conftest import draw_instance, draw_params, micro_params, sleepy_params

# The package exports the optimize function under the module's name.
OPT = importlib.import_module("sleepq.optimize")


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


@pytest.mark.parametrize("top_k", [2.5, 1.0, "2", True])
def test_top_k_that_is_not_an_integer_is_rejected(micro, top_k):
    with pytest.raises(ValueError, match="top_k"):
        optimize(micro, "full", top_k=top_k)


@pytest.mark.parametrize("j", [0, 4, 1.0, 2.0, "2", True])
def test_monotonicity_level_must_be_an_integer_in_range(j):
    params = micro_params(n=1, m=3)
    with pytest.raises(ValueError, match="j must be an integer in 1..3"):
        verify_monotonicity(params, (0, 2, 3), j)


def test_numpy_integer_counts_are_accepted(micro):
    ranked = optimize(micro, "full", top_k=np.int64(2))
    assert ranked == optimize(micro, "full", top_k=2)
    params = micro_params(n=1, m=3)
    sweep = verify_monotonicity(params, (0, 2, 3), np.int64(2)).etas
    assert np.array_equal(sweep, verify_monotonicity(params, (0, 2, 3), 2).etas)


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


def _profits(params, block):
    """The block evaluator's profit of each policy of block."""
    return OPT._block_profits(params, np.array(block), np.array([params.price]))[0]


def test_block_evaluator_matches_scalar_path():
    rng = np.random.default_rng(41)
    for _ in range(6):
        params, _ = draw_instance(rng, n_max=6, m_max=4)
        policies = list(enumerate_policies(params.m, "full"))
        bulk = _profits(params, policies)
        scalar = np.array([policy_profit(params, d) for d in policies])
        scale = max(1.0, float(np.max(np.abs(scalar))))
        assert np.max(np.abs(bulk - scalar)) < 1e-11 * scale


def test_optimize_agrees_with_brute_force():
    rng = np.random.default_rng(42)
    for _ in range(6):
        params, _ = draw_instance(rng, n_max=6, m_max=4)
        res = optimize(params, "full")
        policies = list(enumerate_policies(params.m, "full"))
        etas = np.array([policy_profit(params, d) for d in policies])
        best = int(np.argmax(etas))
        assert res.best_eta == pytest.approx(float(etas[best]), abs=1e-12)


def test_tie_break_is_lexicographic():
    # with all prices and costs zero every policy earns exactly zero
    params = micro_params(m=2, price=0.0, c_energy=0.0, c_hold_g1=0.0,
                          c_hold_g2=0.0, c_transfer=0.0, c_loss=0.0)
    res = optimize(params, "full")
    assert res.best_eta == 0.0
    assert res.best_policy == (0, 0)


def _record_pools(monkeypatch):
    """The max_workers of every ThreadPoolExecutor optimize builds."""
    pools = []

    class Recording(OPT.ThreadPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            pools.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(OPT, "ThreadPoolExecutor", Recording)
    return pools


def test_threads_do_not_change_the_answer(monkeypatch):
    # 625 policies in chunks of at most 50 rows: enough chunks for four
    # workers, so three pool threads run beside the caller.
    params = micro_params(n=2, m=4)
    monkeypatch.setattr(OPT, "BLOCK_SIZE", 50)
    serial = optimize(params, "full", top_k=3, threads=1)
    pools = _record_pools(monkeypatch)
    assert optimize(params, "full", top_k=3, threads=4) == serial
    assert pools == [3]


@pytest.mark.parametrize("threads", [0, -1, 2.5, True, "2"])
def test_threads_must_be_none_or_a_positive_integer(micro, threads):
    with pytest.raises(ValueError, match="threads"):
        optimize(micro, "full", threads=threads)
    with pytest.raises(ValueError, match="threads"):
        OPT.price_sweep(micro, [1.0, 2.0], threads=threads)


def test_the_caller_is_one_of_the_workers(monkeypatch):
    # Full m=6 is 7^6 = 117 649 policies, two chunks of BLOCK_SIZE rows.
    params = micro_params(n=2, m=6, c_energy=0.0, lambda_=1.7)
    serial = optimize(params, "full", top_k=12, threads=1)
    pools = _record_pools(monkeypatch)
    assert optimize(params, "full", top_k=12, threads=2) == serial
    assert pools == [1]
    assert optimize(params, "full", top_k=12, threads=1) == serial
    assert pools == [1]


def test_walk_holds_one_leaf_sized_buffer_set():
    # Two full parity sets of (q + 2) * BLOCK_SIZE floats peak at 3.1 MB
    # here; a leaf set without P and a set for the levels below the leaves
    # stay under 2 MB.
    params = micro_params(n=2, m=7)
    tracemalloc.start()
    try:
        optimize(params, "full")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


@pytest.mark.parametrize("space", ["full", "reduced", "bang_bang", "threshold"])
def test_policy_block_unranks_in_enumeration_order(space):
    for m in range(1, 5):
        total = policy_space_size(m, space)
        block = _policy_block(m, space, np.arange(total))
        assert [tuple(int(v) for v in row) for row in block] == \
            list(enumerate_policies(m, space))


def _block_etas(params, space):
    """_block_profits over a whole space, unranked in BLOCK_SIZE pieces."""
    total = policy_space_size(params.m, space)
    return np.concatenate([
        _profits(params, _policy_block(
            params.m, space, np.arange(start, min(start + OPT.BLOCK_SIZE, total))))
        for start in range(0, total, OPT.BLOCK_SIZE)])


@pytest.mark.parametrize("space, m_min, m_max", [
    ("full", 1, 5), ("reduced", 5, 8), ("bang_bang", 4, 12)])
def test_tree_search_matches_block_evaluation(space, m_min, m_max):
    # The block evaluator repeats the tree's operations in its order.
    rng = np.random.default_rng(47)
    for _ in range(6):
        params, _ = draw_instance(rng, n_max=6, m_min=m_min, m_max=m_max)
        etas = _block_etas(params, space)
        best = int(np.argmax(etas))
        res = optimize(params, space)
        want = tuple(int(v) for v in _policy_block(params.m, space, [best])[0])
        assert res.best_policy == want
        assert res.best_eta == etas[best]
        assert res.evaluations == etas.size == policy_space_size(params.m, space)


@pytest.mark.parametrize("space, m", [
    ("full", 4), ("reduced", 5), ("bang_bang", 7), ("threshold", 6)])
def test_chunking_and_threads_change_nothing(space, m, monkeypatch):
    # c_energy=0 makes every value above its level tie with the level.
    params = micro_params(n=2, m=m, c_energy=0.0, lambda_=1.7)
    whole = optimize(params, space, top_k=12)
    assert optimize(params, space, top_k=12, threads=2) == whole
    for size in (1, 7, 50):
        monkeypatch.setattr(OPT, "BLOCK_SIZE", size)
        assert optimize(params, space, top_k=12) == whole
        assert optimize(params, space, top_k=12, threads=2) == whole
        assert optimize(params, space) == dataclasses.replace(whole, ranking=None)


def test_ranking_breaks_ties_by_policy(monkeypatch):
    # Without an energy price a value above its level changes nothing, so
    # tie groups span the ranking; each top_k below cuts through one.
    params = micro_params(n=2, m=4, c_energy=0.0, lambda_=1.7)
    policies = list(enumerate_policies(params.m, "full"))
    expected = sorted(zip(policies, _profits(params, policies).tolist()),
                      key=lambda pair: (-pair[1], pair[0]))
    cuts = [i for i in range(1, len(expected))
            if expected[i - 1][1] == expected[i][1]][:3]
    assert len(cuts) == 3
    for size in (OPT.BLOCK_SIZE, 1, 7, 50):
        monkeypatch.setattr(OPT, "BLOCK_SIZE", size)
        for top_k in cuts:
            res = optimize(params, "full", top_k=top_k)
            assert res.ranking == expected[:top_k]
            assert res.ranking[0] == (res.best_policy, res.best_eta)


@pytest.mark.parametrize("space", ["full", "reduced", "bang_bang", "threshold"])
def test_all_tied_ranking_is_lexicographic(space, monkeypatch):
    # Zero prices and costs: every policy earns exactly zero.
    params = micro_params(m=4, p1_work=1.0, p2_work=2.0, p2_sleep=1.0,
                          price=0.0, c_energy=0.0, c_hold_g1=0.0,
                          c_hold_g2=0.0, c_transfer=0.0, c_loss=0.0)
    expected = [(d, 0.0) for d in sorted(enumerate_policies(4, space))[:3]]
    for size in (OPT.BLOCK_SIZE, 1, 7):
        monkeypatch.setattr(OPT, "BLOCK_SIZE", size)
        res = optimize(params, space, top_k=3)
        assert res.ranking == expected
        assert res.best_policy == expected[0][0]


@pytest.mark.parametrize("space", ["full", "reduced", "bang_bang", "threshold"])
def test_overflowing_profits_raise_numerical_error(space):
    # (1000/1)^i / i! overflows long before i = n = 1000.
    params = micro_params(n=1000, lambda_=1000.0, mu1=1.0, m=3)
    with pytest.raises(NumericalError, match="not finite"):
        policy_profit(params, (0, 0, 0))
    with pytest.raises(NumericalError, match="not finite"):
        optimize(params, space)


@pytest.mark.filterwarnings("error")
def test_threshold_sweeps_refuse_overflow():
    # Both sweeps evaluate a block of policies, and refuse it as optimize
    # does, before numpy warns about the overflow.
    params = micro_params(n=1000, lambda_=1000.0, mu1=1.0, m=3)
    with pytest.raises(NumericalError, match="profits are not finite"):
        threshold_scan(params)
    with pytest.raises(NumericalError, match="profits are not finite"):
        verify_monotonicity(params, (0, 0, 0), 2)


def test_whole_space_ranking_unranks_every_policy_once():
    rng = np.random.default_rng(48)
    params, _ = draw_instance(rng, n_max=6, m_min=8, m_max=8)
    ranking = optimize(params, "bang_bang", top_k=2 ** 8).ranking
    policies = [d for d, _ in ranking]
    assert sorted(policies) == list(enumerate_policies(8, "bang_bang"))
    keys = [(-eta, d) for d, eta in ranking]
    assert keys == sorted(keys)
    etas = [eta for _, eta in ranking]
    assert etas == _profits(params, policies).tolist()
    for k in (1, 2, 17, 255):
        assert optimize(params, "bang_bang", top_k=k).ranking == ranking[:k]


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


def test_threshold_scan_factors_each_policy_once(monkeypatch):
    seen = []

    def counted(params, d):
        seen.append(d)
        return realization_factors(params, d)

    monkeypatch.setattr(OPT, "realization_factors", counted)
    # theta* = 1 < m, so the theta*+1 policy serves two sign terms.
    assert threshold_scan(micro_params(n=2, m=5)).theta_star == 1
    assert sorted(seen) == [threshold_policy(5, 2), threshold_policy(5, 1)]


def test_threshold_scan_equals_threshold_optimize():
    rng = np.random.default_rng(44)
    for _ in range(8):
        params, _ = draw_instance(rng, n_max=6, m_max=8)
        scan = threshold_scan(params)
        res = optimize(params, "threshold")
        assert scan.eta_by_theta[scan.theta_star - 1] == res.best_eta
        assert res.best_policy == threshold_policy(params.m, scan.theta_star)


def test_threshold_ties_break_both_ways():
    # Zero price and costs: every threshold policy earns exactly zero.
    # threshold_scan reports the minimal maximizer, optimize the
    # lexicographically smallest policy, which is the maximal theta.
    params = micro_params(m=3, price=0.0, c_energy=0.0, c_hold_g1=0.0,
                          c_hold_g2=0.0, c_transfer=0.0, c_loss=0.0)
    scan = threshold_scan(params)
    assert scan.eta_by_theta.tolist() == [0.0] * 4
    assert scan.theta_star == 1 and threshold_policy(3, 1) == (1, 2, 3)
    res = optimize(params, "threshold")
    assert res.best_policy == (0, 0, 0) == threshold_policy(3, 4)


def test_threshold_family_lies_inside_bang_bang_exactly():
    # Every threshold policy is bang-bang, and both spaces give it the
    # enumeration tree's eta, so containment holds without a tolerance.
    # Only the first three draws with m <= 12 rank their whole space.
    rng = np.random.default_rng(13)
    ranked = 0
    for _ in range(200):
        params, _ = draw_instance(rng, n_max=8, m_min=8, m_max=14)
        m = params.m
        bang = optimize(params, "bang_bang")
        assert bang.best_eta >= optimize(params, "threshold").best_eta, params
        if m <= 12 and ranked < 3:
            ranked += 1
            etas = dict(optimize(params, "bang_bang", top_k=2 ** m).ranking)
            scan = threshold_scan(params)
            for theta in range(1, m + 2):
                assert (etas[threshold_policy(m, theta)]
                        == scan.eta_by_theta[theta - 1]), (params, theta)


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


@pytest.mark.parametrize("space, m_max", [
    ("full", 4), ("reduced", 5), ("bang_bang", 7), ("threshold", 9)])
def test_price_sweep_equals_per_point_optimize(space, m_max, monkeypatch):
    # One walk over the grid must give each price the optimize answer bit
    # for bit, whatever the chunks, the price batches and the threads.
    rng = np.random.default_rng(53)
    corpus = [draw_params(rng, n_max=6, m_max=m_max) for _ in range(4)]
    corpus.append(micro_params(n=2, m=m_max, c_energy=0.0, lambda_=1.7))  # ties
    for params in corpus:
        grid = [float(r) for r in np.linspace(0.0, rng.uniform(5.0, 60.0), 25)]
        want = [optimize(dataclasses.replace(params, price=r), space)
                for r in grid]
        with monkeypatch.context() as patch:
            # At most 50 values an array: chunks of 2 to 50 policies, and
            # the 25 prices in batches of 1 to 25.
            patch.setattr(OPT, "BLOCK_SIZE", 50)
            for threads in (1, 2):
                rows, _ = OPT.price_sweep(params, grid, space, threads=threads)
                for (r, d, eta, *_), res in zip(rows, want):
                    assert (d, eta) == (res.best_policy, res.best_eta), (params, r)
        if params.m <= 4:
            # An oracle that shares no code with the walk.
            policies = list(enumerate_policies(params.m, space))
            for (r, d, eta, *_) in rows[::4]:
                at_r = dataclasses.replace(params, price=r)
                best = max(policy_profit(at_r, p) for p in policies)
                assert abs(eta - best) <= 1e-12 * max(1.0, abs(best)), (params, r)


def test_price_sweep_refuses_non_finite_prices_before_searching(monkeypatch):
    calls = []
    monkeypatch.setattr(OPT, "critical_prices_global",
                        lambda *args, **kwargs: calls.append(args))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ConfigError, match="price must be finite"):
            OPT.price_sweep(micro_params(m=2), [0.0, 1.0, bad])
    assert calls == []
