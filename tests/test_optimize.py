"""Policy search, threshold structure, and the extreme-price closed forms."""

import dataclasses
import importlib
import itertools
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import sleepq.chain as CHAIN
import sleepq.sensitivity as SENS
from sleepq import (
    ConfigError,
    ConsistencyError,
    GateError,
    ModelParams,
    NumericalError,
    RegimeError,
    critical_prices_global,
    enumerate_policies,
    optimal_extreme_prices,
    optimize,
    params_to_text,
    policy_profit,
    policy_space_size,
    price_constant,
    realization_factors,
    threshold_policy,
    threshold_scan,
    verify_monotonicity,
)
from sleepq.chain import _rates, _state_rates
from sleepq.cli import main
from sleepq.model import _level_values
from sleepq.sensitivity import CriticalPrices, _margins, _skew
import block as BLOCK
from block import block_profits, block_ranking, policy_of_rank, space_etas
from conftest import (
    draw_instance,
    draw_params,
    heavy_instance,
    level_block,
    micro_params,
    random_policy,
    sleepy_params,
    wide_light_instance,
)
from exact import exact, exact_eta

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
    return block_profits(params, *level_block(block), np.array([params.price]))[0]


def _walk_best(params, space):
    """(best_policy, best_eta) of the enumeration of the space: its float
    argmax, ties to the smallest policy, as the enumeration walk ranked it
    before the rankings read the policy iteration."""
    [best] = block_ranking(params, space, 1)
    return best


def _traced_peak(search):
    """search's result and the peak of its traced allocations, in bytes."""
    tracemalloc.start()
    try:
        result = search()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
        assert _walk_best(params, "full")[1] == res.best_eta


def test_tie_break_is_lexicographic():
    # with all prices and costs zero every policy earns exactly zero
    params = micro_params(m=2, price=0.0, c_energy=0.0, c_hold_g1=0.0,
                          c_hold_g2=0.0, c_transfer=0.0, c_loss=0.0)
    res = optimize(params, "full")
    assert res.best_eta == 0.0
    assert res.best_policy == (0, 0)
    assert _walk_best(params, "full") == ((0, 0), 0.0)


@pytest.mark.parametrize("threads", [0, -1, 2.5, True, "2"])
def test_threads_must_be_none_or_a_positive_integer(micro, threads):
    with pytest.raises(ValueError, match="threads"):
        optimize(micro, "full", threads=threads)


@pytest.mark.parametrize("space", ["full", "bang_bang"])
@pytest.mark.parametrize("m", [9, 16, 30])
def test_a_rows_eta_does_not_depend_on_its_block(space, m):
    # The levels are summed in sequence whatever the block's width; numpy
    # sums a 1-row block's level axis pairwise, in another order.
    rng = np.random.default_rng(m)
    levels = _level_values(m, space)
    for count in (1, 3):
        params = draw_params(rng, m_min=m, m_max=m)
        prices = rng.uniform(0.0, 20.0, count)
        digits = rng.integers(0, len(levels[0]), (40, m))
        whole = block_profits(params, levels, digits, prices)
        for row in range(40):
            for rows in (1, 2):
                part = block_profits(params, levels, digits[row:row + rows], prices)
                assert np.array_equal(part, whole[:, row:row + rows])


@pytest.mark.parametrize("space, m_min, m_max", [
    ("full", 1, 5), ("reduced", 5, 8), ("bang_bang", 4, 12)])
def test_tree_search_matches_block_evaluation(space, m_min, m_max):
    # The enumeration tree of tests/block.py repeats the block evaluator's
    # operations in its order, so every eta is the same bit for bit.
    # optimize's eta is its policy's block eta; where a float tie hides
    # the exact winner, that policy is not the float argmax.
    rng = np.random.default_rng(47)
    for _ in range(6):
        params, _ = draw_instance(rng, n_max=6, m_min=m_min, m_max=m_max)
        etas = space_etas(params, space)
        policies = list(enumerate_policies(params.m, space))
        assert etas.tobytes() == _profits(params, policies).tobytes()
        want, _ = _walk_best(params, space)
        res = optimize(params, space)
        assert res.best_eta == _profits(params, [res.best_policy])[0]
        assert exact_eta(params, res.best_policy) >= exact_eta(params, want)
        assert res.evaluations == etas.size == policy_space_size(params.m, space)


def test_ranking_breaks_ties_by_policy():
    # Without an energy price a value above its level changes nothing, so
    # tie groups span the ranking; each top_k below cuts through one.
    params = micro_params(n=2, m=4, c_energy=0.0, lambda_=1.7)
    policies = list(enumerate_policies(params.m, "full"))
    expected = sorted(zip(policies, _profits(params, policies).tolist()),
                      key=lambda pair: (-pair[1], pair[0]))
    cuts = [i for i in range(1, len(expected))
            if expected[i - 1][1] == expected[i][1]][:3]
    assert len(cuts) == 3
    for top_k in cuts:
        res = optimize(params, "full", top_k=top_k)
        assert res.ranking == expected[:top_k]
        assert res.ranking[0] == (res.best_policy, res.best_eta)


@pytest.mark.parametrize("space", ["full", "reduced", "bang_bang", "threshold"])
def test_all_tied_ranking_is_lexicographic(space):
    # Zero prices and costs: every policy earns exactly zero.
    params = micro_params(m=4, p1_work=1.0, p2_work=2.0, p2_sleep=1.0,
                          price=0.0, c_energy=0.0, c_hold_g1=0.0,
                          c_hold_g2=0.0, c_transfer=0.0, c_loss=0.0)
    expected = [(d, 0.0) for d in sorted(enumerate_policies(4, space))[:3]]
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


def _block_oracle(params, prices, d=None, j=None):
    """block_profits of the threshold family in rank order, or with d and
    j of verify_monotonicity's sweep of coordinate j of d."""
    m = params.m
    if d is None:
        # Rank r, theta = r + 1, wakes the levels from r + 1 on.
        block = ([(0, j) for j in range(1, m + 1)],
                 np.arange(m)[None, :] >= np.arange(m + 1)[:, None])
    else:
        block = ([range(m + 1) if i == j else (v,) for i, v in enumerate(d, start=1)],
                 np.outer(np.arange(m + 1), np.arange(1, m + 1) == j))
    return block_profits(params, *block, np.array(prices, dtype=float))


def _outcome(call):
    """The result of call, or its refusal as (type, message)."""
    try:
        return call()
    except NumericalError as exc:
        return type(exc), str(exc)


def test_threshold_family_and_monotonicity_sweep_match_the_block_oracle():
    # Same bits as the block evaluator, the sign of zero included, at one
    # and three prices; every fifth draw overflows, and both refuse it.
    rng = np.random.default_rng(4040)
    draws = [micro_params(m=3, price=0.0, c_energy=0.0, c_hold_g1=0.0,
                          c_hold_g2=0.0, c_transfer=0.0, c_loss=0.0),
             micro_params(n=2, lambda_=2.0, mu1=1.0, mu2=1.0, m=1000)]
    for k in range(60):
        params = draw_params(rng, n_max=12, m_max=60)
        if k % 5 == 0:
            params = dataclasses.replace(params, n=int(rng.integers(50, 400)),
                                         lambda_=params.mu1 * 10.0 ** rng.uniform(1, 3.5))
        draws.append(params)
    refused = 0
    for params in draws:
        m = params.m
        d, j = random_policy(rng, m), int(rng.integers(1, m + 1))
        for prices in ([params.price], rng.uniform(0.0, 20.0, 3).tolist()):
            got = _outcome(lambda: OPT._threshold_family(params, prices))
            want = _outcome(lambda: _block_oracle(params, prices))
            if isinstance(want, tuple):
                refused += 1
                assert got == want, params
            else:
                assert got.tobytes() == want.tobytes(), params
        sweep = _outcome(lambda: verify_monotonicity(params, d, j).etas)
        want = _outcome(lambda: _block_oracle(params, [params.price], d, j)[0])
        if isinstance(want, tuple):
            assert sweep == want, params
        else:
            assert sweep.tobytes() == want.tobytes(), params
    assert 0 < refused < len(draws)


@pytest.mark.filterwarnings("error")
def test_an_overflowing_sleep_branch_refuses_every_threshold_search():
    # Awake, every level has lambda/nu at most 0.1; asleep, 1e60, so the
    # policies that sleep at enough levels overflow and the rest do not.
    params = micro_params(lambda_=1e60, mu2=1e61, m=8)
    awake = tuple(range(1, 9))
    assert np.isfinite(_block_oracle(params, [params.price], awake, 1)).all()
    for search in (lambda: threshold_scan(params),
                   lambda: optimize(params, "threshold"),
                   lambda: optimize(params, "threshold", top_k=3),
                   lambda: OPT._threshold_family(params, [0.0, 5.0, 10.0]),
                   lambda: verify_monotonicity(params, (0,) * 7 + (8,), 8)):
        with pytest.raises(NumericalError, match="^profits are not finite"):
            search()


@pytest.mark.parametrize("search, bound", [
    (lambda p: optimize(p, "threshold", top_k=3), 2**20),
    (lambda p: verify_monotonicity(p, tuple(range(1, p.m + 1)), 1), 2**20),
], ids=["optimize", "monotonicity"])
def test_threshold_and_monotonicity_memory_is_linear_in_m(search, bound):
    # A block of the m + 1 policies held an 8 MiB traced peak at m = 500
    # in each; one policy at a time from a shared prefix holds O(m).
    params = micro_params(n=2, lambda_=2.0, mu1=1.0, mu2=1.0, m=500)
    _, peak = _traced_peak(lambda: search(params))
    assert peak < bound


def test_threshold_price_sweep_memory_does_not_grow_with_the_grid():
    # 25 prices of a block of the m + 1 policies held a 16 MiB traced peak
    # at m = 200; the critical prices take one policy at a time. From
    # m = 200 the wide model's R_L is past the double range and refused, so
    # the sweep runs at m = 190.
    params = micro_params(n=2, lambda_=2.0, mu1=1.0, mu2=1.0, m=190)
    (rows, _), peak = _traced_peak(
        lambda: OPT.price_sweep(params, np.linspace(0.0, 20.0, 25), "threshold"))
    assert len(rows) == 25 and peak < 3 * 2**20


@pytest.mark.filterwarnings("error")
def test_threshold_sweeps_refuse_overflow():
    # Both sweeps evaluate a block of policies, and refuse it as optimize
    # does, before numpy warns about the overflow.
    params = micro_params(n=1000, lambda_=1000.0, mu1=1.0, m=3)
    with pytest.raises(NumericalError, match="profits are not finite"):
        threshold_scan(params)
    with pytest.raises(NumericalError, match="profits are not finite"):
        verify_monotonicity(params, (0, 0, 0), 2)


# Every one of its 10! policies has the same float eta: the deep levels'
# stationary mass lies below the last bit of eta.
WHOLE_SPACE_TIE = ModelParams(
    lambda_=0.13187228015187863, mu1=7.642437067556558,
    mu2=0.3533301140116197, n=8, m=9, p1_work=2.8739346481714785,
    p2_work=2.7470869667715547, p2_sleep=0.5868502544961551,
    c_energy=3.0735348212643276, c_hold_g1=3.26373760579358,
    c_hold_g2=4.684488981090898, c_transfer=0.37240070973975636,
    c_loss=2.3204713460404514, price=4.311429783033443)

# P2W one ulp above P2S: the rounding of the rates undercuts the cost of a
# level's own value by a value above it.
UNDERCUT = micro_params(m=3, p2_sleep=0.1, p2_work=math.nextafter(0.1, math.inf))


def _exact_argmax(params, space):
    """The space's optimum in exact arithmetic on the float rates, ties to
    the lexicographically smallest policy."""
    policies = list(enumerate_policies(params.m, space))
    etas = [exact_eta(params, d) for d in policies]
    return policies[etas.index(max(etas))]


def _meets_the_sign_condition(params, d):
    """d_j = j where the exact G(n,j) + c > 0 and 0 where it is < 0, and
    no exact margin is zero."""
    ex = exact(params, d)
    return all(g + ex.c != 0 and d[j - 1] == (j if g + ex.c > 0 else 0)
               for j, g in enumerate(ex.prf, start=1))


@pytest.mark.parametrize("space, m_max", [
    ("full", 6), ("reduced", 8), ("bang_bang", 12)])
def test_level_search_returns_the_walks_answer(space, m_max):
    # The policy iteration returns the walk's (policy, eta) bit for bit,
    # except where a float tie hides an exact winner: there its policy has
    # the larger exact eta, and its float eta is within an ulp or two of
    # the walk's.
    rng = np.random.default_rng(2027)
    corpus = [draw_params(rng, n_max=8, m_max=m_max) for _ in range(40)]
    corpus.append(micro_params(n=2, m=4, c_energy=0.0, lambda_=1.7))
    moved = 0
    for params in corpus:
        res = optimize(params, space)
        assert res.evaluations == policy_space_size(params.m, space)
        walk, walk_eta = _walk_best(params, space)
        if res.best_policy != walk:
            moved += 1
            assert exact_eta(params, res.best_policy) > exact_eta(params, walk), params
            assert abs(res.best_eta - walk_eta) <= 4 * np.spacing(abs(walk_eta)), params
        else:
            assert res.best_eta == walk_eta, params
    # Most answers are the walk's.
    assert moved <= 0.2 * len(corpus)


@pytest.mark.parametrize("space, m_max", [
    ("full", 4), ("reduced", 5), ("bang_bang", 8)])
def test_policy_iteration_returns_the_exact_argmax(space, m_max):
    # Exact enumeration of the space on the float rates; the c_energy = 0
    # micro model ties every value above a level with the level itself.
    rng = np.random.default_rng(4142)
    corpus = [draw_params(rng, n_max=8, m_max=m_max) for _ in range(10)]
    corpus += [micro_params(n=2, m=4, c_energy=0.0, lambda_=1.7), UNDERCUT]
    for params in corpus:
        res = optimize(params, space)
        assert res.best_policy == _exact_argmax(params, space), params
        assert res.best_eta == _profits(params, [res.best_policy])[0]


def test_the_full_space_wakes_to_the_cheapest_value_above_a_level():
    # P2W is one ulp above P2S, so at level 2 the float cost of value 3 is
    # below that of value 2, whose death rate it shares: the exact optimum
    # of the full space on the float rates takes 3 there.
    (death, cost), low = _rates(UNDERCUT, [(2, 2), (2, 3)]), UNDERCUT.n + 1
    assert death[low] == death[low + 1] and cost[low + 1] < cost[low]
    res = optimize(UNDERCUT, "full")
    assert res.best_policy == _exact_argmax(UNDERCUT, "full") == (1, 3, 3)
    assert res.best_eta == _profits(UNDERCUT, [res.best_policy])[0]
    assert optimize(UNDERCUT, "reduced").best_policy == (1, 2, 3)


def test_the_wake_choice_is_the_cheapest_value_of_the_rates():
    # _awake forms a level's costs only where a value above it has a
    # smaller energy cost; its choice is the first least cost of j..m
    # under chain._rates at every level. P2W near P2S makes undercuts.
    rng = np.random.default_rng(4243)
    undercut = 0
    for k in range(300):
        params, _ = draw_instance(rng, n_max=5, m_max=6)
        if k % 2:
            params = dataclasses.replace(
                params, p2_work=math.nextafter(params.p2_sleep, math.inf) if k % 4 == 1
                else params.p2_sleep * (1 + 1e-15))
        m, low = params.m, params.n + 1
        brute = []
        for j in range(1, m + 1):
            cost = _rates(params, [(j, v) for v in range(j, m + 1)])[1][low:]
            brute.append(j + cost.index(min(cost)))
        assert OPT._awake(params, "full") == tuple(brute), params
        undercut += tuple(brute) != tuple(range(1, m + 1))
    assert OPT._awake(UNDERCUT, "full") == (1, 3, 3) and undercut > 0


def test_a_policy_that_comes_back_is_refused(monkeypatch):
    # Every step raises the exact eta, so a policy that comes back means a
    # bound failed: margins that flip with the policy never settle.
    def flipping(params, d, price, skew):
        value = np.where(np.array(d) > 0, -1.0, 1.0)
        return value, np.zeros_like(value)

    monkeypatch.setattr(OPT, "_margins", flipping)
    with pytest.raises(NumericalError, match="came back to a policy"):
        optimize(micro_params(m=3), "bang_bang")


def test_a_whole_space_tie_is_ranked_by_the_walk():
    # The walk ranks the float tie and returns its smallest policy. The
    # signs of G + c pick the exact optimum, holding O(m) floats: the
    # exact argmax of the 2^9 bang-bang policies, which meets the sign
    # condition, so it is the optimum of the 10! reduced policies too. All
    # asleep is both here.
    walk, walk_eta = _walk_best(WHOLE_SPACE_TIE, "reduced")
    res, peak = _traced_peak(lambda: optimize(WHOLE_SPACE_TIE, "reduced"))
    assert (res.best_policy, res.best_eta) == (walk, walk_eta) == ((0,) * 9, walk_eta)
    assert res.best_policy == _exact_argmax(WHOLE_SPACE_TIE, "bang_bang")
    assert _meets_the_sign_condition(WHOLE_SPACE_TIE, res.best_policy)
    assert optimize(WHOLE_SPACE_TIE, "bang_bang") == dataclasses.replace(
        res, space="bang_bang", evaluations=2**9)
    assert peak < 2**17


@pytest.mark.parametrize("space", ["full", "reduced", "bang_bang"])
def test_near_ties_hold_every_float_maximizer(space):
    # Every policy whose float eta is the space's float maximum has an
    # exact eta no larger than the answer's, and the answer's float eta is
    # within an ulp or two of that maximum.
    rng = np.random.default_rng(2028)
    corpus = [draw_params(rng, n_max=8, m_max=6) for _ in range(15)]
    corpus.append(micro_params(n=2, m=4, c_energy=0.0, lambda_=1.7))
    for params in corpus:
        etas = space_etas(params, space)
        res = optimize(params, space)
        best = exact_eta(params, res.best_policy)
        top = etas.max()
        assert abs(res.best_eta - top) <= 4 * np.spacing(abs(top)), params
        for rank in np.flatnonzero(etas == top):
            d = policy_of_rank(params.m, space, int(rank))
            assert exact_eta(params, d) <= best, (params, d)


def test_error_bounds_hold_on_exact_margins():
    # e_j bounds the distance of the float G(n,j) + c from the exact one,
    # and from the exact price of waking level j on the float rates, for
    # any policy: light, heavy and wide draws, at their prices and at 0.
    rng = np.random.default_rng(4143)
    draws = [(draw_params(rng, n_max=8, m_max=12), None) for _ in range(30)]
    draws += [heavy_instance(rng) for _ in range(8)]
    draws += [wide_light_instance(rng) for _ in range(2)]
    for params, d in draws:
        d = d or random_policy(rng, params.m)
        n, scale = params.n, 0.0
        for price in (params.price, 0.0):
            at = dataclasses.replace(params, price=price)
            value, bound = _margins(at, d, price, _skew(at))
            ex = exact(at, d)
            for j in range(1, params.m + 1):
                waking = [_state_rates(at, d[:j - 1] + (v,) + d[j:]) for v in (0, j)]
                (nu_0, cost_0), (nu_j, cost_j) = (
                    (Fraction(death[n + j]), Fraction(cost[n + j])) for death, cost in waking)
                star = ex.prf[j - 1] + price - (cost_j - cost_0) / (nu_j - nu_0)
                for target in (ex.prf[j - 1] + ex.c, star):
                    assert abs(Fraction(value[j - 1]) - target) <= bound[j - 1], (params, d, j)
            scale = max(scale, float(np.max(np.abs(value))))
        # A bound that is met trivially shows nothing.
        assert bound.max() < 1e-8 * max(1.0, scale), (params, d)


def test_the_iterations_g_plus_c_is_the_printed_one():
    # The policy iteration signs the G(n,j) + c that _factor_plus_c gives
    # threshold_scan and perturbation_factors signs, bit for bit, on light
    # and heavy draws. Formed as R (1 + slope) + intercept - k, it differed
    # in its last bits at 1 596 of the 3 107 light levels and 364 of the
    # 670 heavy ones.
    rng = np.random.default_rng(2468)
    draws = [draw_instance(rng) for _ in range(300)]
    draws += [heavy_instance(rng) for _ in range(20)]
    for params, d in draws:
        value, _ = _margins(params, d, params.price, _skew(params))
        printed = [SENS._factor_plus_c(params, d, j) for j in range(1, params.m + 1)]
        assert value.tobytes() == np.array(printed).tobytes(), (params, d)
        assert np.array_equal(np.sign(value), SENS.perturbation_factors(params, d).signs)


def test_the_answers_eta_reads_its_policy_record(monkeypatch):
    # optimize without top_k builds the answer's tables from the rates its
    # policy record holds, with no _value_rates pass, and its eta is the
    # top_k=1 ranking's.
    calls, value_rates = [], CHAIN._value_rates

    def counted(*args):
        calls.append(args)
        return value_rates(*args)

    for module in (CHAIN, OPT):
        monkeypatch.setattr(module, "_value_rates", counted, raising=False)
    rng = np.random.default_rng(4243)
    corpus = [draw_params(rng, n_max=6, m_max=6) for _ in range(60)]
    corpus += [heavy_instance(rng)[0] for _ in range(4)]
    for params in corpus:
        for space in ("full", "reduced", "bang_bang"):
            res = optimize(params, space)
            assert not calls, (params, space)
            if params.m <= 6:
                ranked = optimize(params, space, top_k=1)
                assert res.best_eta == ranked.best_eta, (params, space)
                calls.clear()


def test_every_answer_on_a_desk_corpus_meets_the_sign_condition():
    # On these 300 draws the walk's float argmax broke the condition on 63
    # bang-bang answers. Each space that its gate lets through answers
    # with the one bang-bang policy.
    rng = np.random.default_rng(4041)
    for _ in range(300):
        params = draw_params(rng, n_max=8, m_max=16)
        res = optimize(params, "bang_bang")
        assert _meets_the_sign_condition(params, res.best_policy), params
        for space, gate in (("full", 8), ("reduced", 10)):
            if params.m <= gate:
                assert optimize(params, space) == dataclasses.replace(
                    res, space=space, evaluations=policy_space_size(params.m, space))


def test_sensitivity_policy_iteration_reaches_the_bang_bang_optimum():
    # The paper's step: wake level j where G(n,j) + c > 0 and put it to
    # sleep where G(n,j) + c < 0. Its fixed point is a bang-bang optimum.
    rng = np.random.default_rng(2031)
    for _ in range(40):
        params = draw_params(rng, n_max=8, m_max=12)
        m, c = params.m, price_constant(params)
        d = (0,) * m
        for _ in range(m + 1):
            g = realization_factors(params, d) + c
            step = tuple(j if g[j - 1] > 0 else 0 if g[j - 1] < 0 else d[j - 1]
                         for j in range(1, m + 1))
            if step == d:
                break
            d = step
        else:
            pytest.fail(f"no fixed point after {m + 1} steps: {params}")
        best = optimize(params, "bang_bang").best_eta
        assert abs(policy_profit(params, d) - best) <= 1e-12 * max(1.0, abs(best))


def _search_outcome(search):
    try:
        return search()
    except NumericalError as exc:
        assert "not finite" in str(exc)
        return "refused"


@pytest.mark.filterwarnings("error")
def test_level_search_refuses_where_the_walk_refuses():
    # Heavy desk draws, m cut so the walk stays cheap, and sweeps of
    # lambda across the overflow of the stationary weights. The profit
    # sums overflow to -inf at a price of 0, to +inf at 10, and before the
    # weights do at 1e12. The policy iteration refuses only where the walk
    # refuses; it answers where only some policies of the space overflow
    # and its optimum does not, and where both answer its policy has the
    # larger exact eta, or is the walk's.
    rng = np.random.default_rng(2026)
    cases = []
    for _ in range(100):
        params, _ = heavy_instance(rng)
        cases += [(dataclasses.replace(params, m=min(params.m, cut)), space)
                  for space, cut in (("full", 6), ("reduced", 8), ("bang_bang", 12))]
    for space, m in (("full", 4), ("reduced", 5), ("bang_bang", 10)):
        for price, e in itertools.product(
                (0.0, 10.0, 1e12), np.linspace(290 / (m + 1), 312 / (m + 1), 23)):
            cases.append((micro_params(m=m, lambda_=float(10.0 ** e),
                                       c_loss=0.0, price=price), space))
    refused = answered = 0
    for params, space in cases:
        res = _search_outcome(lambda: optimize(params, space))
        walk = _search_outcome(lambda: _walk_best(params, space))
        if res == "refused":
            assert walk == "refused", (params, space)
            refused += 1
        elif walk == "refused":
            answered += 1
        elif res.best_policy != walk[0]:
            assert exact_eta(params, res.best_policy) > exact_eta(params, walk[0])
    assert 0 < refused and 0 < answered and refused + answered < len(cases)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("space, m", [("full", 5), ("reduced", 7), ("bang_bang", 10)])
def test_an_overflowing_sleep_branch_is_refused(space, m):
    # Group 2 serves 1e61 jobs per unit time awake, so every awake level
    # has lambda/nu at most 0.1 and the awake policies' profits are
    # finite; asleep, lambda/nu = 1e60, and the weights of the policies
    # that sleep at all of levels 1 to 5 overflow. The walk forms them and
    # refuses the space; the policy iteration answers with the all-awake
    # policy. No margin of it lies below its band. At m = 10 the three
    # lowest, near 1e-15, lie inside it; asleep there, the policy's own
    # margins there clear their bound, so those levels stay awake.
    params = micro_params(lambda_=1e60, mu2=1e61, m=m)
    awake = tuple(range(1, m + 1))
    assert np.isfinite(_profits(params, [awake])).all()
    with pytest.raises(NumericalError, match="not finite"):
        _walk_best(params, space)
    res = optimize(params, space)
    assert res.best_policy == awake
    assert res.best_eta == _profits(params, [awake])[0]
    value, bound = _margins(params, awake, params.price, _skew(params))
    assert (value > bound).sum() == (m if m < 10 else m - 3)
    assert (value > -bound).all()
    low = (0, 0, 0) + awake[3:]
    value, bound = _margins(params, low, params.price, _skew(params))
    assert m < 10 or (value[:3] > bound[:3]).all()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("space, m", [("full", 4), ("reduced", 5), ("bang_bang", 7)])
def test_many_chunks_refuse_an_overflow_without_a_warning(space, m, monkeypatch):
    # lambda is raised until the weights of the first n + m levels pass
    # 1e320. A ranking refuses the realization factors of its first
    # candidate as optimize without top_k does, and the enumeration of
    # tests/block.py, in chunks of at most 7 leaves, refuses the profits
    # at every grid price.
    monkeypatch.setattr(BLOCK, "CHUNK", 7)
    rng = np.random.default_rng(2026)
    grid = [float(r) for r in np.linspace(0.0, 10.0, 5)]
    for _ in range(4):
        params, _ = heavy_instance(rng)
        params = dataclasses.replace(
            params, m=m, lambda_=params.mu1 * 10.0 ** (320 / (params.n + m)))
        for top_k in (None, 3):
            with pytest.raises(NumericalError, match="not finite"):
                optimize(params, space, top_k=top_k)
        # price_sweep's critical prices answer, as their prefix and suffix
        # sums are ratios of weights, and its policy iteration refuses the
        # realization factors.
        with pytest.raises(NumericalError, match="not finite"):
            OPT.price_sweep(params, grid, space)
        for r in grid:
            with pytest.raises(NumericalError, match="profits are not finite"):
                space_etas(dataclasses.replace(params, price=r), space)


def _near_tie(params, space) -> bool:
    """Whether two policies of a space have float etas within 4 ulps."""
    etas = np.sort(space_etas(params, space))
    return bool((np.diff(etas) <= 4 * np.spacing(np.abs(etas[1:]))).any())


def test_whole_space_ranking_unranks_every_policy_once():
    # A top_k past the size of the space ranks the whole space, each
    # policy once, and every top_k is a prefix of it. Where no two float
    # etas lie within 4 ulps it is the float order of the enumeration.
    rng = np.random.default_rng(48)
    cases = [(draw_instance(rng, n_max=6, m_min=m, m_max=m)[0], space)
             for space, m in (("bang_bang", 8), ("full", 4), ("reduced", 5))]
    # UNDERCUT wakes level 2 to 3, a value above the level, so taking a
    # value out of that untouched level parts it both ways.
    for params, space in cases + [(UNDERCUT, "full")]:
        m = params.m
        total = policy_space_size(m, space)
        whole = optimize(params, space, top_k=total + 5).ranking
        assert sorted(d for d, _ in whole) == list(enumerate_policies(m, space))
        if not _near_tie(params, space):
            assert whole == block_ranking(params, space), (params, space)
        for k in (1, 2, 17, total - 1):
            assert optimize(params, space, top_k=k).ranking == whole[:k]


def _search_sets(seed):
    """The four parameter sets of the search benchmark workload at a seed:
    n = 2, rates log-uniform in 0.5..2, costs and price as draw_params."""
    rng = np.random.default_rng([seed, 2])
    sets = []
    for _ in range(4):
        lam, mu1, mu2 = (float(10.0 ** rng.uniform(math.log10(0.5), math.log10(2.0)))
                         for _ in range(3))
        p2_work = float(rng.uniform(0.2, 4.0))
        sets.append(ModelParams(
            lambda_=lam, mu1=mu1, mu2=mu2, n=2, m=1,
            p1_work=float(rng.uniform(0.2, 4.0)), p2_work=p2_work,
            p2_sleep=p2_work * float(rng.uniform(0.05, 0.95)),
            c_energy=float(rng.uniform(0.0, 5.0)), c_hold_g1=float(rng.uniform(0.0, 5.0)),
            c_hold_g2=float(rng.uniform(0.0, 5.0)), c_transfer=float(rng.uniform(0.0, 5.0)),
            c_loss=float(rng.uniform(0.0, 5.0)), price=float(rng.uniform(0.0, 20.0))))
    return sets


def test_a_ranking_starts_with_the_answer():
    # The enumeration walk's first entry differed from best_policy on 7 of
    # the search workload's bang-bang m = 12 sets over seeds 1-100, where a
    # float tie hid the exact winner. A ranking's first candidate is the
    # whole space's iteration, so it is the answer in every product space,
    # on desk, heavy and search-workload parameters.
    rng = np.random.default_rng(5150)
    cases = [(draw_params(rng, n_max=8, m_max=8), space)
             for _ in range(20) for space in ("full", "reduced", "bang_bang")]
    for _ in range(10):
        params, _ = heavy_instance(rng)
        cases += [(dataclasses.replace(params, m=cut), space)
                  for space, cut in (("full", 6), ("reduced", 8), ("bang_bang", 12))]
    cases += [(dataclasses.replace(base, m=m), space) for seed in range(1, 101)
              for base in _search_sets(seed)
              for space, m in (("full", 6), ("reduced", 7), ("bang_bang", 12))]
    for params, space in cases:
        res = optimize(params, space)
        ranked = optimize(params, space, top_k=2)
        assert ranked.ranking[0] == (res.best_policy, res.best_eta), (params, space)
        assert ranked == dataclasses.replace(res, ranking=ranked.ranking)


@pytest.mark.parametrize("space, m_max", [("full", 5), ("reduced", 5), ("bang_bang", 8)])
def test_rankings_follow_the_exact_order(space, m_max):
    # The 40 best of desk draws against the exact brute-force order of the
    # space (ties by policy). The candidates compare float etas, so an
    # entry can stand where the exact order has another only if the two
    # float etas lie within 4 ulps; where no two etas of the space do, the
    # ranking is also the float order of the enumeration. The two tie draws
    # have almost no float mass at their deep levels: their policies share
    # a few float etas, 1 and 14 of the 2^5 bang-bang ones, and the exact
    # order splits those ties, as it does UNDERCUT's values above a level.
    rng = np.random.default_rng(5151)
    corpus = [draw_params(rng, n_max=8, m_max=m_max) for _ in range(30)]
    rng = np.random.default_rng(7)
    ties = [draw_params(rng, n_max=8, m_max=5) for _ in range(17)]
    matched = 0
    for params in corpus + [ties[11], ties[16], UNDERCUT]:
        policies = list(enumerate_policies(params.m, space))
        floats = dict(zip(policies, space_etas(params, space).tolist()))
        # Only policies whose float eta lies within 1e-6 of the 40th best
        # can enter the exact 40 best: the floats are off by far less.
        cut = sorted(floats.values(), reverse=True)[:40][-1] - 1e-6 * max(1.0, abs(
            max(floats.values())))
        exact_order = sorted((d for d in policies if floats[d] >= cut),
                             key=lambda d: (-exact_eta(params, d), d))[:40]
        ranking = optimize(params, space, top_k=40).ranking
        assert len(ranking) == len(exact_order)
        for (d, eta), want in zip(ranking, exact_order):
            assert eta == floats[d], (params, d)
            assert abs(eta - floats[want]) <= 4 * np.spacing(abs(eta)), (params, d, want)
        matched += [d for d, _ in ranking] == exact_order
        if not _near_tie(params, space):
            assert ranking == block_ranking(params, space, 40), params
    assert matched >= len(corpus)


def test_rankings_answer_past_the_enumeration():
    # The walk refused full m = 9 and reduced m = 12 at its size gate, and
    # bang-bang m = 200 at its byte budget. Lawler's partition takes about
    # k m restricted iterations: 0.4-0.6 s for bang-bang m = 200 on a
    # shared 2-core host.
    for space, m in (("full", 9), ("reduced", 12), ("bang_bang", 200)):
        params = micro_params(lambda_=3.0, mu2=0.8, n=3, m=m)
        start = time.perf_counter()
        res = optimize(params, space, top_k=5)
        assert time.perf_counter() - start < 5.0, (space, m)
        best = optimize(params, space)
        assert res.ranking[0] == (best.best_policy, best.best_eta)
        assert len({d for d, _ in res.ranking}) == 5
        for d, eta in res.ranking:
            assert OPT._profit(params, d, [params.price]) == [eta]


def test_the_wide_model_answers_at_scale():
    # The enumeration walk took 9.8 s at m = 30 and refused from m = 42.
    # Without top_k each step of the policy iteration is one O(m) pass,
    # and every margin of the answer clears its bound.
    wide = micro_params(n=2, lambda_=2.0, mu1=1.0, mu2=1.0)
    for m, space in [(30, "bang_bang"), (100, "bang_bang")] + [
            (1000, space) for space in ("full", "reduced", "bang_bang")]:
        params = dataclasses.replace(wide, m=m)
        res = optimize(params, space)
        value, bound = _margins(params, res.best_policy, params.price, _skew(params))
        assert (np.abs(value) > bound).all() and res.evaluations == policy_space_size(m, space)
    # The full space's wake choice holds O(m) floats: it formed all
    # m(m+1)/2 value costs, 307.6 MiB at m = 2 000.
    params = dataclasses.replace(wide, m=2000)
    res, peak = _traced_peak(lambda: optimize(params, "full"))
    value, bound = _margins(params, res.best_policy, params.price, _skew(params))
    assert (np.abs(value) > bound).all() and peak < 8 * 2**20
    # The sweep's R_H and R_L come from the per-level DPs, which enumerate
    # none of the 2^100 policies.
    params = dataclasses.replace(wide, m=100)
    rows, _ = OPT.price_sweep(params, np.linspace(0.0, 20.0, 25), "bang_bang")
    assert len(rows) == 25
    for r, d, eta, *_ in rows:
        assert optimize(dataclasses.replace(params, price=r), "bang_bang").best_policy == d
        value, bound = _margins(params, d, r, _skew(params))
        assert (np.abs(value) > bound).all(), r


def test_bang_bang_critical_prices_are_refused_at_scale():
    # The 2^100 bang-bang policies of the wide model were enumerated by the
    # critical prices, which no call finished, in price_sweep too. The
    # per-level DPs enumerate no policy; from m = 200 the smallest root of
    # level 1 is not a double, and every product space refuses it there,
    # in O(m).
    for m in (1000, 2000):
        params = micro_params(n=2, lambda_=2.0, mu1=1.0, mu2=1.0, m=m)
        for space in ("full", "reduced", "bang_bang"):
            for search in (lambda: critical_prices_global(params, space),
                           lambda: OPT.price_sweep(params, [0.0, 20.0], space)):
                start = time.perf_counter()
                with pytest.raises(NumericalError, match="level 1 is not a finite double"):
                    search()
                assert time.perf_counter() - start < 0.25, (m, space)


def test_space_gate_and_override():
    # Only enumerate_policies enumerates, so only it takes the size gate:
    # optimize answers full m = 9, with and without top_k, where the
    # enumeration needs allow_large.
    params = micro_params(m=9)
    res = optimize(params, "full")
    value, bound = _margins(params, res.best_policy, params.price, _skew(params))
    assert (np.abs(value) > bound).all() and res.evaluations == 10**9
    ranked = optimize(params, "full", top_k=2)
    assert ranked.ranking[0] == (res.best_policy, res.best_eta)
    assert ranked.evaluations == 10**9
    with pytest.raises(GateError, match="allow_large"):
        enumerate_policies(9, "full")
    assert next(iter(enumerate_policies(9, "full", True))) == (0,) * 9
    res = optimize(params, "threshold")  # m + 1 policies
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
    # The chain module's memo keeps each policy's lines for the next call.
    seen = []
    sensitivity = importlib.import_module("sleepq.sensitivity")
    record_lines = sensitivity._record_lines

    def counted(record):
        seen.append(record.policy)
        return record_lines(record)

    monkeypatch.setattr(sensitivity, "_record_lines", counted)
    # theta* = 1 < m, so the theta*+1 policy serves two sign terms.
    assert threshold_scan(micro_params(n=2, m=5)).theta_star == 1
    assert sorted(seen) == [threshold_policy(5, 2), threshold_policy(5, 1)]


def test_threshold_scan_memory_stays_bounded_as_m_grows():
    # The m + 1 threshold policies are evaluated one at a time from a
    # shared prefix: one block of all of them held a 31.7 MiB traced peak
    # at m = 1 000, growing as m^2.
    params = micro_params(n=2, lambda_=2.0, mu1=1.0, mu2=1.0, m=1000)
    scan, peak = _traced_peak(lambda: threshold_scan(params))
    assert scan.eta_by_theta.shape == (1001,)
    assert peak < 12 * 2**20


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
    # Only the first three draws with m <= 12 enumerate their whole space.
    rng = np.random.default_rng(13)
    ranked = 0
    for _ in range(200):
        params, _ = draw_instance(rng, n_max=8, m_min=8, m_max=14)
        m = params.m
        bang = optimize(params, "bang_bang")
        assert bang.best_eta >= optimize(params, "threshold").best_eta, params
        if m <= 12 and ranked < 3:
            ranked += 1
            etas = dict(zip(enumerate_policies(m, "bang_bang"),
                            space_etas(params, "bang_bang").tolist()))
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


def test_extreme_prices_compute_their_own_critical_prices():
    # Without crit, the full-space critical prices are computed first.
    d_star, eta = optimal_extreme_prices(micro_params(price=100.0), "high")
    assert d_star == (1,)
    assert eta == pytest.approx(75.86, abs=1e-10)
    with pytest.raises(RegimeError, match="R_H"):
        optimal_extreme_prices(sleepy_params(), "high")


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


def test_monotonicity_sweep_is_the_trees_eta():
    # The sweep gathers from singleton levels and one level of every value;
    # each of its etas is the enumeration's for that policy, bit for bit.
    rng = np.random.default_rng(3638)
    for _ in range(40):
        params = draw_params(rng, n_max=6, m_max=4)
        m = params.m
        ranked = dict(zip(enumerate_policies(m, "full"), space_etas(params, "full").tolist()))
        d = random_policy(rng, m)
        for j in range(1, m + 1):
            etas = verify_monotonicity(params, d, j).etas
            for v in range(m + 1):
                want = ranked[d[:j - 1] + (v,) + d[j:]]
                assert float(etas[v]).hex() == want.hex(), (params, d, j, v)


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
    # The sweep's search from the previous row's policy must give each
    # price the optimize answer bit for bit.
    rng = np.random.default_rng(53)
    corpus = [draw_params(rng, n_max=6, m_max=m_max) for _ in range(4)]
    corpus.append(micro_params(n=2, m=m_max, c_energy=0.0, lambda_=1.7))  # ties
    for params in corpus:
        grid = [float(r) for r in np.linspace(0.0, rng.uniform(5.0, 60.0), 25)]
        want = [optimize(dataclasses.replace(params, price=r), space)
                for r in grid]
        rows, _ = OPT.price_sweep(params, grid, space)
        for (r, d, eta, *_), res in zip(rows, want):
            assert (d, eta) == (res.best_policy, res.best_eta), (params, r)
        if params.m <= 4:
            # An oracle that shares no code with the search.
            policies = list(enumerate_policies(params.m, space))
            for (r, d, eta, *_) in rows[::4]:
                at_r = dataclasses.replace(params, price=r)
                best = max(policy_profit(at_r, p) for p in policies)
                assert abs(eta - best) <= 1e-12 * max(1.0, abs(best)), (params, r)


@pytest.mark.parametrize("grid, message", [
    ([], "price grid must be nonempty"),
    ([1.0, -0.5], "prices must be >= 0"),
])
def test_price_sweep_refuses_an_empty_grid_and_negative_prices(grid, message):
    with pytest.raises(ValueError, match=message):
        OPT.price_sweep(micro_params(m=2), grid)


@pytest.mark.parametrize("space", ["full", "threshold"])
def test_price_sweep_reconciles_eta_with_the_affine_form(space, monkeypatch, tmp_path,
                                                         capsys):
    # Every row's eta must equal R * completion_rate - cost_rate of its
    # policy; a completion rate off by 1e-6 leaves that form at R > 0.
    components = OPT.profit_components

    def shifted(*args):
        completions, cost = components(*args)
        return completions + 1e-6, cost

    monkeypatch.setattr(OPT, "profit_components", shifted)
    params = micro_params(n=2, m=3)
    with pytest.raises(ConsistencyError, match="deviates from the affine form"):
        OPT.price_sweep(params, [0.0, 5.0, 10.0], space)
    model = tmp_path / "model.cfg"
    model.write_text(params_to_text(params))
    assert main(["price-sweep", "--model", str(model), "--from", "0", "--to", "10",
                 "--steps", "3", "--space", space]) == 4
    assert "deviates from the affine form" in capsys.readouterr().err


def test_price_sweep_refuses_non_finite_prices_before_searching(monkeypatch):
    calls = []
    monkeypatch.setattr(OPT, "critical_prices_global",
                        lambda *args, **kwargs: calls.append(args))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ConfigError, match="price must be finite"):
            OPT.price_sweep(micro_params(m=2), [0.0, 1.0, bad])
    assert calls == []
