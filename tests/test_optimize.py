"""Policy search, threshold structure, and the extreme-price closed forms."""

import dataclasses
import importlib
import itertools
import tracemalloc

import numpy as np
import pytest

from sleepq import (
    ConfigError,
    GateError,
    ModelParams,
    NumericalError,
    RegimeError,
    critical_prices_global,
    enumerate_policies,
    optimal_extreme_prices,
    optimize,
    policy_profit,
    policy_space_size,
    price_constant,
    realization_factors,
    threshold_policy,
    threshold_scan,
    verify_monotonicity,
)
from sleepq.model import _level_values, _policy_block, _space_block
from block import block_profits
from conftest import (
    draw_instance,
    draw_params,
    heavy_instance,
    level_block,
    micro_params,
    random_policy,
    sleepy_params,
)

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
    """(best_policy, best_eta) of the enumeration walk alone."""
    [(neg, policy)], = OPT._rankings(params, space, 1, [params.price])
    return policy, -neg


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


def test_walk_holds_one_leaf_sized_buffer_set():
    # Two full parity sets of (q + 2) * BLOCK_SIZE floats peak at 3.1 MB
    # here; a leaf set without P and a set for the levels below the leaves
    # stay under 2 MB.
    params = micro_params(n=2, m=7)
    walk, peak = _traced_peak(lambda: _walk_best(params, "full"))
    assert peak < 2 * 2**20
    # The level DP holds a few lists of m value counts.
    res, dp_peak = _traced_peak(lambda: optimize(params, "full"))
    assert (res.best_policy, res.best_eta) == walk
    assert dp_peak < 2**17


def test_walk_buffers_fit_a_space_smaller_than_a_chunk():
    # Buffers for a whole chunk of split-level prefixes peak at 1.5 MB on
    # the 6**5 policies of full m=5; sized to the prefixes there are, the
    # walk stays near 0.3 MB.
    params = micro_params(lambda_=3.0, mu2=0.8, n=3, m=5)
    res, peak = _traced_peak(lambda: optimize(params, "full", top_k=5))
    assert res.ranking[0] == (res.best_policy, res.best_eta)
    assert peak < 0.6 * 2**20


@pytest.mark.parametrize("space", ["full", "reduced", "bang_bang", "threshold"])
def test_policy_block_unranks_in_enumeration_order(space):
    for m in range(1, 5):
        total = policy_space_size(m, space)
        block = _policy_block(m, space, np.arange(total))
        assert [tuple(int(v) for v in row) for row in block] == \
            list(enumerate_policies(m, space))


def test_threshold_block_stacks_the_threshold_policies():
    for m in range(1, 13):
        # Unsorted, with repeats.
        ranks = np.array([m, 0, m // 2, m, 0, *range(m + 1)])
        want = np.array([threshold_policy(m, int(r) + 1) for r in ranks], dtype=np.int64)
        block = _policy_block(m, "threshold", ranks)
        assert block.dtype == np.int64 and np.array_equal(block, want)


@pytest.mark.parametrize("space", ["full", "reduced", "bang_bang", "threshold"])
def test_space_block_is_the_one_unranker(space):
    for m in range(1, 5):
        size = policy_space_size(m, space)
        levels, digits = _space_block(m, space, range(size))
        values = [tuple(levels[j][v] for j, v in enumerate(row))
                  for row in digits.tolist()]
        assert values == list(enumerate_policies(m, space))
        block = _policy_block(m, space, range(size))
        assert block.dtype == np.int64 and block.tolist() == [list(d) for d in values]
    for m in range(1, 13):
        # Unsorted, with repeats.
        ranks = np.array([m, 0, m // 2, m, 0, *range(m + 1)])
        want = [np.array(threshold_policy(m, int(r) + 1)) != 0 for r in ranks]
        assert np.array_equal(_space_block(m, "threshold", ranks)[1], want)


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


def _block_etas(params, space):
    """block_profits over a whole space, unranked in BLOCK_SIZE pieces."""
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
        assert _walk_best(params, space) == (want, etas[best])
        assert res.best_policy == want
        assert res.best_eta == etas[best]
        assert res.evaluations == etas.size == policy_space_size(params.m, space)


@pytest.mark.parametrize("space, m", [
    ("full", 4), ("reduced", 5), ("bang_bang", 7), ("threshold", 6)])
def test_chunking_changes_nothing(space, m, monkeypatch):
    # c_energy=0 makes every value above its level tie with the level.
    params = micro_params(n=2, m=m, c_energy=0.0, lambda_=1.7)
    whole = optimize(params, space, top_k=12)
    best = (whole.best_policy, whole.best_eta)
    for size in (1, 7, 50):
        monkeypatch.setattr(OPT, "BLOCK_SIZE", size)
        assert optimize(params, space, top_k=12) == whole
        assert optimize(params, space) == dataclasses.replace(whole, ranking=None)
        # optimize without top_k takes the level DP; the k=1 walk is the
        # one it falls back to.
        assert _walk_best(params, space) == best


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


def _block_oracle(params, prices, d=None, j=None):
    """block_profits of the threshold family in rank order, or with d and
    j of verify_monotonicity's sweep of coordinate j of d."""
    m = params.m
    if d is None:
        block = _space_block(m, "threshold", np.arange(m + 1))
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
                   lambda: OPT._rankings(params, "threshold", 1, [0.0, 5.0, 10.0]),
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
    # at m = 200; the peak left is critical_prices_global's own block.
    params = micro_params(n=2, lambda_=2.0, mu1=1.0, mu2=1.0, m=200)
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


@pytest.mark.parametrize("space, m_max", [
    ("full", 6), ("reduced", 8), ("bang_bang", 12)])
def test_level_search_returns_the_walks_answer(space, m_max):
    # The level DP must give the walk's (policy, eta) bit for bit, ties
    # included, and leave few draws to the walk.
    rng = np.random.default_rng(2027)
    corpus = [draw_params(rng, n_max=8, m_max=m_max) for _ in range(40)]
    corpus.append(micro_params(n=2, m=4, c_energy=0.0, lambda_=1.7))
    searched = 0
    for params in corpus:
        res = optimize(params, space)
        assert (res.best_policy, res.best_eta) == _walk_best(params, space), params
        assert res.evaluations == policy_space_size(params.m, space)
        searched += OPT._near_best(params, space) is not None
    assert searched >= 0.8 * len(corpus)


def test_a_whole_space_tie_is_ranked_by_the_walk():
    assert OPT._near_best(WHOLE_SPACE_TIE, "reduced") is None
    res, peak = _traced_peak(lambda: optimize(WHOLE_SPACE_TIE, "reduced"))
    walk, walk_peak = _traced_peak(lambda: _walk_best(WHOLE_SPACE_TIE, "reduced"))
    assert (res.best_policy, res.best_eta) == walk
    # The level DP given up adds no array of the size of the walk's.
    assert peak < walk_peak + 2**17


@pytest.mark.parametrize("space", ["full", "reduced", "bang_bang"])
def test_near_ties_hold_every_float_maximizer(space, monkeypatch):
    # Without the cap, the kept subtree must hold every policy whose eta
    # is the space's float maximum, each with its block eta bit for bit:
    # this checks the rounding bound of the recovery directly.
    monkeypatch.setattr(OPT, "_TIE_CAP", 10**6)
    rng = np.random.default_rng(2028)
    corpus = [draw_params(rng, n_max=8, m_max=6) for _ in range(15)]
    corpus.append(micro_params(n=2, m=4, c_energy=0.0, lambda_=1.7))
    for params in corpus:
        etas = _block_etas(params, space)
        policies = [tuple(row) for row in _policy_block(
            params.m, space, np.arange(etas.size)).tolist()]
        near = OPT._near_best(params, space)
        assert [d for d, _ in near] == sorted(d for d, _ in near)
        kept = dict(near)
        for rank in np.flatnonzero(etas == etas.max()):
            assert kept[policies[rank]] == etas[rank], (params, policies[rank])
        for d, eta in near:
            assert eta == etas[policies.index(d)]


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
    # lambda across the overflow of the stationary weights, on both sides
    # of the bound past which the walk answers. The profit sums overflow
    # to -inf at a price of 0, to +inf at 10, and before the weights do
    # at 1e12.
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
    refused = 0
    for params, space in cases:
        res = _search_outcome(lambda: optimize(params, space))
        walk = _search_outcome(lambda: _walk_best(params, space))
        if res != "refused":
            res = (res.best_policy, res.best_eta)
        assert res == walk, (params, space)
        refused += walk == "refused"
    assert 0 < refused < len(cases)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("space, m", [("full", 5), ("reduced", 7), ("bang_bang", 10)])
def test_an_overflowing_sleep_branch_is_refused(space, m):
    # Group 2 serves 1e61 jobs per unit time awake, so every awake level
    # has lambda/nu at most 0.1 and the awake policies' profits are
    # finite; asleep, lambda/nu = 1e60, and the weights of the policies
    # that sleep at all of levels 1 to 5 overflow. The level DP would prune those
    # prefixes and answer; the overflow test hands the space to the walk,
    # which refuses it.
    params = micro_params(lambda_=1e60, mu2=1e61, m=m)
    awake = tuple(range(1, m + 1))
    assert np.isfinite(_profits(params, [awake])).all()
    for search in (lambda: optimize(params, space),
                   lambda: _walk_best(params, space)):
        with pytest.raises(NumericalError, match="not finite"):
            search()
    assert OPT._near_best(params, space) is None


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("space, m", [("full", 4), ("reduced", 5), ("bang_bang", 7)])
def test_many_chunks_refuse_an_overflow_without_a_warning(space, m, monkeypatch):
    # Chunks of at most 7 rows: every chunk of the walk must run under the
    # np.errstate of _rankings. lambda is raised until the weights of the
    # first n + m levels pass 1e320.
    monkeypatch.setattr(OPT, "BLOCK_SIZE", 7)
    rng = np.random.default_rng(2026)
    grid = [float(r) for r in np.linspace(0.0, 10.0, 5)]
    for _ in range(4):
        params, _ = heavy_instance(rng)
        params = dataclasses.replace(
            params, m=m, lambda_=params.mu1 * 10.0 ** (320 / (params.n + m)))
        with pytest.raises(NumericalError, match="profits are not finite"):
            optimize(params, space, top_k=3)
        # price_sweep refuses in its critical prices, before its walk, so
        # the walk over the grid is run on its own too.
        with pytest.raises(NumericalError, match="not finite"):
            OPT.price_sweep(params, grid, space)
        with pytest.raises(NumericalError, match="profits are not finite"):
            OPT._rankings(params, space, 1, grid)


def test_whole_space_ranking_unranks_every_policy_once(monkeypatch):
    # A BLOCK_SIZE of 1 puts every level above the chunks (split = m); 7
    # and 50 put several split-level prefixes in one chunk, whose rows are
    # then no range of ranks.
    rng = np.random.default_rng(48)
    sizes = (OPT.BLOCK_SIZE, 1, 7, 50)
    for space, m in (("bang_bang", 8), ("full", 4), ("reduced", 5)):
        params, _ = draw_instance(rng, n_max=6, m_min=m, m_max=m)
        total = policy_space_size(m, space)
        policies = map(tuple, _policy_block(m, space, np.arange(total)).tolist())
        expected = sorted(zip(policies, _block_etas(params, space).tolist()),
                          key=lambda pair: (-pair[1], pair[0]))
        for size in sizes:
            monkeypatch.setattr(OPT, "BLOCK_SIZE", size)
            assert optimize(params, space, top_k=total).ranking == expected
            for k in (1, 2, 17, total - 1):
                assert optimize(params, space, top_k=k).ranking == expected[:k]
        monkeypatch.undo()


def test_walk_refuses_a_space_past_its_byte_budget():
    # The tie cap hands the reduced search to the walk, whose 12! prefixes
    # at one level would take 10.7 GiB. A walk whose split level would pass
    # 1 GiB is refused before it grows any, allow_large or not; bang_bang
    # passes it from m = 42.
    reduced = micro_params(lambda_=1.0, mu2=0.8, n=3, m=18)
    bang = dataclasses.replace(reduced, m=42)
    for search, size in (
            (lambda: optimize(reduced, "reduced", allow_large=True), 121645100408832000),
            (lambda: OPT._rankings(bang, "bang_bang", 1, [bang.price]), 2 ** 42)):
        refused, peak = _traced_peak(lambda: pytest.raises(GateError, search))
        assert "a budget allow_large does not lift" in str(refused.value)
        assert f"has {size} members" in str(refused.value) and peak < 2**20


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
    # each of its etas is the one the walk ranks for that policy, bit for
    # bit.
    rng = np.random.default_rng(3638)
    for _ in range(40):
        params = draw_params(rng, n_max=6, m_max=4)
        m = params.m
        ranked = dict(optimize(params, "full", top_k=(m + 1) ** m).ranking)
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
    # One walk over the grid must give each price the optimize answer bit
    # for bit, whatever the chunks and the price batches.
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
            rows, _ = OPT.price_sweep(params, grid, space)
            for (r, d, eta, *_), res in zip(rows, want):
                assert (d, eta) == (res.best_policy, res.best_eta), (params, r)
        if params.m <= 4:
            # An oracle that shares no code with the walk.
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


def test_price_sweep_refuses_non_finite_prices_before_searching(monkeypatch):
    calls = []
    monkeypatch.setattr(OPT, "critical_prices_global",
                        lambda *args, **kwargs: calls.append(args))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ConfigError, match="price must be finite"):
            OPT.price_sweep(micro_params(m=2), [0.0, 1.0, bad])
    assert calls == []
