"""Generator structure and the closed-form stationary distribution."""

import dataclasses
import re
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sleepq import (
    ConfigError,
    Generator,
    NumericalError,
    affine_decomposition,
    build_generator,
    critical_prices_global,
    optimize,
    perturbation_factors,
    policy_profit,
    realization_factors,
    solve_poisson,
    state_space,
    stationary_closed_form,
    stationary_numeric,
)
from sleepq import build_reward, chain
from sleepq.chain import MEMO_SIZE, _block_rates, _state_rates
from conftest import (
    draw_instance,
    draw_params,
    level_block,
    micro_params,
    random_policy,
    wide_light_instance,
)


def test_generator_is_a_proper_rate_matrix(micro):
    gen = build_generator(micro, (1,))
    mat = gen.matrix
    assert np.allclose(mat.sum(axis=1), 0.0, atol=1e-14)
    off_diag = mat - np.diag(np.diag(mat))
    assert np.all(off_diag >= 0)
    assert np.all(np.diag(mat) < 0)


def test_generator_is_tridiagonal():
    params = micro_params(n=2, m=3)
    gen = build_generator(params, (0, 1, 3))
    mat = gen.matrix
    size = state_space(params).size
    for row in range(size):
        for col in range(size):
            if abs(row - col) > 1:
                assert mat[row, col] == 0.0


def test_micro_generator_rates(micro):
    gen = build_generator(micro, (1,))
    # birth lambda everywhere below the top, deaths mu1 then nu(1)=mu1+mu2
    expected = np.array([
        [-1.0, 1.0, 0.0],
        [1.0, -2.0, 1.0],
        [0.0, 2.0, -2.0],
    ])
    assert np.array_equal(gen.matrix, expected)


def test_dense_matrix_equals_entrywise_assembly():
    """The bands' dense matrix, byte for byte, is the generator filled in
    as zeros, the sub- and superdiagonal, then minus each row's sum."""
    rng = np.random.default_rng(29)
    corpus = [draw_params(rng, n_max=30, m_max=30) for _ in range(180)]
    corpus = [(params, random_policy(rng, params.m)) for params in corpus]
    corpus += [wide_light_instance(rng) for _ in range(20)]
    for params, d in corpus:
        death, _ = _state_rates(params, d)
        size = len(death)
        want = np.zeros((size, size))
        for k in range(1, size):
            want[k, k - 1] = death[k]
            want[k - 1, k] = params.lambda_
        np.fill_diagonal(want, -want.sum(axis=1))
        assert build_generator(params, d).matrix.tobytes() == want.tobytes()


def test_service_rate_clamps_at_level(micro):
    params = micro_params(n=2, m=3, mu1=0.5, mu2=2.0)
    # min(d_j, j) servers work: asking for 3 at level 1 behaves like 1
    deaths = np.diagonal(build_generator(params, (3, 0, 2)).matrix, -1)
    assert deaths[params.n:].tolist() == [2 * 0.5 + 1 * 2.0, 2 * 0.5,
                                          2 * 0.5 + 2 * 2.0]


def test_micro_stationary_values(micro):
    sol = stationary_closed_form(micro, (1,))
    assert np.allclose(sol.pi, [0.4, 0.4, 0.2], atol=1e-15)
    assert np.allclose(sol.xi, [1.0, 1.0, 0.5], atol=1e-15)
    assert sol.b == pytest.approx(2.5, abs=1e-15)


def test_stationary_matches_numeric_oracle():
    rng = np.random.default_rng(7)
    for _ in range(25):
        params, d = draw_instance(rng, n_max=12, m_max=12)
        gen = build_generator(params, d)
        closed = stationary_closed_form(params, d)
        numeric = stationary_numeric(gen)
        assert np.max(np.abs(closed.pi - numeric.pi)) < 1e-10
        # stationarity holds directly
        assert np.max(np.abs(closed.pi @ gen.matrix)) < 1e-10


def test_stationary_invariant_under_canonicalization():
    rng = np.random.default_rng(8)
    for _ in range(10):
        params, d = draw_instance(rng, n_max=6, m_max=6)
        # values >= j act exactly like j at level j
        canon = tuple(min(v, j) for j, v in enumerate(d, start=1))
        a = stationary_closed_form(params, d)
        b = stationary_closed_form(params, canon)
        assert np.array_equal(a.pi, b.pi)


def test_closed_form_operation_order():
    # The Poisson gate refuses draws by pi's last bit, so the scalar pass
    # must keep xi_k = xi_{k-1} * lambda / a_k, not lambda/a_k first or a
    # cumulative product.
    rng = np.random.default_rng(10)
    block_rng = np.random.default_rng(11)
    for _ in range(40):
        params, d = draw_instance(rng)
        sol = stationary_closed_form(params, d)
        aff = affine_decomposition(params, d)
        for k in range(1, len(sol.xi)):
            assert sol.xi[k] == sol.xi[k - 1] * params.lambda_ / aff.a[k]
        deaths = np.diagonal(build_generator(params, d).matrix, -1)
        assert deaths.tobytes() == aff.a[1:].tobytes()
        # A block's level rates are gathered from its levels' value sets,
        # one array per level with an entry per policy row; each row's rates
        # and costs are its policy's, bit for bit.
        rows = list(dict.fromkeys(
            [d] + [random_policy(block_rng, params.m) for _ in range(5)]))
        block = _block_rates(params, *level_block(rows))
        low = params.n + 1
        for k, row in enumerate(rows):
            for rates, want in zip(block, _state_rates(params, row)):
                got = np.array(rates[:low] + [level[k] for level in rates[low:]])
                assert got.tobytes() == np.array(want).tobytes()


def test_a_numpy_policy_is_one_policy():
    # A 1-D array is one policy, as its tuple is; a 2-D array is refused by
    # the per-policy calls, never read as a block of policies.
    params = micro_params(n=2, m=3)
    d = (0, 2, 3)
    calls = [policy_profit, realization_factors,
             lambda p, x: stationary_closed_form(p, x).pi,
             lambda p, x: solve_poisson(p, x).g]
    for call in calls:
        got, want = call(params, np.array(d)), call(params, d)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        with pytest.raises(ValueError):
            call(params, np.array([d, d]))


def test_numeric_oracle_refuses_a_singular_generator():
    # No rate at all: every balance equation is 0 = 0, so the system with
    # the normalization row is singular.
    zero = Generator(np.zeros(2), np.zeros(3), np.zeros(2))
    with pytest.raises(NumericalError, match="stationary solve failed"):
        stationary_numeric(zero)


def test_heavy_load_weights_raise_instead_of_nan():
    # lambda / (n mu1) = 5 per level: the all-asleep weights overflow
    # near level 440, and their normalizer with them.
    params = micro_params(n=2, m=500, lambda_=10.0, mu1=1.0, mu2=0.5)
    d = (0,) * params.m
    with pytest.raises(NumericalError, match="not finite"):
        stationary_closed_form(params, d)
    with pytest.raises(NumericalError, match="not finite"):
        policy_profit(params, d)


def test_overflowing_normalizer_raises_without_a_warning():
    # Weights 2^0 ... 2^1023 are all finite, but their sum is not.
    params = micro_params(n=1, m=1022, lambda_=2.0, mu1=1.0)
    d = (0,) * params.m
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="not finite"):
            stationary_closed_form(params, d)


@pytest.mark.parametrize("entry", [
    lambda p: stationary_closed_form(p, (1,)),
    lambda p: build_generator(p, (1,)),
    lambda p: build_reward(p, (1,)),
    lambda p: affine_decomposition(p, (1,)),
    lambda p: policy_profit(p, (1,)),
    lambda p: solve_poisson(p, (1,)),
    lambda p: perturbation_factors(p, (1,)),
    lambda p: critical_prices_global(p),
], ids=["stationary", "generator", "reward", "affine", "profit", "poisson",
        "factors", "critical_prices"])
@pytest.mark.parametrize("overrides, message", [
    (dict(mu1=0.0), "mu1 must be > 0"),
    (dict(lambda_=-1.0), "lambda must be > 0"),
    (dict(m=0), "m must be >= 1"),
    (dict(n=1.5), "n must be an integer"),
    (dict(c_loss=float("nan")), "c_loss must be finite"),
    (dict(p2_sleep=2.0), "p2_sleep must be < p2_work"),
    (dict(c_energy=-1.0), "c_energy must be >= 0"),
], ids=["mu1_zero", "lambda_negative", "m_zero", "n_fractional", "c_loss_nan",
        "p2_sleep_above_p2_work", "c_energy_negative"])
def test_rates_validate_rejects_raise_config_error(entry, overrides, message):
    # Every entry point holds the model to validate's rules: a zero death
    # rate divides by zero, m = 0 drops the full state's loss cost, and a
    # NaN cost is no overflow. Each is refused, as optimize and simulate do.
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        entry(micro_params(**overrides))


@pytest.mark.parametrize("call", [
    lambda p: policy_profit(p, (1,)),
    lambda p: solve_poisson(p, (1,)).g,
    lambda p: perturbation_factors(p, (1,)).prf,
], ids=["profit", "poisson", "factors"])
def test_per_policy_calls_answer_at_a_negative_critical_price(call):
    # The profit is affine in the price, and the README model's R_L is
    # negative: a per-policy call there answers, a search refuses.
    params = micro_params()
    r_low = critical_prices_global(params).r_low
    assert r_low == pytest.approx(-5.7)
    at_root = dataclasses.replace(params, price=r_low)
    assert np.all(np.isfinite(call(at_root)))
    with pytest.raises(ConfigError, match="^price must be >= 0$"):
        optimize(at_root)


def test_each_params_object_is_validated_once(monkeypatch):
    calls = []

    def counted(params):
        calls.append(id(params))
        return model_errors(params)

    model_errors = chain._model_errors
    monkeypatch.setattr(chain, "_model_errors", counted)
    params = micro_params(n=2, m=3)
    policy_profit(params, (0, 2, 3))
    solve_poisson(params, (1, 1, 1))
    build_reward(params, (0, 2, 3))
    assert calls == [id(params)]
    fresh = dataclasses.replace(params)
    stationary_closed_form(fresh, (0, 2, 3))
    assert calls == [id(params), id(fresh)]
    bad = dataclasses.replace(params, m=0)
    memo = chain._memo
    for _ in range(3):
        with pytest.raises(ConfigError, match="^m must be >= 1$"):
            policy_profit(bad, ())
    assert calls == [id(params), id(fresh)] + [id(bad)] * 3
    assert chain._memo is memo


def test_a_hit_on_the_records_own_tuple_is_not_rechecked(monkeypatch):
    calls = []

    def counted(d, m):
        calls.append(d)
        return check_policy(d, m)

    check_policy = chain.check_policy
    monkeypatch.setattr(chain, "check_policy", counted)
    params = micro_params(n=2, m=3)
    d = (0, 2, 3)
    stationary_closed_form(params, d)
    assert calls == [d] and chain._memo[0].policy is d
    for call in (policy_profit, solve_poisson, build_reward, build_generator,
                 perturbation_factors):
        call(params, d)
    assert len(calls) == 1
    # An equal tuple that is not the record's own, and a list, are checked
    # and still find the record.
    for other in (tuple([0, 2, 3]), [0, 2, 3]):
        stationary_closed_form(params, other)
        assert calls[-1] is other and chain._memo[0].policy is d
    assert len(calls) == 3


def test_detailed_balance_on_birth_death_cuts():
    rng = np.random.default_rng(9)
    for _ in range(10):
        params, d = draw_instance(rng, n_max=8, m_max=8)
        gen = build_generator(params, d)
        sol = stationary_closed_form(params, d)
        mat = gen.matrix
        for k in range(len(sol.pi) - 1):
            flow_up = sol.pi[k] * mat[k, k + 1]
            flow_down = sol.pi[k + 1] * mat[k + 1, k]
            assert flow_up == pytest.approx(flow_down, rel=1e-12, abs=1e-15)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_stationary_is_a_distribution(seed):
    rng = np.random.default_rng(seed)
    params, d = draw_instance(rng, n_max=10, m_max=10)
    sol = stationary_closed_form(params, d)
    assert np.all(sol.pi > 0)
    assert sol.pi.sum() == pytest.approx(1.0, abs=1e-12)
    assert sol.xi[0] == 1.0


def test_loss_probability_grows_with_load(micro):
    light = stationary_closed_form(micro_params(lambda_=0.2), (1,))
    heavy = stationary_closed_form(micro_params(lambda_=3.0), (1,))
    assert heavy.pi[-1] > light.pi[-1]


def test_policy_only_affects_group2_levels(micro):
    params = micro_params(n=3, m=2)
    a = stationary_closed_form(params, (0, 0))
    b = stationary_closed_form(params, (1, 2))
    # unnormalized weights below the group-2 levels never depend on d
    assert np.array_equal(a.xi[:params.n + 1], b.xi[:params.n + 1])
    assert not np.array_equal(a.xi, b.xi)


def test_memo_keys_params_by_identity():
    # The two params compare and hash equal, but f(0,0) = price * 0 - 0
    # keeps the sign of the price: a memo keyed by == would hand the
    # second call the first one's f.
    pos = micro_params(c_energy=0.0, price=0.0)
    neg = micro_params(c_energy=0.0, price=-0.0)
    assert pos == neg and hash(pos) == hash(neg)
    for first, second in ((pos, neg), (neg, pos)):
        got = build_reward(first, (1,))[0], build_reward(second, (1,))[0]
        assert [np.signbit(v) for v in got] == [first is neg, second is neg]


def test_record_freezes_every_array_it_keeps():
    # The memo hands a kept value to every layer, so the record sets each
    # array in it read-only, at the top or inside tuples, whatever the
    # builder returned.
    record = chain._policy_record(micro_params(n=2, m=3), (0, 2, 3))

    def build(_):
        return np.zeros(3), (np.ones(2), (np.arange(4), 1.5))

    top, (inner, (deep, scalar)) = record.value(build)
    assert record.value(build)[0] is top
    for array in (top, inner, deep):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 7
    assert scalar == 1.5


def test_memo_holds_at_most_its_bound():
    rng = np.random.default_rng(30)
    params = micro_params(n=2, m=3)
    held = set()
    for _ in range(3 * MEMO_SIZE):
        policy_profit(params, random_policy(rng, params.m))
        stationary_closed_form(micro_params(n=2, m=3), (0, 2, 3))
        held.add(len(chain._memo))
        assert len(chain._memo) <= MEMO_SIZE
    assert MEMO_SIZE in held


def test_refusals_are_raised_on_every_call():
    # The rates of this policy are kept, but its weights overflow: every
    # call refuses again, and none warns.
    params = micro_params(n=1000, lambda_=1000.0, mu1=1.0, m=3)
    d = (1, 2, 3)
    calls = [stationary_closed_form, policy_profit, solve_poisson,
             realization_factors, perturbation_factors]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(2):
            for call in calls:
                with pytest.raises(NumericalError, match="not finite"):
                    call(params, d)
    assert build_generator(params, d).sub.shape == (1003,)


def test_malformed_policy_is_refused_beside_a_record():
    params = micro_params(n=2, m=3)
    stationary_closed_form(params, (0, 2, 3))
    for bad in [(0, 2), (0, 2, 3, 1), (0, 2, 4), (0, -1, 3), (0, 2.5, 3),
                (0, True, 3)]:
        for call in (stationary_closed_form, build_reward, solve_poisson):
            with pytest.raises(ValueError):
                call(params, bad)


def test_memo_is_safe_across_threads():
    # More threads than cores insert and read records at once, with a
    # short switch interval; each call still gets its own policy's bits.
    rng = np.random.default_rng(32)
    params = micro_params(n=2, m=3)
    policies = list(dict.fromkeys(random_policy(rng, 3) for _ in range(40)))
    want = {d: (stationary_closed_form(dataclasses.replace(params), d).pi.tobytes(),
                build_reward(dataclasses.replace(params), d).tobytes())
            for d in policies}
    wrong = []

    def work(seed):
        order = np.random.default_rng(seed).permutation(len(policies))
        for _ in range(20):
            for k in order:
                d = policies[k]
                got = (stationary_closed_form(params, d).pi.tobytes(),
                       build_reward(params, d).tobytes())
                if got != want[d]:
                    wrong.append(d)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not wrong
    assert len(chain._memo) <= MEMO_SIZE
