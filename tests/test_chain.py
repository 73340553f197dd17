"""Generator structure and the closed-form stationary distribution."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sleepq import (
    ConfigError,
    NumericalError,
    affine_decomposition,
    build_generator,
    critical_prices_global,
    perturbation_factors,
    policy_profit,
    realization_factors,
    solve_poisson,
    state_space,
    stationary_closed_form,
    stationary_numeric,
)
from sleepq.chain import _block_rates, _state_rates
from conftest import (
    draw_instance,
    draw_params,
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
        # A block's level rates are level-major, one column per policy row;
        # each row's rates and costs are its policy's, bit for bit.
        rows = list(dict.fromkeys(
            [d] + [random_policy(block_rng, params.m) for _ in range(5)]))
        block = _block_rates(params, np.array(rows))
        for k, row in enumerate(rows):
            for (*low, levels), want in zip(block, _state_rates(params, row)):
                got = np.array(low + list(levels[:, k]))
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
    lambda p: policy_profit(p, (1,)),
    lambda p: solve_poisson(p, (1,)),
    lambda p: perturbation_factors(p, (1,)),
    lambda p: critical_prices_global(p),
], ids=["stationary", "profit", "poisson", "factors", "critical_prices"])
@pytest.mark.parametrize("overrides, field", [
    (dict(mu1=0.0), "mu1"),
    (dict(lambda_=-1.0), "lambda"),
], ids=["mu1_zero", "lambda_negative"])
def test_rates_validate_rejects_raise_config_error(entry, overrides, field):
    # Such a model divides by a zero death rate or gives negative weights;
    # the closed form refuses it as optimize and simulate do.
    with pytest.raises(ConfigError, match=field):
        entry(micro_params(**overrides))


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
