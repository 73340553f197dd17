"""Poisson-equation solves, RG factorization, and normalizations."""

import dataclasses
import importlib
import pkgutil
import tracemalloc

import numpy as np
import pytest

import sleepq
from sleepq import (
    ConsistencyError,
    Generator,
    affine_decomposition,
    critical_price_state,
    ModelParams,
    NumericalError,
    build_generator,
    build_reward,
    invert_reduced,
    normalize_fundamental,
    performance_difference,
    perturbation_factors,
    policy_profit,
    poisson_residual,
    realization_factors,
    reanchor,
    rg_factorize,
    sign_conservation_check,
    single_coordinate_difference,
    solve_poisson,
    stationary_closed_form,
)
from sleepq.chain import _block_rates, _state_rates
from sleepq.potential import SOLVE_METHODS, _band_product, _triangles, reduced_matrix
from exact import exact
from conftest import (
    draw_change_pair,
    draw_instance,
    heavy_instance,
    micro_params,
    sleepy_params,
    wide_light_instance,
)


def test_micro_anchored_potentials(micro):
    sol = solve_poisson(micro, (1,))
    assert np.allclose(sol.g, [1.0, 7.36, 10.58], atol=1e-12)
    assert sol.eta == pytest.approx(3.86, abs=1e-12)
    assert sol.anchor == 1.0 and sol.normalization == "anchored"


def test_micro_rg_factors(micro):
    factors = rg_factorize(build_generator(micro, (1,)))
    assert np.allclose(factors.u, [-1.0, -2.0], atol=1e-15)
    assert np.allclose(factors.r, [0.5], atol=1e-15)
    inv = invert_reduced(factors)
    assert np.allclose(inv, [[1.0, 0.5], [1.0, 1.0]], atol=1e-15)


def test_rg_factors_equal_scalar_recursion():
    """U = -nu and R = lambda/nu bit for bit, and G = 1 rebuilds the matrix."""
    rng = np.random.default_rng(20)
    for _ in range(30):
        params, d = draw_instance(rng)
        gen = build_generator(params, d)
        factors = rg_factorize(gen)
        death = np.array(_state_rates(params, d)[0][1:])
        assert factors.u.tobytes() == (-death).tobytes()
        assert factors.r.tobytes() == (params.lambda_ / death[1:]).tobytes()
        reduced = reduced_matrix(gen)
        eye = np.eye(reduced.shape[0])
        rebuilt = ((eye - np.diag(factors.r, 1)) @ np.diag(factors.u)
                   @ (eye - np.eye(reduced.shape[0], k=-1)))
        ulp = np.spacing(np.abs(np.diagonal(reduced)))
        assert (np.abs(rebuilt - reduced) <= ulp[:, None]).all()
    sub, diag = gen.sub.copy(), gen.diag.copy()
    diag[2] += sub[1]
    sub[1] = 0.0
    with pytest.raises(NumericalError, match="nonpositive death rate"):
        rg_factorize(Generator(sub, diag, gen.sup))


def test_reduced_inverse_matches_dense():
    rng = np.random.default_rng(21)
    for _ in range(15):
        params, d = draw_instance(rng, n_max=10, m_max=10)
        gen = build_generator(params, d)
        inv = invert_reduced(rg_factorize(gen))
        dense = np.linalg.inv(-reduced_matrix(gen))
        scale = np.max(np.abs(dense))
        assert np.max(np.abs(inv - dense)) < 1e-11 * max(1.0, scale)


def test_all_methods_agree():
    rng = np.random.default_rng(22)
    corpus = [draw_instance(rng, n_max=10, m_max=10) for _ in range(10)]
    corpus += [wide_light_instance(rng) for _ in range(6)]
    for params, d in corpus:
        sols = [solve_poisson(params, d, method=m) for m in SOLVE_METHODS]
        for sol in sols[1:]:
            scale = max(1.0, float(np.max(np.abs(sols[0].g))))
            assert np.max(np.abs(sol.g - sols[0].g)) < 1e-9 * scale


def _count_calls(monkeypatch, func):
    """Record every call of func, through each module's binding."""
    calls = []

    def counted(*args):
        calls.append(args)
        return func(*args)

    for info in pkgutil.iter_modules(sleepq.__path__):
        module = importlib.import_module(f"sleepq.{info.name}")
        if getattr(module, func.__name__, None) is func:
            monkeypatch.setattr(module, func.__name__, counted)
    return calls


@pytest.mark.parametrize("call", [
    *(lambda p, d, m=m: solve_poisson(p, d, method=m) for m in SOLVE_METHODS),
    policy_profit,
    realization_factors,
    perturbation_factors,
], ids=[*SOLVE_METHODS, "policy_profit", "realization_factors",
        "perturbation_factors"])
def test_one_scalar_pass_per_call(call, monkeypatch):
    # The generator, pi and f (or the factor recursion) of one call all come
    # from one pass, never from a 1-row block.
    calls = _count_calls(monkeypatch, _state_rates)
    block_calls = _count_calls(monkeypatch, _block_rates)
    params = micro_params(n=2, m=3)
    call(params, (0, 2, 3))
    assert len(calls) == 1
    assert not block_calls


def test_performance_difference_one_pass_per_policy(monkeypatch):
    # One pass for g, B, f of d, shared with its Poisson solve through the
    # memo, and one for B', f', pi' of d'.
    calls = _count_calls(monkeypatch, _state_rates)
    performance_difference(micro_params(n=2, m=3), (0, 2, 3), (1, 0, 3))
    assert len(calls) == 2


def test_analyze_sequence_runs_one_pass_per_policy(monkeypatch):
    # The benchmark's per-policy sequence: every call after the first reads
    # the memo's record of d, and d' gets one pass of its own.
    calls = _count_calls(monkeypatch, _state_rates)
    params, d, d_prime = micro_params(n=2, m=3), (0, 2, 3), (0, 1, 3)
    stationary_closed_form(params, d)
    build_generator(params, d)
    policy_profit(params, d)
    for method in SOLVE_METHODS:
        solve_poisson(params, d, method=method)
    perturbation_factors(params, d)
    single_coordinate_difference(params, d, d_prime)
    policy_profit(params, d_prime)
    assert [policy for _, policy in calls] == [d, d_prime]


def _bits(result):
    """A result's bytes: arrays by their buffers, numbers by repr."""
    if dataclasses.is_dataclass(result):
        return [_bits(getattr(result, field.name))
                for field in dataclasses.fields(result)]
    if isinstance(result, np.ndarray):
        return (result.dtype.str, result.shape, result.tobytes())
    return repr(result)


_PER_POLICY_CALLS = {
    "stationary": lambda p, d, dp, j: stationary_closed_form(p, d),
    "generator": lambda p, d, dp, j: build_generator(p, d),
    "affine": lambda p, d, dp, j: affine_decomposition(p, d),
    "reward": lambda p, d, dp, j: build_reward(p, d),
    "profit": lambda p, d, dp, j: policy_profit(p, d),
    **{method: lambda p, d, dp, j, m=method: solve_poisson(p, d, method=m)
       for method in SOLVE_METHODS},
    "fundamental": lambda p, d, dp, j: solve_poisson(
        p, d, normalization="fundamental"),
    "factors": lambda p, d, dp, j: realization_factors(p, d),
    "report": lambda p, d, dp, j: perturbation_factors(p, d),
    "critical": lambda p, d, dp, j: critical_price_state(p, d, j),
    "single": lambda p, d, dp, j: single_coordinate_difference(p, d, dp),
    "difference": lambda p, d, dp, j: performance_difference(p, d, dp),
    "signs": lambda p, d, dp, j: sign_conservation_check(p, d, dp, j),
    "profit_prime": lambda p, d, dp, j: policy_profit(p, dp),
}


def _outcome(call, *args):
    try:
        return _bits(call(*args))
    except sleepq.SleepqError as exc:
        return type(exc).__name__, str(exc)


def test_memo_hit_equals_miss():
    # Each call on params whose records are warm returns the bytes of the
    # same call on a fresh copy, which misses. Refusals included.
    rng = np.random.default_rng(31)
    corpus = [draw_instance(rng, n_max=8, m_max=8)[0] for _ in range(8)]
    corpus += [wide_light_instance(rng)[0] for _ in range(2)]
    corpus += [heavy_instance(rng)[0] for _ in range(2)]
    corpus.append(micro_params(n=1000, m=3, lambda_=1000.0))
    for params in corpus:
        d, d_prime, j = draw_change_pair(rng, params.m)
        for call in _PER_POLICY_CALLS.values():
            _outcome(call, params, d, d_prime, j)
        for name, call in _PER_POLICY_CALLS.items():
            warm = _outcome(call, params, d, d_prime, j)
            cold = _outcome(call, dataclasses.replace(params), d, d_prime, j)
            assert warm == cold, (name, params)


def _per_policy_sequence(params, d, d_prime):
    """The benchmark's per-policy calls, twice over."""
    for _ in range(2):
        stationary_closed_form(params, d)
        sleepq.stationary_numeric(build_generator(params, d))
        policy_profit(params, d)
        for method in SOLVE_METHODS:
            solve_poisson(params, d, method=method)
            solve_poisson(params, d, method=method, normalization="fundamental")
        perturbation_factors(params, d)
        single_coordinate_difference(params, d, d_prime)
        policy_profit(params, d_prime)


def _count_builds(monkeypatch, name):
    """The arguments of every call to potential.<name> while the
    benchmark's per-policy sequence runs on one fresh model."""
    potential = importlib.import_module("sleepq.potential")
    built = []
    build = getattr(potential, name)

    def counted(arg):
        built.append(arg)
        return build(arg)

    monkeypatch.setattr(potential, name, counted)
    _per_policy_sequence(micro_params(n=2, m=3), (0, 2, 3), (1, 2, 3))
    return built


def test_poisson_tail_is_built_once_per_record(monkeypatch):
    # Every route and normalization of one policy shares its record's tail
    # operands: the benchmark's per-policy sequence builds them once.
    built = _count_builds(monkeypatch, "_poisson_tail")
    assert [record.policy for record in built] == [(0, 2, 3)]


def test_rg_factors_are_built_once_per_record(monkeypatch):
    # The rg and explicit routes share the record's RG factors.
    assert len(_count_builds(monkeypatch, "rg_factorize")) == 1


def test_dense_and_explicit_routes_factorize_a_record_once(monkeypatch):
    # Each route's inverse application is kept on the record: the dense
    # inverse and the explicit triangle are formed by d's first solves only.
    inverses = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: inverses.append(a) or inv(a))
    triangles = _count_builds(monkeypatch, "_triangles")
    assert len(inverses) == 1 and len(triangles) == 1


def test_ill_conditioned_draw_all_routes_agree():
    # Heavy load at level 0 (lambda / mu1 near 19): unrefined explicit sums
    # land 2.1e-7 off the dense route.
    params = ModelParams(
        lambda_=2.8227607347805206, mu1=0.14548190299074543,
        mu2=8.468585996116964, n=13, m=5, p1_work=2.868482870848687,
        p2_work=2.40314709899907, p2_sleep=0.21776026988113956,
        c_energy=2.4071269728656093, c_hold_g1=3.51073146190204,
        c_hold_g2=2.1251463008798464, c_transfer=2.7608752531174003,
        c_loss=2.4064403138790667, price=18.290432849301425)
    d = (0, 5, 0, 4, 2)
    dense = solve_poisson(params, d, method="dense").g
    scale = max(1.0, float(np.max(np.abs(dense))))
    for method in ("rg", "explicit"):
        g = solve_poisson(params, d, method=method).g
        assert np.max(np.abs(g - dense)) <= 1e-9 * scale, method


def test_route_dependent_draw_all_routes_solve():
    # The backward U recursion left rg's residual at 5.3e-8 here, above the
    # 4.7e-8 gate that dense (1.5e-8) and explicit (1.5e-8) passed.
    params = ModelParams(
        lambda_=2.1112296776464423, mu1=0.12711000649782636,
        mu2=0.12303401872659368, n=17, m=4, p1_work=0.3796506761349768,
        p2_work=3.10710193726471, p2_sleep=1.8008509704539049,
        c_energy=0.21728955298830566, c_hold_g1=2.1846966572282107,
        c_hold_g2=4.974418232282948, c_transfer=1.515331658910815,
        c_loss=4.9276987563106465, price=11.949837243370034)
    d = (2, 3, 3, 1)
    sols = {method: solve_poisson(params, d, method=method)
            for method in SOLVE_METHODS}
    scale = max(1.0, float(np.max(np.abs(sols["dense"].g))))
    for method, sol in sols.items():
        assert np.max(np.abs(sol.g - sols["dense"].g)) <= 1e-9 * scale, method


# Task desk-125 of the analyze benchmark at seed 60007.
OUTLIER_DRAW = (
    ModelParams(
        lambda_=7.617641811502663, mu1=0.18135689174837416,
        mu2=8.028414544115572, n=6, m=6, p1_work=2.7127270117898306,
        p2_work=2.4614600634669843, p2_sleep=1.0046667323639586,
        c_energy=2.301298246788115, c_hold_g1=1.8830027064756472,
        c_hold_g2=4.442863810848856, c_transfer=4.816846754370252,
        c_loss=3.347504799996032, price=2.874722685652076),
    (1, 3, 1, 5, 2, 1),
)


def test_benchmark_outlier_draw_all_routes_agree():
    # While each route also solved and refined the anchor term as a second
    # right-hand side, dense landed 1.55e-9 relative off rg and explicit,
    # which agreed.
    params, d = OUTLIER_DRAW
    sols = {method: solve_poisson(params, d, method=method)
            for method in SOLVE_METHODS}
    scale = max(1.0, float(np.max(np.abs(sols["dense"].g))))
    for method, sol in sols.items():
        assert np.max(np.abs(sol.g - sols["dense"].g)) <= 1e-9 * scale, method


def _exact_gap(params, d, method):
    """Max-norm gap of a route's potentials from the exact ones, relative
    to max(1, max|g|)."""
    want = np.array([float(x) for x in exact(params, d).g])
    got = solve_poisson(params, d, method=method).g
    return float(np.max(np.abs(got - want))) / max(1.0, float(np.max(np.abs(want))))


def test_every_route_matches_exact_potentials():
    # Exact rational potentials of the float rates, so the gap is solver
    # error alone. The worst gaps here are 2.6e-13 (rg, explicit) and
    # 3.1e-13 (dense).
    rng = np.random.default_rng(2602)
    for _ in range(150):
        params, d = draw_instance(rng, n_max=12, m_max=12)
        for method in SOLVE_METHODS:
            gap = _exact_gap(params, d, method)
            assert gap <= 1e-9, (params, d, method, gap)


# The routes agree with one another on this draw, but all three sit about
# 1.49e-9 relative off the exact potentials: ROADMAP items 1 (one body for
# g and G) and 16 (an exact check of g in the benchmark) follow it up.
@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP items 1 and 16: every route "
                   "is about 1.49e-9 relative off the exact potentials")
@pytest.mark.parametrize("method", SOLVE_METHODS)
def test_benchmark_outlier_draw_matches_exact_potentials(method):
    assert _exact_gap(*OUTLIER_DRAW, method) <= 1e-9


def _triangles_by_loops(factors):
    """Running R products extended one factor at a time."""
    k = factors.u.shape[0]
    upper = np.zeros((k, k))
    for i in range(k):
        upper[i, i] = 1.0
        prod_r = 1.0
        for c in range(i + 1, k):
            prod_r *= factors.r[c - 1]
            upper[i, c] = prod_r
    return upper


def test_triangles_equal_running_product_loops():
    rng = np.random.default_rng(26)
    for _ in range(50):
        params, d = draw_instance(rng)
        factors = rg_factorize(build_generator(params, d))
        assert _triangles(factors).tobytes() == _triangles_by_loops(factors).tobytes()


def test_band_product_equals_extended_matmul():
    rng = np.random.default_rng(27)
    for _ in range(50):
        params, d = draw_instance(rng)
        gen = build_generator(params, d)
        neg_b = -reduced_matrix(gen).astype(np.longdouble)
        x = rng.standard_normal(neg_b.shape[0]).astype(np.longdouble)
        bands = (-band[1:].astype(np.longdouble)
                 for band in (gen.sub, gen.diag, gen.sup))
        got, want = _band_product(*bands, x), neg_b @ x
        # Equal values and signs: the padding bytes of an x87 long double
        # are not part of its value, so tobytes() is no test here.
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_rg_solve_forms_no_dense_matrix():
    """The rg route reads the generator's bands only: at 4 003 states its
    peak allocation stays under 8 MB, where a dense generator is 128 MB."""
    m = 4000
    params = micro_params(n=2, lambda_=2.0, m=m)
    tracemalloc.start()
    try:
        solve_poisson(params, tuple(range(1, m + 1)), method="rg")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_explicit_solve_holds_one_dense_triangle():
    """The explicit route forms the running R products as its one k x k
    float array, 32 MB at 2 003 states, and sums down instead of forming
    the unit lower triangle."""
    m = 2000
    params = micro_params(n=2, lambda_=2.0, m=m)
    tracemalloc.start()
    try:
        solve_poisson(params, tuple(range(1, m + 1)), method="explicit")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 50e6


def test_residual_is_small_on_random_instances():
    rng = np.random.default_rng(23)
    for _ in range(15):
        params, d = draw_instance(rng)
        sol = solve_poisson(params, d)
        gen = build_generator(params, d)
        f = build_reward(params, d)
        scale = max(1.0, abs(sol.eta), float(np.max(np.abs(f))))
        assert poisson_residual(gen, sol.g, sol.eta, f) < 1e-9 * scale
        assert sol.residual < 1e-9 * scale


def test_unit_inverse_identity():
    """mu1 times the first inverse column is one in every row."""
    rng = np.random.default_rng(24)
    for _ in range(15):
        params, d = draw_instance(rng)
        neg_b = -reduced_matrix(build_generator(params, d))
        e_1 = np.zeros(neg_b.shape[0])
        e_1[0] = 1.0
        column = np.linalg.solve(neg_b, params.mu1 * e_1)
        assert np.max(np.abs(column - 1.0)) < 1e-10


def test_reanchor_equals_solving_with_the_anchor():
    """The anchor term is the all-ones vector, so moving it re-solves nothing.

    B e = 0 only in exact arithmetic: the gate reads the potentials with
    g(0,0) = 0, so a large anchor's rounding is not solver error, and every
    anchor that reanchor accepts solves too, with the one residual.
    """
    rng = np.random.default_rng(28)
    corpus = [draw_instance(rng) for _ in range(200)]
    corpus += [(sleepy_params(), (1, 2)), (micro_params(), (1,))]
    for params, d in corpus:
        pi = stationary_closed_form(params, d).pi
        for method in SOLVE_METHODS:
            base = solve_poisson(params, d, anchor=0.0, method=method)
            for anchor in (2.5, 1e8, 1e300):
                direct = solve_poisson(params, d, anchor=anchor, method=method)
                assert reanchor(base, anchor).g.tobytes() == direct.g.tobytes()
                assert direct.residual == base.residual
            g = solve_poisson(params, d, normalization="fundamental",
                              method=method).g
            scale = max(1.0, float(np.max(np.abs(g))))
            assert abs(float(pi @ g) - base.eta) <= 1e-12 * scale


def test_anchor_shift_only_translates():
    rng = np.random.default_rng(25)
    params, d = draw_instance(rng, n_max=6, m_max=6)
    base = solve_poisson(params, d, anchor=0.0)
    shifted = reanchor(base, 2.5)
    assert shifted.anchor == 2.5
    assert np.allclose(shifted.g - base.g, 2.5, atol=1e-9)
    # differences of potentials are what the sensitivity layer consumes
    assert np.allclose(np.diff(shifted.g), np.diff(base.g), atol=1e-9)


@pytest.mark.parametrize("method", SOLVE_METHODS)
@pytest.mark.parametrize("anchor", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_anchor_is_refused(method, anchor):
    # Such an anchor reaches every potential and makes the residual NaN,
    # which a gate written as "residual exceeds tol" lets through.
    params = micro_params(m=2)
    with pytest.raises(ValueError, match="anchor must be finite"):
        solve_poisson(params, (1, 2), anchor=anchor, method=method)
    base = solve_poisson(params, (1, 2), method=method)
    with pytest.raises(ValueError, match="anchor must be finite"):
        reanchor(base, anchor)


def test_fundamental_normalization(micro):
    sol = solve_poisson(micro, (1,), normalization="fundamental")
    assert np.allclose(sol.g, [-0.6, 5.76, 8.98], atol=1e-12)
    pi = stationary_closed_form(micro, (1,)).pi
    assert float(pi @ sol.g) == pytest.approx(sol.eta, abs=1e-12)


def test_fundamental_is_idempotent(micro):
    sol = solve_poisson(micro, (1,), normalization="fundamental")
    pi = stationary_closed_form(micro, (1,))
    again = normalize_fundamental(sol, pi)
    assert np.allclose(again.g, sol.g, atol=1e-12)


def test_eta_consistency_gate(micro):
    sol = solve_poisson(micro, (1,), eta=3.86)
    assert sol.eta == pytest.approx(3.86, abs=1e-12)
    with pytest.raises(ConsistencyError):
        solve_poisson(micro, (1,), eta=3.9)


@pytest.mark.parametrize("eta", [float("nan"), float("inf"), float("-inf")])
def test_eta_consistency_gate_refuses_non_finite_eta(micro, eta):
    # NaN compares False with everything, so a gate written as
    # "differs by more than tol" would let it through.
    with pytest.raises(ConsistencyError):
        solve_poisson(micro, (1,), eta=eta)


def test_unknown_method_and_normalization(micro):
    with pytest.raises(ValueError):
        solve_poisson(micro, (1,), method="cholesky")
    with pytest.raises(ValueError):
        solve_poisson(micro, (1,), normalization="mean-zero")


def test_poisson_defining_equation(micro):
    """B g equals eta*e - f row by row on the worked instance."""
    sol = solve_poisson(micro, (1,))
    gen = build_generator(micro, (1,))
    f = build_reward(micro, (1,))
    assert np.allclose(gen.matrix @ sol.g, sol.eta - f, atol=1e-12)
