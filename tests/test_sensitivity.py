"""Perturbation factors, critical prices, and the difference formulas."""

import dataclasses
import importlib
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from sleepq import (
    ConfigError,
    ConsistencyError,
    ModelParams,
    NumericalError,
    critical_price_state,
    critical_prices_global,
    performance_difference,
    perturbation_factors,
    policy_profit,
    price_constant,
    realization_factors,
    sign_conservation_check,
    single_coordinate_difference,
    solve_poisson,
)
from sleepq.model import enumerate_policies
from sleepq.potential import SOLVE_METHODS
from sleepq.sensitivity import _policy_lines
from conftest import (
    draw_change_pair,
    draw_instance,
    draw_params,
    heavy_instance,
    micro_params,
    random_policy,
    sleepy_params,
    wide_light_instance,
)
from exact import exact, exact_root_pairs, exact_roots

# The package exports functions under some of its modules' names.
chain, model, sensitivity = (importlib.import_module(f"sleepq.{name}")
                             for name in ("chain", "model", "sensitivity"))

# The 634th draw_params(n_max=30, m_max=30) + random_policy pair of
# default_rng(101): lambda / mu1 near 29.8, so pi rises over nearly every
# level. The backward recursion alone gave G(n,1) = 8.21 and
# G(n,2) = -0.188 here, against exact values of 10.68 and 0.0433.
DRAW_634 = (
    ModelParams(lambda_=7.9605243119148055, mu1=0.2673240890733199,
                mu2=0.21149820517921092, n=2, m=25,
                p1_work=3.5972774233932796, p2_work=2.8132543801957848,
                p2_sleep=0.8214301024120567, c_energy=2.5555463963816067,
                c_hold_g1=0.76954528373741, c_hold_g2=1.37441055924223,
                c_transfer=2.211176541354247, c_loss=1.960907458229903,
                price=8.686762635399896),
    (17, 21, 13, 25, 19, 17, 12, 18, 17, 18, 15, 20, 0, 18, 8, 14, 24, 4,
     20, 2, 21, 6, 3, 13, 11),
)


def _heavy_corpus():
    rng = np.random.default_rng(2026)
    return [heavy_instance(rng) for _ in range(100)]


def test_micro_sensitivity_values(micro):
    rep = perturbation_factors(micro, (1,))
    assert rep.prf[0] == pytest.approx(-3.22, abs=1e-12)
    assert rep.c == pytest.approx(9.5, abs=1e-15)
    assert rep.crit_prices[0] == pytest.approx(-5.7, abs=1e-12)
    assert rep.signs[0] == 1.0


def test_price_constant_formula(micro):
    k = ((micro.p2_work - micro.p2_sleep) * micro.c_energy) / micro.mu2
    assert price_constant(micro) == pytest.approx(micro.price - k, abs=1e-15)


def test_realization_factors_are_potential_differences():
    rng = np.random.default_rng(31)
    for _ in range(8):
        params, d = draw_instance(rng, n_max=8, m_max=8)
        sol = solve_poisson(params, d)
        prf = realization_factors(params, d)
        n, m = params.n, params.m
        direct = sol.g[n:n + m] - sol.g[n + 1:n + m + 1]
        assert np.allclose(prf, direct, atol=1e-9)


def test_prf_is_anchor_invariant(micro):
    a = realization_factors(micro, (1,))
    b = solve_poisson(micro, (1,), anchor=100.0)
    assert a[0] == pytest.approx(float(b.g[1] - b.g[2]), abs=1e-9)


def test_critical_price_solves_root():
    rng = np.random.default_rng(32)
    for _ in range(8):
        params, d = draw_instance(rng, n_max=6, m_max=6)
        j = 1 + int(rng.integers(params.m))
        root = critical_price_state(params, d, j)
        at_root = dataclasses.replace(params, price=root)
        value = float(realization_factors(at_root, d)[j - 1]
                      + price_constant(at_root))
        assert abs(value) < 1e-7 * max(1.0, abs(root))


def _desk_corpus():
    rng = np.random.default_rng(77)
    corpus = []
    for _ in range(300):
        params = draw_params(rng, n_max=6, m_max=12)
        corpus.append((params, random_policy(rng, params.m)))
    return corpus


def _wide_light_corpus():
    rng = np.random.default_rng(47)
    return [wide_light_instance(rng) for _ in range(8)]


def _valley_corpus():
    # Awake at the lowest and highest levels and asleep between: the weights
    # fall by 1e-3 a level, rise by 15 and fall again. The running product
    # of lambda / nu from the top underflows to 0 at the middle peak and is
    # a normal double again in the valley below it, where s_j is about
    # 1e-270; the exact roots there are past the double range.
    params = micro_params(n=2, m=210, lambda_=30.0, mu2=30000.0)
    return [(params, (1,) * 20 + (0,) * 80 + (1,) * 110)]


def _assert_exact_roots(corpus, bound):
    for params, d in corpus:
        got = perturbation_factors(params, d).crit_prices.tolist()
        pairs = exact_root_pairs(params, d)
        assert len(got) == len(pairs) == params.m
        for j, (root, (num, den)) in enumerate(zip(got, pairs), start=1):
            try:
                want = num / den
            except OverflowError:
                want = math.inf if num > 0 else -math.inf
                assert root == want, (params, d, j)
            else:
                assert abs(root - want) <= bound * max(1.0, abs(want)), (params, d, j)


@pytest.mark.parametrize("corpus, bound", [
    (_desk_corpus, 1e-12), (_heavy_corpus, 2e-12), (_wide_light_corpus, 1e-12),
    (_valley_corpus, 1e-12),
], ids=["desk", "heavy", "wide_light", "valley"])
def test_every_level_has_its_exact_root(corpus, bound):
    # Roots over 1 + (the R-slope of G), which cancels where the slope of
    # G + c is small, were NaN on 165 of the 2 051 desk levels, 1 177 of
    # the 3 565 heavy-load levels and 1 057 of the 1 091 wide light-load
    # levels, and up to 6.0e-4 off elsewhere. About 190 of the wide roots
    # are past the double range, and read as the infinity of their sign.
    _assert_exact_roots(corpus(), bound)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 29: a running "
                   "product of lambda / nu that underflows reads the roots below it as -inf")
def test_small_costs_keep_the_valleys_roots_doubles():
    # s_j depends on the rates alone and k - I_j scales with the costs, so
    # with every cost and the price times 2^-400 the valley's lower roots
    # are doubles near -1.4e210. The product that underflowed above them
    # reads them as -inf, and the four roots over a subnormal s_j are up
    # to 1.8e-4 off.
    (params, d), = _valley_corpus()
    small = dataclasses.replace(params, **{
        name: getattr(params, name) * 2.0 ** -400 for name in (
            "c_energy", "c_hold_g1", "c_hold_g2", "c_transfer", "c_loss", "price")})
    _assert_exact_roots([(small, d)], 1e-12)


def test_a_level_wakes_above_its_root_wherever_its_margin_clears():
    # G + c = s_j (R - root_j) with s_j > 0, so wherever the float G + c
    # clears its error bound e_j, R lies on the side of root_j that the
    # sign of G + c names.
    for params, d in _desk_corpus() + _heavy_corpus():
        value, bound = sensitivity._margins(params, d, params.price,
                                            sensitivity._skew(params))
        roots = perturbation_factors(params, d).crit_prices
        clear = np.abs(value) > bound
        assert (np.sign(params.price - roots[clear]) == np.sign(value[clear])).all(), (params, d)


def test_g_plus_c_is_affine_in_price():
    rng = np.random.default_rng(33)
    params, d = draw_instance(rng, n_max=6, m_max=6)

    def value(r):
        at = dataclasses.replace(params, price=r)
        return realization_factors(at, d) + price_constant(at)

    v0, v5, v10 = value(0.0), value(5.0), value(10.0)
    assert np.allclose(v5, 0.5 * (v0 + v10), atol=1e-8)


def test_micro_difference_formula(micro):
    diff = performance_difference(micro, (0,), (1,))
    closed = single_coordinate_difference(micro, (0,), (1,))
    assert diff == pytest.approx(3.86 - 53 / 30, abs=1e-12)
    assert closed == pytest.approx(diff, abs=1e-12)


def test_difference_formula_random_pairs():
    rng = np.random.default_rng(34)
    for _ in range(30):
        params, _ = draw_instance(rng, n_max=8, m_max=8)
        d, d_prime, _ = draw_change_pair(rng, params.m)
        direct = policy_profit(params, d_prime) - policy_profit(params, d)
        general = performance_difference(params, d, d_prime)
        closed = single_coordinate_difference(params, d, d_prime)
        scale = max(1.0, abs(direct))
        assert abs(general - direct) < 1e-9 * scale
        assert abs(closed - direct) < 1e-9 * scale


def test_unsigned_policies_are_read_as_their_values():
    # uint8 entries must not wrap: 0 - 1 is -1 here, not 255.
    params = micro_params(m=2)
    d, d_prime = np.array([1, 2], np.uint8), np.array([0, 2], np.uint8)
    closed = single_coordinate_difference(params, d, d_prime)
    assert closed == single_coordinate_difference(params, (1, 2), (0, 2))
    direct = policy_profit(params, (0, 2)) - policy_profit(params, (1, 2))
    assert closed == pytest.approx(direct, abs=1e-12)
    assert (sign_conservation_check(params, d, d_prime, 1)
            == sign_conservation_check(params, (1, 2), (0, 2), 1))


def test_single_coordinate_domain_is_enforced(micro):
    params = micro_params(m=3)
    # differs in two coordinates
    with pytest.raises(ValueError, match="expected one"):
        single_coordinate_difference(params, (0, 0, 0), (1, 1, 0))
    # value above its level at the changed coordinate
    with pytest.raises(ValueError, match="in 0..2"):
        single_coordinate_difference(params, (0, 3, 0), (0, 1, 0))
    # identical policies change nothing
    with pytest.raises(ValueError, match="identical"):
        single_coordinate_difference(params, (0, 1, 0), (0, 1, 0))


def test_single_change_checks_each_policy_once(monkeypatch):
    # The calls that follow the level check find the records by their own
    # tuples, so each policy is checked once, wherever check_policy is bound.
    calls = []

    def counted(d, m):
        calls.append(d)
        return model.check_policy(d, m)

    for module in (chain, sensitivity):
        if hasattr(module, "check_policy"):
            monkeypatch.setattr(module, "check_policy", counted)
    params = micro_params(n=2, m=3)
    single_coordinate_difference(params, [0, 2, 3], [1, 2, 3])
    sign_conservation_check(params, [0, 2, 3], [1, 2, 3], 1)
    assert calls == [[0, 2, 3], [1, 2, 3]] * 2
    with pytest.raises(ValueError, match="^policy must have 3 entries, got 2$"):
        single_coordinate_difference(params, (0, 2), (1, 2))
    with pytest.raises(ConfigError, match="^c_loss must be finite$"):
        single_coordinate_difference(dataclasses.replace(params, c_loss=np.nan),
                                     (0, 2, 3), (1, 2, 3))


def test_sign_conservation_micro(micro):
    rep = sign_conservation_check(micro, (0,), (1,), 1)
    assert not rep.degenerate
    assert rep.ratio == pytest.approx(5 / 3, abs=1e-12)
    assert rep.ratio == pytest.approx(rep.pi_ratio, rel=1e-12)


def test_sign_conservation_at_the_critical_price_is_degenerate(sleepy):
    # At the root of G(n,1) + c the ratio of two near-zero values says
    # nothing, so it is reported instead of tested.
    r = critical_price_state(sleepy, (0, 0), 1)
    at_root = dataclasses.replace(sleepy, price=r)
    rep = sign_conservation_check(at_root, (0, 0), (1, 0), 1)
    assert rep.degenerate
    assert np.isnan(rep.ratio) and np.isnan(rep.rel_error)
    assert abs(rep.value_d) < 1e-12 and abs(rep.value_d_prime) < 1e-12
    assert rep.pi_ratio == pytest.approx(1.7339449541284404, rel=1e-12)


def test_sign_conservation_refuses_a_change_at_another_level():
    with pytest.raises(ValueError, match="differ at level 2, not 1"):
        sign_conservation_check(micro_params(m=2), (0, 1), (0, 2), 1)


def test_sign_conservation_random_pairs():
    rng = np.random.default_rng(35)
    degenerate = 0
    for _ in range(40):
        params, _ = draw_instance(rng, n_max=8, m_max=8)
        d, d_prime, j = draw_change_pair(rng, params.m)
        rep = sign_conservation_check(params, d, d_prime, j)
        if rep.degenerate:
            degenerate += 1
            continue
        assert rep.rel_error < 1e-9
    assert degenerate <= 4


def test_critical_prices_global_micro(micro):
    crit = critical_prices_global(micro)
    assert crit.exact and crit.search_space == "full"
    assert crit.r_high == 0.0
    assert crit.r_low == pytest.approx(-5.7, abs=1e-12)


def test_critical_prices_sleepy_regime(sleepy):
    crit = critical_prices_global(sleepy)
    assert crit.r_low > 0
    assert crit.r_high > crit.r_low


def test_critical_prices_gate():
    # The size gate covers only the searches that enumerate: the 10^9
    # policies of the full space at m = 9 are searched by the per-level DPs.
    params = micro_params(m=9)
    assert critical_prices_global(params).exact
    crit = critical_prices_global(params, "threshold")
    assert not crit.exact


def test_extremal_root_bounds_the_per_policy_roots(micro):
    crit = critical_prices_global(micro)
    rep = perturbation_factors(micro, (1,))
    assert crit.r_low <= rep.crit_prices[0] <= max(crit.r_high, 0.0)


def _poisson_factors(params, d, method="rg"):
    """G(n,j) as differences of a solved potential vector."""
    sol = solve_poisson(params, d, method=method)
    n, m = params.n, params.m
    return sol.g[n:n + m] - sol.g[n + 1:n + m + 1]


def test_closed_form_factors_match_all_poisson_routes():
    rng = np.random.default_rng(36)
    corpus = [draw_instance(rng, n_max=12, m_max=12) for _ in range(25)]
    corpus += [wide_light_instance(rng) for _ in range(3)]
    for params, d in corpus:
        for price in (0.0, 1.0):
            at = dataclasses.replace(params, price=price)
            prf = realization_factors(at, d)
            for method in SOLVE_METHODS:
                direct = _poisson_factors(at, d, method)
                assert np.all(np.abs(prf - direct)
                              <= 1e-10 * np.maximum(1.0, np.abs(prf))), method


def test_heavy_load_draw_factors_match_exact_values():
    params, d = DRAW_634
    want = np.array([float(x) for x in exact(params, d).prf])
    got = realization_factors(params, d)
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), got - want


def test_heavy_load_factors_match_exact_values_and_signs():
    # A forward-error bound against exact rational values: the residual
    # and the agreement of the Poisson routes cannot show an error that
    # every route shares.
    for params, d in _heavy_corpus():
        ref = exact(params, d)
        want = np.array([float(x) for x in ref.prf])
        got = realization_factors(params, d)
        floor = 1e-12 * np.abs(want).max()
        assert np.all(np.abs(got - want)
                      <= 1e-9 * np.maximum(np.abs(want), floor)), (params, d)
        signs = [(x + ref.c > 0) - (x + ref.c < 0) for x in ref.prf]
        assert np.array_equal(np.sign(got + price_constant(params)), signs), (params, d)


def test_heavy_load_factors_raise_instead_of_nan():
    # lambda / (n mu1) = 100 per level: the stationary weights of the
    # all-asleep policy overflow long before level 200.
    params = micro_params(lambda_=10.0, mu1=0.1, mu2=0.1, n=1, m=200)
    d = (0,) * 200
    with pytest.raises(NumericalError, match="not finite"):
        realization_factors(params, d)
    with pytest.raises(NumericalError, match="not finite"):
        perturbation_factors(params, d)
    with pytest.raises(NumericalError, match="not finite"):
        critical_prices_global(params, "threshold")


@pytest.mark.parametrize("field, value", [
    ("c_energy", float("nan")), ("c_loss", float("inf")), ("p2_sleep", 1.5)])
def test_critical_prices_validate_params(field, value):
    # A NaN cost was blamed on overflow, and a sleeping server that draws
    # more than a working one got prices.
    params = dataclasses.replace(micro_params(n=1, m=3), **{field: value})
    with pytest.raises(ConfigError, match=field):
        critical_prices_global(params)


@pytest.mark.parametrize("j", [0, 4, 1.0, "2", True])
def test_level_must_be_an_integer_in_range(j):
    params = micro_params(n=1, m=3)
    with pytest.raises(ValueError, match="j must be an integer in 1..3"):
        critical_price_state(params, (0, 2, 3), j)
    with pytest.raises(ValueError, match="j must be an integer in 1..3"):
        sign_conservation_check(params, (0, 2, 3), (0, 2, 3), j)


def _refuses(lines, params, d):
    try:
        lines(params, d)
    except NumericalError:
        return True
    return False


def test_policy_and_block_lines_refuse_the_same_draws():
    rng = np.random.default_rng(101)
    corpus = []
    for _ in range(200):
        params = draw_params(rng, n_max=30, m_max=30)
        corpus.append((params, random_policy(rng, params.m)))
    # None of those draws overflows; the three below do.
    overflowing = [
        (micro_params(lambda_=10.0, mu1=0.1, mu2=0.1, n=1, m=200), (0,) * 200),
        # x * lambda overflows at the top level, where lambda / nu = 1 and
        # so a cumulative product of the ratios does not.
        (micro_params(lambda_=1e154, mu1=1.0, mu2=5e153, n=1, m=2), (0, 2)),
        # Weights 1, 1e308, 1e308: each finite, their sum not.
        (micro_params(lambda_=1.0, mu1=1e-308, mu2=1.0, n=1, m=1), (1,)),
    ]
    refused = [_refuses(_policy_lines, params, d) for params, d in corpus + overflowing]
    assert refused == [False] * len(corpus) + [True] * len(overflowing)


def _close(got, want) -> bool:
    """got within 1e-12 max(1, |want|) of the Fraction want."""
    return abs(got - float(want)) <= 1e-12 * max(1.0, abs(float(want)))


def _extreme_roots(pairs):
    """(largest, smallest) of exact_root_pairs' (numerator, denominator)
    pairs, as Fractions. Rounding is monotone, so a pair's correctly
    rounded float orders it unless the floats tie; tied pairs are compared
    by cross-multiplication, their denominators positive. Only the two
    extremes are reduced."""
    (high, high_den), (low, low_den) = pairs[0], pairs[0]
    top = bottom = high / high_den
    for num, den in pairs:
        value = num / den
        if value > top or value == top and num * high_den > high * den:
            high, high_den, top = num, den, value
        if value < bottom or value == bottom and num * low_den < low * den:
            low, low_den, bottom = num, den, value
    return Fraction(high, high_den), Fraction(low, low_den)


def test_per_policy_roots_lie_within_global_prices():
    # R_H and R_L come from the per-level DPs, each policy's roots here from
    # tests/exact.py, so the bound carries the DPs' rounding.
    rng = np.random.default_rng(7)
    for _ in range(60):
        params = draw_params(rng, n_max=6, m_max=4)
        crit = critical_prices_global(params, "full")
        low, high = crit.r_low, max(crit.r_high, 0.0)
        for d in enumerate_policies(params.m, "full"):
            most, least = _extreme_roots(exact_root_pairs(params, d))
            assert _close(low, min(low, least)), (params, d)
            assert _close(high, max(high, most)), (params, d)


def _exact_extremes(params, space):
    """(max{0, roots}, min{roots}) over every policy of a space, exactly."""
    high, low = _extreme_roots([pair for d in enumerate_policies(params.m, space)
                                for pair in exact_root_pairs(params, d)])
    return max(0, high), low


def test_critical_prices_equal_the_exact_extremes_of_enumerated_roots():
    # The enumeration over float roots dropped the extreme root where its
    # R-slope fell below DEGENERATE_EPS, and was off by up to 0.996 on
    # light-load bang-bang draws (n=4, m=7, lambda=0.172: -3.0e12 for the
    # exact -8.04e14).
    rng = np.random.default_rng(5)
    corpus = [draw_params(rng, n_max=5, m_max=8) for _ in range(60)]
    rng = np.random.default_rng(2026)
    corpus += [dataclasses.replace(params, m=min(params.m, 6))
               for params, _ in (heavy_instance(rng) for _ in range(20))]
    for params in corpus:
        for space, m_max in (("bang_bang", 8), ("reduced", 5), ("full", 4),
                             ("threshold", 8)):
            if params.m <= m_max:
                crit = critical_prices_global(params, space)
                high, low = _exact_extremes(params, space)
                assert _close(crit.r_high, high) and _close(crit.r_low, low), (params, space)


def test_heavy_load_critical_prices_equal_their_exact_values():
    # The weights of n = 1000 servers at lambda = 1000 overflow, and the
    # enumeration refused them; the DPs' prefix and suffix sums are ratios
    # of weights and stay bounded.
    params = micro_params(n=1000, lambda_=1000.0, mu1=1.0, m=3)
    for space in ("full", "reduced", "bang_bang"):
        crit = critical_prices_global(params, space)
        high, low = _exact_extremes(params, space)
        assert _close(crit.r_high, high) and _close(crit.r_low, low), space


def test_wide_model_bang_bang_r_low_at_m_20():
    # The exact minimum of the roots of tests/exact.py over the 2^20
    # bang-bang policies of the wide model, found by enumerating them all:
    # level 1 of (0, 2, 3, ..., 20). The enumeration over float roots gave
    # -5.60e12, 0.99 off.
    params = micro_params(n=2, lambda_=2.0, mu1=1.0, mu2=1.0, m=20)
    want = Fraction(-747609284432150699588849821379, 2**50)
    assert exact_roots(params, (0, *range(2, 21)))[0] == want
    got = critical_prices_global(params, "bang_bang").r_low
    assert abs(got - want) <= 1e-12 * abs(want)


def test_bang_bang_critical_prices_take_o_m2_on_the_wide_model():
    # The 2^100 bang-bang policies of the wide model: the enumeration never
    # finished them.
    params = micro_params(n=2, lambda_=2.0, mu1=1.0, mu2=1.0, m=100)
    start = time.perf_counter()
    critical_prices_global(params, "bang_bang")
    assert time.perf_counter() - start < 0.1


def _per_policy_critical_prices(params, space):
    """R_H and R_L by two Poisson solves per policy, with the R-slope of
    each extremal root."""
    k = ((params.p2_work - params.p2_sleep) * params.c_energy) / params.mu2
    at0 = dataclasses.replace(params, price=0.0)
    at1 = dataclasses.replace(params, price=1.0)
    high, low = (0.0, 1.0), (np.inf, np.nan)
    for d in enumerate_policies(params.m, space):
        g0 = _poisson_factors(at0, d)
        slope = 1.0 + (_poisson_factors(at1, d) - g0)
        for jj in range(params.m):
            if abs(slope[jj]) < 1e-12:
                continue
            root = (k - g0[jj]) / slope[jj]
            if root > high[0]:
                high = (root, slope[jj])
            if root < low[0]:
                low = (root, slope[jj])
    return high, low


@pytest.mark.parametrize("space, m_max", [("full", 4), ("bang_bang", 7)])
def test_critical_prices_global_matches_per_policy_poisson(space, m_max):
    rng = np.random.default_rng(37)
    instances = [micro_params(m=m_max), sleepy_params(m=m_max)]
    instances += [draw_params(rng, n_max=4, m_min=1, m_max=m_max)
                  for _ in range(4)]
    for params in instances:
        crit = critical_prices_global(params, space)
        for got, (want, slope) in zip((crit.r_high, crit.r_low),
                                      _per_policy_critical_prices(params, space)):
            # Near-degenerate slopes make the raw root ill-conditioned;
            # the slope-scaled gap is what both routes determine.
            gap = abs(got - want) * min(1.0, abs(slope))
            assert gap <= 1e-10 * max(1.0, abs(want)), (params, got, want)


def test_critical_prices_chunk_the_threshold_space_by_cells():
    # One block of the m + 1 threshold policies of the wide model held a
    # traced peak growing as m^2: 2.1 MiB at m = 200, 64.9 MiB at m = 1000.
    # One policy at a time holds O(m), 0.1 MiB at m = 200. Traced, the
    # per-policy path runs 20 times slower, so m = 1000 is held to its
    # address space instead (test_scale.py). From m = 200 the wide model's
    # R_L is past the double range and refused, so this runs at m = 190.
    import tracemalloc

    params = micro_params(n=2, lambda_=2.0, mu1=1.0, mu2=1.0, m=190)
    tracemalloc.start()
    try:
        critical_prices_global(params, "threshold")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
