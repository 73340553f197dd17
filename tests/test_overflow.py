"""Heavy loads whose stationary weights overflow, and death rates that
span many decades.

Every public numeric entry point either answers or refuses with a
SleepqError; none lets numpy warn first, so warnings as errors change
nothing.
"""

import dataclasses

import numpy as np
import pytest

from sleepq import (
    SleepqError,
    build_generator,
    critical_prices_global,
    invert_reduced,
    optimal_extreme_prices,
    optimize,
    performance_difference,
    perturbation_factors,
    policy_profit,
    rg_factorize,
    solve_poisson,
    threshold_scan,
    verify_monotonicity,
)
from sleepq.optimize import _extreme_closed_form, price_sweep
from sleepq.potential import SOLVE_METHODS
from conftest import draw_params, overflowed_corpus, random_policy


def _awake(params):
    return tuple(range(1, params.m + 1))


def _extreme(regime):
    def call(params, d):
        crit = critical_prices_global(params, "bang_bang")
        return optimal_extreme_prices(params, regime, crit=crit)
    return call


ENTRY_POINTS = {
    **{f"solve_poisson-{method}-{normalization}":
       lambda p, d, m=method, z=normalization: solve_poisson(
           p, d, method=m, normalization=z)
       for method in SOLVE_METHODS for normalization in ("anchored", "fundamental")},
    "performance_difference":
        lambda p, d: performance_difference(p, d, _awake(p)),
    "performance_difference-back":
        lambda p, d: performance_difference(p, _awake(p), d),
    "perturbation_factors": perturbation_factors,
    "critical_prices_global": lambda p, d: critical_prices_global(p, "bang_bang"),
    "optimize": lambda p, d: optimize(p, "full"),
    "optimize-top_k": lambda p, d: optimize(p, "bang_bang", top_k=3),
    "threshold_scan": lambda p, d: threshold_scan(p),
    "verify_monotonicity": lambda p, d: verify_monotonicity(p, d, 1),
    "price_sweep": lambda p, d: price_sweep(p, [0.0, p.price, 2 * p.price],
                                            "bang_bang"),
    "optimal_extreme_prices-high": _extreme("high"),
    "optimal_extreme_prices-low": _extreme("low"),
}


@pytest.fixture(scope="module")
def corpus():
    return overflowed_corpus()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_entry_points_answer_or_refuse_without_a_warning(name, corpus):
    for params, d in corpus:
        try:
            ENTRY_POINTS[name](params, d)
        except SleepqError:
            pass


@pytest.mark.filterwarnings("error")
def test_extreme_closed_form_answers_where_policy_profit_does(corpus):
    # Weights near 1e300 times the profit rates overflowed the closed
    # form's dot products, while pi, and so policy_profit, stayed finite.
    answered = 0
    for params, _ in corpus:
        for regime, d_star in (("high", _awake(params)), ("low", (0,) * params.m)):
            try:
                generic = policy_profit(params, d_star)
            except SleepqError:
                with pytest.raises(SleepqError, match="not finite"):
                    _extreme_closed_form(params, regime)
                continue
            answered += 1
            got, eta = _extreme_closed_form(params, regime)
            assert got == d_star
            assert abs(eta - generic) <= 1e-10 * max(1.0, abs(generic)), params
    assert answered == 31


def _span_corpus():
    """60 (params, policy) pairs with a tiny mu1, so the death rates span
    1e10 or more wherever the policy keeps a Group-2 server awake.

    From default_rng(2603): draw_params(n_max=3, m_max=5) with mu1
    log-uniform in 1e-14..1e-11, mu2 in 0.1..10 and lambda in 1e-14..10,
    each with a random policy.
    """
    rng = np.random.default_rng(2603)
    corpus = []
    for _ in range(60):
        params = draw_params(rng, n_max=3, m_max=5)
        mu1, mu2, lam = (float(10.0 ** rng.uniform(lo, hi))
                         for lo, hi in ((-14, -11), (-1, 1), (-14, 1)))
        params = dataclasses.replace(params, mu1=mu1, mu2=mu2, lambda_=lam)
        corpus.append((params, random_policy(rng, params.m)))
    return corpus


SPAN_CALLS = {
    **{name: call for name, call in ENTRY_POINTS.items()
       if name.startswith("solve_poisson") or name == "performance_difference"},
    "invert_reduced": lambda p, d: invert_reduced(
        rg_factorize(build_generator(p, d))),
}


@pytest.mark.filterwarnings("error")
def test_wide_spans_answer_or_refuse_without_a_warning():
    # The factorization used to warn once the death rates spanned 1e12,
    # and the residual gate then refused most of those solves anyway. Now
    # the gate's refusal names the span, and nothing warns.
    corpus = _span_corpus()
    refused = dict.fromkeys(SPAN_CALLS, 0)
    for params, d in corpus:
        for name, call in SPAN_CALLS.items():
            try:
                call(params, d)
            except SleepqError as exc:
                if "Poisson residual" in str(exc):
                    assert "exceeds tolerance; the death rates span" in str(exc)
                refused[name] += 1
    # The corpus reaches both outcomes of every solve.
    solves = [count for name, count in refused.items()
              if name.startswith("solve_poisson")]
    assert 0 < min(solves) and max(solves) < len(corpus)
