"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single PASS or FAIL
line with its headline measurement, so a full run yields a thirteen-line
scoreboard. Tolerances are part of the contract and are stated inline.
"""

import dataclasses
import functools
import math
import time

import numpy as np
import pytest
import scipy.linalg

from sleepq import (
    ModelParams,
    SimConfig,
    average_profit,
    build_generator,
    build_reward,
    critical_prices_global,
    optimal_extreme_prices,
    optimize,
    perturbation_factors,
    performance_difference,
    policy_profit,
    sign_conservation_check,
    simulate,
    single_coordinate_difference,
    solve_poisson,
    stationary_closed_form,
    threshold_scan,
    verify_monotonicity,
)
from sleepq.potential import (
    invert_reduced,
    poisson_residual,
    reduced_matrix,
    rg_factorize,
)
import conftest
from block import enumerate_policies
from conftest import (
    draw_change_pair,
    draw_instance,
    micro_params,
    sleepy_params,
    well_conditioned,
)
from exact import exact

SEED = 20260814


def _report(line: str) -> None:
    conftest.SCOREBOARD.append(line)
    print(line)


def criterion(label: str):
    """Print one scoreboard line per test, pass or fail."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                _report(f"FAIL {label}: {type(exc).__name__}: {exc}")
                raise
            _report(f"PASS {label}" + (f" [{detail}]" if detail else ""))

        return run

    return wrap


@pytest.fixture(scope="session")
def corpus():
    """200 well-conditioned instances with n, m up to 20."""
    rng = np.random.default_rng(SEED)
    return [draw_instance(rng) for _ in range(200)]


@criterion("criterion 01, stationary oracle")
def test_c01_stationary_matches_nullspace_oracle(corpus):
    started = time.perf_counter()
    worst = 0.0
    for params, d in corpus:
        pi = stationary_closed_form(params, d).pi
        kernel = scipy.linalg.null_space(build_generator(params, d).matrix.T)
        assert kernel.shape[1] == 1
        oracle = kernel[:, 0] / kernel[:, 0].sum()
        worst = max(worst, float(np.max(np.abs(pi - oracle))))
    elapsed = time.perf_counter() - started
    assert worst < 1e-10
    assert elapsed < 10.0
    return f"200 instances, worst entry error {worst:.2e}, {elapsed:.2f}s"


@criterion("criterion 02, potential residuals across solve paths")
def test_c02_poisson_residuals_and_path_agreement(corpus):
    worst_residual = 0.0
    worst_gap = 0.0
    for params, d in corpus:
        gen = build_generator(params, d)
        f = build_reward(params, d)
        sols = {method: solve_poisson(params, d, method=method)
                for method in ("rg", "dense", "explicit")}
        for sol in sols.values():
            res = poisson_residual(gen, sol.g, sol.eta, f)
            worst_residual = max(worst_residual, res)
            assert res < 1e-9
        scale = max(1.0, float(np.max(np.abs(sols["dense"].g))))
        for method in ("rg", "explicit"):
            gap = float(np.max(np.abs(sols[method].g - sols["dense"].g)))
            worst_gap = max(worst_gap, gap / scale)
            assert gap <= 1e-9 * scale
    return (f"worst residual {worst_residual:.2e}, "
            f"worst relative path gap {worst_gap:.2e}")


@criterion("criterion 03, reduced-inverse first-column identity")
def test_c03_reduced_inverse_first_column_identity(corpus):
    worst = 0.0
    for params, d in corpus:
        gen = build_generator(params, d)
        neg_b = -reduced_matrix(gen)
        e_1 = np.zeros(neg_b.shape[0])
        e_1[0] = 1.0
        dense = np.linalg.solve(neg_b, params.mu1 * e_1)
        worst = max(worst, float(np.max(np.abs(dense - 1.0))))
        inv = invert_reduced(rg_factorize(gen))
        column = params.mu1 * inv[:, 0]
        worst = max(worst, float(np.max(np.abs(column - 1.0))))
        assert worst < 1e-10
    return f"200 instances, worst deviation from ones {worst:.2e}"


@criterion("criterion 04, hand-checked micro instance")
def test_c04_worked_micro_instance_exact():
    params = micro_params()
    d = (1,)
    sol = stationary_closed_form(params, d)
    f = build_reward(params, d)
    eta = average_profit(sol, f)
    g = solve_poisson(params, d, normalization="anchored", anchor=1.0).g
    rep = perturbation_factors(params, d)
    checks = {
        "pi": np.max(np.abs(sol.pi - np.array([0.4, 0.4, 0.2]))),
        "f": np.max(np.abs(f - np.array([-2.5, 7.0, 10.3]))),
        "eta": abs(eta - 3.86),
        "g": np.max(np.abs(g - np.array([1.0, 7.36, 10.58]))),
        "prf": abs(float(rep.prf[0]) + 3.22),
        "c": abs(rep.c - 9.5),
    }
    for name, err in checks.items():
        assert err <= 1e-12, f"{name} off by {err:.3e}"
    worst = max(checks.values())
    return f"six hand-derived quantities, worst error {worst:.2e}"


@criterion("criterion 05, one-coordinate difference by three routes")
def test_c05_single_change_difference_three_routes():
    rng = np.random.default_rng(SEED + 5)
    checked = 0
    worst = 0.0
    while checked < 500:
        params, _ = draw_instance(rng, n_max=10, m_max=10)
        d, d_prime, _ = draw_change_pair(rng, params.m)
        if not (well_conditioned(params, d)
                and well_conditioned(params, d_prime)):
            continue
        eta_d = policy_profit(params, d)
        eta_dp = policy_profit(params, d_prime)
        direct = eta_dp - eta_d
        general = performance_difference(params, d, d_prime)
        closed = single_coordinate_difference(params, d, d_prime)
        scale = max(1.0, abs(eta_d), abs(eta_dp))
        spread = max(abs(direct - general), abs(direct - closed),
                     abs(general - closed))
        worst = max(worst, spread / scale)
        assert spread <= 1e-9 * scale
        checked += 1
    return f"500 coordinate changes, worst route spread {worst:.2e}"


@criterion("criterion 06, affine profit tail and its slope formula")
def test_c06_affine_tail_slope_formula():
    rng = np.random.default_rng(SEED + 6)
    worst = 0.0
    for _ in range(100):
        params, d = draw_instance(rng, n_max=10, m_max=10, m_min=2)
        j = int(rng.integers(1, params.m + 1))
        rep = verify_monotonicity(params, d, j)
        clamped = list(d)
        clamped[j - 1] = j
        pi = stationary_closed_form(params, tuple(clamped)).pi
        slope = -(pi[params.n + j]
                  * (params.p2_work - params.p2_sleep) * params.c_energy)
        for v in range(j, params.m):
            step = float(rep.etas[v + 1] - rep.etas[v])
            worst = max(worst, abs(step - slope))
        worst = max(worst, rep.linear_residual)
        assert worst < 1e-10
    return f"100 sweeps, worst affine residual {worst:.2e}"


def _sleepy_jitter(rng):
    """Variations of the cheap-loss model that keep its low regime open."""
    return sleepy_params(
        lambda_=0.3 * float(rng.uniform(0.9, 1.1)),
        mu2=0.8 * float(rng.uniform(0.9, 1.1)),
        p2_work=4.0 * float(rng.uniform(1.0, 1.5)),
        p2_sleep=0.1 * float(rng.uniform(0.5, 1.0)),
        c_hold_g1=0.1 * float(rng.uniform(0.5, 1.0)),
        c_hold_g2=0.1 * float(rng.uniform(0.5, 1.0)),
    )


def _extreme_price_corpus(rng, random_count, low_count):
    """(params, critical prices) pairs; low_count of them with r_low > 0.5."""
    out = []
    for _ in range(random_count):
        params, _ = draw_instance(rng, n_max=6, m_max=4)
        out.append((params, critical_prices_global(params, "full")))
    attempts = 0
    while low_count:
        attempts += 1
        assert attempts < 100
        params = _sleepy_jitter(rng)
        crit = critical_prices_global(params, "full")
        if crit.r_low > 0.5:
            out.append((params, crit))
            low_count -= 1
    return out


def _monotone_prefix(rep, j, sign):
    """True when the {0..j} profile is strictly monotone at fp resolution.

    Steps inside the noise floor cannot witness a strict inequality; such
    profiles are only required not to move the wrong way.
    """
    steps = sign * np.diff(rep.etas[: j + 1])
    margin = 1e-12 * max(1.0, float(np.max(np.abs(rep.etas))))
    assert np.all(steps >= -margin)
    return bool(np.all(steps > margin))


@criterion("criterion 07, uniform signs and monotonicity at extreme prices")
def test_c07_extreme_price_signs_and_monotonicity():
    rng = np.random.default_rng(SEED + 7)
    corpus = _extreme_price_corpus(rng, random_count=10, low_count=4)
    low_exercised = 0
    swept = resolved = 0
    worst_high = math.inf   # min of G+c above the high threshold
    worst_low = -math.inf   # max of G+c below the low threshold
    for params, crit in corpus:
        assert crit.exact

        high = dataclasses.replace(
            params, price=crit.r_high + 1.0 + 0.05 * abs(crit.r_high))
        for d in enumerate_policies(params.m, "full"):
            rep = perturbation_factors(high, d)
            worst_high = min(worst_high, float(np.min(rep.prf + rep.c)))
            assert worst_high >= -1e-12
        for _ in range(3):
            d = tuple(int(v) for v in rng.integers(0, params.m + 1,
                                                   size=params.m))
            for j in range(1, params.m + 1):
                rep = verify_monotonicity(high, d, j)
                swept += 1
                resolved += _monotone_prefix(rep, j, +1)

        if crit.r_low <= 0.5:
            continue
        low_exercised += 1
        low = dataclasses.replace(params, price=0.5 * crit.r_low)
        for d in enumerate_policies(params.m, "full"):
            rep = perturbation_factors(low, d)
            worst_low = max(worst_low, float(np.max(rep.prf + rep.c)))
            assert worst_low <= 1e-12
        for _ in range(3):
            d = tuple(int(v) for v in rng.integers(0, params.m + 1,
                                                   size=params.m))
            for j in range(1, params.m + 1):
                rep = verify_monotonicity(low, d, j)
                swept += 1
                resolved += _monotone_prefix(rep, j, -1)
    assert low_exercised >= 3
    assert resolved >= 0.7 * swept
    return (f"{len(corpus)} instances, {low_exercised} in the low regime; "
            f"sign margins {worst_high:.2e} above, {worst_low:.2e} below; "
            f"{resolved}/{swept} sweeps strictly resolved")


@criterion("criterion 08, two-point policies attain the full optimum")
def test_c08_bang_bang_attains_full_optimum():
    rng = np.random.default_rng(SEED + 8)
    worst = 0.0
    agree = 0
    for _ in range(100):
        params, _ = draw_instance(rng, n_max=8, m_max=3)
        full = optimize(params, "full")
        bang = optimize(params, "bang_bang")
        worst = max(worst, abs(full.best_eta - bang.best_eta))
        assert worst <= 1e-12
        agree += full.best_policy == bang.best_policy
    return (f"100 instances, worst optimum gap {worst:.2e}, "
            f"{agree} identical argmax policies")


@criterion("criterion 09, closed-form optima in the extreme regimes")
def test_c09_extreme_regime_closed_form_optima():
    rng = np.random.default_rng(SEED + 9)
    counts = {"high": 0, "low": 0}
    policy_matches = 0
    worst = worst_exact = 0.0
    for params, crit in _extreme_price_corpus(rng, random_count=8,
                                              low_count=4):
        priced = {"high": dataclasses.replace(
            params, price=crit.r_high + 1.0 + 0.05 * abs(crit.r_high))}
        if crit.r_low > 0.5:
            priced["low"] = dataclasses.replace(params,
                                                price=0.5 * crit.r_low)
        for regime, inst in priced.items():
            policy, eta_closed = optimal_extreme_prices(inst, regime,
                                                        crit=crit)
            generic = optimize(inst, "full")
            gap = abs(eta_closed - generic.best_eta)
            worst = max(worst, gap)
            assert gap <= 1e-10
            # The independent check of the displayed optimum: the exact
            # rational profit of the closed-form policy.
            scale = max(1.0, abs(eta_closed))
            exact_gap = abs(eta_closed - float(exact(inst, policy).eta)) / scale
            worst_exact = max(worst_exact, exact_gap)
            assert exact_gap <= 1e-12
            policy_matches += policy == generic.best_policy
            counts[regime] += 1
    assert counts["high"] >= 10 and counts["low"] >= 3
    return (f"{counts['high']} high / {counts['low']} low regimes, "
            f"worst closed-form gap {worst:.2e}, "
            f"worst relative gap to exact {worst_exact:.2e}, "
            f"{policy_matches} argmax matches")


@criterion("criterion 10, sign conservation across a coordinate change")
def test_c10_sign_conservation_ratio():
    rng = np.random.default_rng(SEED + 10)
    checked = 0
    degenerate = 0
    worst = 0.0
    while checked < 500:
        params, _ = draw_instance(rng, n_max=10, m_max=10)
        d, d_prime, j = draw_change_pair(rng, params.m)
        if not (well_conditioned(params, d)
                and well_conditioned(params, d_prime)):
            continue
        rep = sign_conservation_check(params, d, d_prime, j)
        checked += 1
        if rep.degenerate:
            degenerate += 1
            continue
        worst = max(worst, rep.rel_error)
        assert rep.rel_error <= 1e-9
    assert degenerate <= 50
    return (f"500 pairs, worst relative error {worst:.2e}, "
            f"{degenerate} degenerate pairs excluded")


@criterion("criterion 11, sign triple at the best threshold")
def test_c11_threshold_optimum_sign_triple():
    rng = np.random.default_rng(SEED + 11)
    checked = 0
    redraws = 0
    while checked < 100:
        params, _ = draw_instance(rng, n_max=8, m_max=6, m_min=2)
        scan = threshold_scan(params)
        etas = np.sort(scan.eta_by_theta)[::-1]
        if etas[0] - etas[1] < 1e-7 * max(1.0, abs(etas[0])):
            redraws += 1  # near-ties make the triple's sign unidentifiable
            assert redraws < 200
            continue
        checked += 1
        tol = 1e-9 * max(1.0, float(np.max(np.abs(scan.eta_by_theta))))
        below, here, above = scan.necessary_condition
        if not math.isnan(below):
            assert below <= tol
        if not math.isnan(here):
            assert here >= -tol
        if not math.isnan(above):
            assert above >= -tol
        if not math.isnan(scan.necessary_condition_proof_form):
            assert scan.necessary_condition_proof_form >= -tol
    return f"100 instances, {redraws} near-tie redraws"


@criterion("criterion 12, simulation agrees with the analytic law")
def test_c12_simulator_matches_analytic_law():
    rng = np.random.default_rng(SEED + 12)
    instances = [draw_instance(rng, n_max=10, m_max=10) for _ in range(20)]
    warm = SimConfig(horizon=2000, warmup=200, seed=0, batch_count=4)
    simulate(micro_params(), (1,), warm)  # warm up off the clock

    results = []
    started = time.perf_counter()
    for k, (params, d) in enumerate(instances):
        cfg = SimConfig(horizon=1_100_000, warmup=100_000, seed=1000 + k,
                        batch_count=20)
        res = simulate(params, d, cfg)
        assert res.counts.events == 1_000_000
        eta = policy_profit(params, d)
        assert abs(res.eta_hat - eta) <= max(0.01 * abs(eta),
                                             3 * res.ci_half_width)
        tv = 0.5 * float(np.abs(res.pi_hat
                                - stationary_closed_form(params, d).pi).sum())
        assert tv < 0.01
        results.append((cfg, res))
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0

    for k in (0, 9, 19):
        params, d = instances[k]
        again = simulate(params, d, results[k][0])
        assert again.eta_hat == results[k][1].eta_hat
        assert np.array_equal(again.batch_records, results[k][1].batch_records)
    # Warmup events run the same kernel, so they count toward the rate.
    simulated = sum(cfg.horizon for cfg, _ in results)
    return (f"20 runs of 1e6 kept events in {elapsed:.1f}s "
            f"({simulated / elapsed:.1e} events/s) on the python kernel, "
            f"reruns bit-equal")


@criterion("criterion 13, threshold family never beats the full space")
def test_c13_threshold_below_full_optimum():
    rng = np.random.default_rng(SEED + 13)
    # mid-price instance whose optimum wakes at level 1 but sleeps at 2,
    # a shape no threshold policy can express
    wedge = ModelParams(lambda_=4.8, mu1=0.9, mu2=0.22, n=3, m=2,
                        p1_work=1.2, p2_work=2.9, p2_sleep=0.42,
                        c_energy=1.1, c_hold_g1=3.0, c_hold_g2=2.0,
                        c_transfer=3.9, c_loss=2.8, price=7.4)
    instances = [micro_params(), sleepy_params(), wedge]
    instances += [draw_instance(rng, n_max=8, m_max=4)[0] for _ in range(20)]
    gaps = []
    for params in instances:
        full = optimize(params, "full")
        thresh = optimize(params, "threshold")
        gap = full.best_eta - thresh.best_eta
        assert gap >= 0.0
        gaps.append(gap)
    assert max(gaps) > 1e-3  # the wedge keeps the comparison non-vacuous
    _report("  threshold-to-full gaps: "
            + ", ".join(f"{gap:.3g}" for gap in gaps))
    return f"{len(instances)} instances, largest gap {max(gaps):.3g}"
