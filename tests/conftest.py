"""Shared instances and guarded random draws for the test suite."""

import dataclasses

import numpy as np
import pytest

from sleepq import ModelParams, stationary_closed_form
from sleepq.chain import PolicyRecord, _state_rates, _weights, build_generator
from sleepq.potential import reduced_matrix

MASS_LIMIT = 1e4       # sum of unnormalized stationary weights
CONDITION_LIMIT = 1e6  # infinity-norm condition number of the reduced matrix

SCOREBOARD: list = []  # one line per acceptance criterion, printed at the end


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if SCOREBOARD:
        terminalreporter.section("acceptance scoreboard")
        for line in SCOREBOARD:
            terminalreporter.write_line(line)


def micro_params(**overrides) -> ModelParams:
    """The fully hand-checked one-sleeper instance."""
    base = dict(lambda_=1.0, mu1=1.0, mu2=1.0, n=1, m=1, p1_work=2.0,
                p2_work=1.0, p2_sleep=0.5, c_energy=1.0, c_hold_g1=0.5,
                c_hold_g2=1.0, c_transfer=0.2, c_loss=5.0, price=10.0)
    base.update(overrides)
    return ModelParams(**base)


def sleepy_params(**overrides) -> ModelParams:
    """A model whose low-price regime is nonempty (R_L > 0).

    Losses are free, holding is cheap, and waking Group 2 is expensive,
    so with little or no revenue the all-asleep policy wins.
    """
    base = dict(lambda_=0.3, mu1=1.0, mu2=0.8, n=1, m=2, p1_work=1.0,
                p2_work=4.0, p2_sleep=0.1, c_energy=1.0, c_hold_g1=0.1,
                c_hold_g2=0.1, c_transfer=0.0, c_loss=0.0, price=0.0)
    base.update(overrides)
    return ModelParams(**base)


@pytest.fixture
def micro() -> ModelParams:
    return micro_params()


@pytest.fixture
def sleepy() -> ModelParams:
    return sleepy_params()


def random_policy(rng, m: int) -> tuple:
    return tuple(int(v) for v in rng.integers(0, m + 1, size=m))


def level_block(rows) -> tuple[list, np.ndarray]:
    """The block (levels, digits) of policy rows: each level's value set is
    the values its rows take there, ascending, and a row's digit the index
    of its value in that set."""
    sets = [np.unique(column, return_inverse=True) for column in np.array(rows).T]
    return ([values.tolist() for values, _ in sets],
            np.array([digits for _, digits in sets]).T)


def well_conditioned(params: ModelParams, d: tuple) -> bool:
    sol = stationary_closed_form(params, d)
    if sol.b > MASS_LIMIT:
        return False
    neg_b = -reduced_matrix(build_generator(params, d))
    try:
        inv = np.linalg.inv(neg_b)
    except np.linalg.LinAlgError:
        return False
    kappa = float(np.abs(neg_b).sum(axis=1).max()
                  * np.abs(inv).sum(axis=1).max())
    return kappa <= CONDITION_LIMIT


def draw_params(rng, n_max=20, m_max=20, price_max=20.0, cost_max=5.0,
                n_min=1, m_min=1) -> ModelParams:
    n = int(rng.integers(n_min, n_max + 1))
    m = int(rng.integers(m_min, m_max + 1))
    lam, mu1, mu2 = (float(x) for x in 10.0 ** rng.uniform(-1.0, 1.0, size=3))
    p2_work = float(rng.uniform(0.2, 4.0))
    return ModelParams(
        lambda_=lam, mu1=mu1, mu2=mu2, n=n, m=m,
        p1_work=float(rng.uniform(0.2, 4.0)),
        p2_work=p2_work,
        p2_sleep=p2_work * float(rng.uniform(0.05, 0.95)),
        c_energy=float(rng.uniform(0.0, cost_max)),
        c_hold_g1=float(rng.uniform(0.0, cost_max)),
        c_hold_g2=float(rng.uniform(0.0, cost_max)),
        c_transfer=float(rng.uniform(0.0, cost_max)),
        c_loss=float(rng.uniform(0.0, cost_max)),
        price=float(rng.uniform(0.0, price_max)),
    )


def draw_instance(rng, n_max=20, m_max=20, **kwargs):
    """(params, policy) with the ill-conditioned draws rejected.

    Heavy-traffic mass or an extreme condition number of the reduced
    matrix put an instance outside the well-conditioned desk scale the
    solver is specified for; such draws are redrawn.
    """
    while True:
        params = draw_params(rng, n_max=n_max, m_max=m_max, **kwargs)
        d = random_policy(rng, params.m)
        if well_conditioned(params, d):
            return params, d


def wide_light_instance(rng):
    """(params, policy) of a chain with m in 60..200 at light load."""
    n = int(rng.integers(1, 5))
    m = int(rng.integers(60, 201))
    params = dataclasses.replace(
        draw_params(rng, n_min=n, n_max=n, m_min=m, m_max=m),
        lambda_=float(10.0 ** rng.uniform(-1.0, 0.0)),
        mu1=float(10.0 ** rng.uniform(0.0, 1.0)),
        mu2=float(10.0 ** rng.uniform(0.0, 1.0)),
    )
    return params, random_policy(rng, m)


def heavy_instance(rng):
    """(params, policy) with lambda / mu1 in 3..30 and m in 10..60.

    Enough load that pi rises over most levels, where the backward
    recursion for the realization factors loses digits; the weights stay
    far from overflow.
    """
    params = draw_params(rng, n_max=10, m_min=10, m_max=60)
    params = dataclasses.replace(
        params,
        lambda_=params.mu1 * float(10.0 ** rng.uniform(np.log10(3.0), np.log10(30.0))))
    return params, random_policy(rng, params.m)


def draw_change_pair(rng, m: int):
    """Two policies differing in one coordinate, in closed-form range.

    The closed-form difference formula is stated for values in {0..j} at
    the changed level j, so both are drawn there; other coordinates are
    arbitrary.
    """
    d = list(random_policy(rng, m))
    j = int(rng.integers(1, m + 1))
    a, b = rng.choice(j + 1, size=2, replace=False)
    d[j - 1] = int(a)
    d_prime = list(d)
    d_prime[j - 1] = int(b)
    return tuple(d), tuple(d_prime), j


def overflowed(params: ModelParams, d: tuple) -> ModelParams:
    """params with lambda doubled until a stationary weight of d passes 1e300."""
    while max(_weights(PolicyRecord(params, d, *_state_rates(params, d)))) <= 1e300:
        params = dataclasses.replace(params, lambda_=2 * params.lambda_)
    return params


def overflowed_corpus():
    """16 (params, policy) pairs whose stationary weights pass 1e300.

    From default_rng(2201): 10 draw_params(n_max=6, m_max=6) draws, each
    with a random policy, then 6 heavy_instance draws cut to m = 8 (the
    policy's first 8 entries, clipped to 8); each has lambda doubled by
    overflowed.
    """
    rng = np.random.default_rng(2201)
    corpus = []
    for _ in range(10):
        params = draw_params(rng, n_max=6, m_max=6)
        corpus.append((params, random_policy(rng, params.m)))
    for _ in range(6):
        params, d = heavy_instance(rng)
        corpus.append((dataclasses.replace(params, m=8),
                       tuple(min(v, 8) for v in d[:8])))
    return [(overflowed(params, d), d) for params, d in corpus]
