"""Discrete-event simulator: determinism, tallies, and config handling."""

import dataclasses
import importlib.util
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import sleepq
from sleepq import _simkernel
from sleepq import (
    ConfigError,
    SimConfig,
    empirical_distribution,
    params_to_text,
    policy_profit,
    simulate,
    stationary_closed_form,
)
from sleepq.sim import _rates, _t_quantile_975
from conftest import micro_params
from test_cli import WIDE_TIME_MODEL, WIDE_TIME_POLICY
from test_readme import example_source


CFG = SimConfig(horizon=40000, warmup=4000, replications=1, seed=7,
                batch_count=8)


@pytest.mark.parametrize("remaining, time_limit, size, status", [
    (500, math.inf, 4000, _simkernel.DONE),        # event budget spent
    (10**9, 60.0, 4000, _simkernel.DONE),          # clipped final dwell
    (10**9, math.inf, 4001, _simkernel.REFILL),    # one uniform left over
    (2000, math.inf, 4000, _simkernel.DONE),       # budget spent on the last pair
    (2001, math.inf, 4000, _simkernel.REFILL),     # budget one past the buffer
    (10**9, None, 4000, _simkernel.DONE),          # time reached on the last pair
])
def test_kernel_on_lists_matches_kernel_on_arrays(remaining, time_limit,
                                                  size, status):
    # simulate feeds the kernel lists; the body is plain indexing and
    # float64 arithmetic, so it gives the same bits on numpy arrays.
    params = micro_params(lambda_=4.0, n=2, m=3)
    top = params.n + params.m
    rates = _rates(params, (0, 1, 3))
    buf = np.random.default_rng(5).random(size)

    def run(as_list, time_limit):
        form = (lambda a: a.tolist()) if as_list else (lambda a: a.copy())
        dwell = form(np.zeros(top + 1))
        acc = form(np.zeros(2))
        counts = form(np.zeros(5, dtype=np.int64))
        state = _simkernel._kernel(
            0, 0.0, form(buf), 0, remaining, time_limit, params.lambda_,
            params.n, top, *(form(v) for v in rates), dwell, acc, counts)
        return state, np.asarray(dwell), np.asarray(acc), np.asarray(counts)

    last_pair = time_limit is None
    if last_pair:
        # The clock at the end of the buffer's last whole pair, so the time
        # limit and the end of the buffer are reached by the same event.
        time_limit = run(as_list=True, time_limit=math.inf)[0][1]
    arrays = run(as_list=False, time_limit=time_limit)
    lists = run(as_list=True, time_limit=time_limit)
    _, t, cursor, got = arrays[0]
    assert got == status
    assert arrays[0] == lists[0]
    for a, b in zip(arrays[1:], lists[1:]):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    events = int(arrays[3][_simkernel.COUNT_EVENTS])
    if status == _simkernel.REFILL:
        assert events < remaining and cursor == 2 * events == size - size % 2
    elif time_limit == math.inf:
        assert events == remaining and cursor == 2 * events
    elif last_pair:
        assert t == time_limit and cursor == size == 2 * events
    else:
        assert t == time_limit and cursor == 2 * events + 1
    assert all(arrays[3] > 0)  # every event branch was taken


@pytest.mark.parametrize("as_list", [True, False])
def test_kernel_at_and_exactly_on_the_time_limit(as_list):
    # Entered at the time limit, the kernel consumes no uniform and counts
    # nothing; an event landing exactly on the limit mid-buffer is
    # processed, and the kernel stops on the next pair, as after a run of
    # that many events with no time limit.
    params = micro_params(lambda_=4.0, n=2, m=3)
    top = params.n + params.m
    rates = _rates(params, (0, 1, 3))
    buf = np.random.default_rng(7).random(4000)
    form = (lambda a: a.tolist()) if as_list else (lambda a: a.copy())

    def run(remaining, time_limit, t=0.0):
        dwell, acc = form(np.zeros(top + 1)), form(np.zeros(2))
        counts = form(np.zeros(5, dtype=np.int64))
        state = _simkernel._kernel(
            0, t, form(buf), 0, remaining, time_limit, params.lambda_,
            params.n, top, *(form(v) for v in rates), dwell, acc, counts)
        return state, np.asarray(dwell), np.asarray(counts)

    (k, t, cursor, status), dwell, counts = run(10**9, 5.0, t=5.0)
    assert (k, t, cursor, status) == (0, 5.0, 0, _simkernel.DONE)
    assert not dwell.any() and not counts.any()

    events = 700
    (k, limit, cursor, status), want_dwell, want_counts = run(events, math.inf)
    assert status == _simkernel.DONE and cursor == 2 * events
    state, dwell, counts = run(10**9, limit)
    assert state == (k, limit, 2 * events, _simkernel.DONE)
    assert dwell.tobytes() == want_dwell.tobytes()
    assert counts.tobytes() == want_counts.tobytes()


@pytest.mark.parametrize("time_limit, status", [
    (math.inf, _simkernel.REFILL),   # odd buffer: one uniform left over
    (40.0, _simkernel.DONE),         # clipped final dwell
])
def test_kernel_sets_integrals_from_dwell(time_limit, status):
    # On exit acc holds the cost rates weighted by the time held in dwell,
    # summed in state order, bit for bit, however the run ends.
    params = WIDE_TIME_MODEL
    top = params.n + params.m
    policy = tuple(int(d) for d in WIDE_TIME_POLICY.split(","))
    total, split, energy, hold = (v.tolist() for v in _rates(params, policy))
    buf = np.random.default_rng(31).random(5001).tolist()
    dwell = [0.0] * (top + 1)
    acc = [0.0, 0.0]
    counts = [0] * 5
    _, t, cursor, got = _simkernel._kernel(
        0, 0.0, buf, 0, 10**9, time_limit, params.lambda_, params.n, top,
        total, split, energy, hold, dwell, acc, counts)
    assert got == status
    if status == _simkernel.DONE:
        assert t == time_limit and cursor % 2 == 1
    want = [0.0, 0.0]
    for s in range(top + 1):
        want[0] += energy[s] * dwell[s]
        want[1] += hold[s] * dwell[s]
    assert acc == want


def test_benchmark_tracer_counts_every_kernel_event():
    # benchmarks/tracer.py reads the kernel's counter array as positional
    # argument 15 and its event slot: a kernel whose counters move off that
    # slot breaks the benchmark's traced runs. Tracer.install looks up
    # every module it wraps, sleepq.cli among them, so the CLI is imported
    # first.
    import sleepq.cli  # noqa: F401

    path = Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"
    spec = importlib.util.spec_from_file_location("benchmark_tracer", path)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        result = simulate(micro_params(), (1,), SimConfig(horizon=20000, seed=3))
    finally:
        tracer.uninstall()
    assert _simkernel.kernel_python is _simkernel._kernel
    spans = [span for span in tracer.spans if span[1] == "_simkernel.kernel"]
    # One span per segment (warmup and 20 batches) and one per refill.
    assert len(spans) > 21
    assert sum(span[7]["events"] for span in spans) == 20000
    assert result.counts.events == 18000


def test_identical_seeds_are_bit_identical(micro):
    a = simulate(micro, (1,), CFG)
    b = simulate(micro, (1,), CFG)
    assert a.eta_hat == b.eta_hat
    assert np.array_equal(a.batch_records, b.batch_records)
    assert np.array_equal(a.batch_pi, b.batch_pi)
    c = simulate(micro, (1,), dataclasses.replace(CFG, seed=8))
    assert c.eta_hat != a.eta_hat


def test_estimates_near_analytic_values(micro):
    res = simulate(micro, (1,), CFG)
    eta = policy_profit(micro, (1,))
    assert abs(res.eta_hat - eta) <= max(0.02 * abs(eta),
                                         3 * res.ci_half_width)
    pi = stationary_closed_form(micro, (1,)).pi
    assert 0.5 * np.abs(res.pi_hat - pi).sum() < 0.02


def test_profit_tally_decomposition_is_exact(micro):
    res = simulate(micro, (1,), CFG)
    c = res.counts
    lhs = (micro.price * c.completions - res.energy_integral
           - res.holding_integral - micro.c_transfer * c.transfers
           - micro.c_loss * c.losses) / res.total_time
    assert lhs == res.eta_hat


def test_event_counts_are_consistent(micro):
    res = simulate(micro, (1,), CFG)
    c = res.counts
    assert c.events == CFG.horizon - CFG.warmup
    assert c.completions == c.completions_g1 + c.completions_g2
    assert c.transfers <= c.completions_g1
    assert c.losses > 0  # the micro instance loses a fifth of arrivals


def test_trace_matches_tallies(micro):
    cfg = dataclasses.replace(CFG, horizon=4000, warmup=500)
    res = simulate(micro, (1,), cfg, trace=True)
    assert len(res.trace) == cfg.horizon
    post = res.trace[int(cfg.warmup):]
    by_kind = {kind: 0 for kind in ("arrival", "g1", "g2", "transfer", "loss")}
    for _, _, kind, _ in post:
        by_kind[kind] += 1
    c = res.counts
    assert by_kind["g1"] + by_kind["transfer"] == c.completions_g1
    assert by_kind["g2"] == c.completions_g2
    assert by_kind["transfer"] == c.transfers
    assert by_kind["loss"] == c.losses
    # transfers are exactly the group-1 completions seen on group-2 levels
    n = micro.n
    states = ((0, 0), (1, 0), (1, 1))
    for _, before, kind, after in post:
        if kind == "transfer":
            assert states[before][1] >= 1 and states[before][0] == n
        if kind == "loss":
            assert before == after == len(states) - 1
        if kind == "arrival":
            assert after == before + 1


@pytest.mark.parametrize("cfg", [
    SimConfig(horizon=6000, warmup=500, seed=11, batch_count=4),
    SimConfig(horizon=300.0, warmup=30.0, replications=2, seed=12,
              batch_count=3, unit="time"),
], ids=["events", "time"])
def test_tracing_changes_nothing(cfg):
    params = micro_params(lambda_=2.0, n=2, m=3)
    plain = simulate(params, (0, 1, 3), cfg)
    traced = simulate(params, (0, 1, 3), cfg, trace=True)
    assert plain.trace is None
    assert traced.eta_hat == plain.eta_hat
    assert traced.ci_half_width == plain.ci_half_width
    assert traced.counts == plain.counts
    assert traced.energy_integral == plain.energy_integral
    assert traced.holding_integral == plain.holding_integral
    for field in ("pi_hat", "replication_etas", "batch_records", "batch_pi"):
        assert getattr(traced, field).tobytes() == getattr(plain, field).tobytes()
    # One contiguous path per replication, warmup included.
    log = traced.trace
    if cfg.unit == "events":
        assert len(log) == cfg.horizon
    starts = 0
    for prev, cur in zip(log, log[1:]):
        if cur[0] < prev[0]:  # the next replication restarts the clock
            assert cur[1] == 0
            starts += 1
            continue
        assert cur[1] == prev[3]
    assert starts == cfg.replications - 1


def test_time_unit_horizon(micro):
    cfg = SimConfig(horizon=2000.0, warmup=200.0, replications=1, seed=3,
                    batch_count=5, unit="time")
    res = simulate(micro, (1,), cfg)
    assert res.total_time == pytest.approx(cfg.horizon - cfg.warmup, abs=1e-9)
    eta = policy_profit(micro, (1,))
    assert abs(res.eta_hat - eta) < max(0.1 * abs(eta), 4 * res.ci_half_width)


def test_replications_pool_and_tighten(micro):
    cfg = SimConfig(horizon=10000, warmup=1000, replications=4, seed=7,
                    batch_count=5)
    res = simulate(micro, (1,), cfg)
    assert len(res.replication_etas) == 4
    assert len(set(res.replication_etas)) == 4  # streams differ
    spread = max(res.replication_etas) - min(res.replication_etas)
    assert abs(res.eta_hat - policy_profit(micro, (1,))) < max(spread,
                                                               3 * res.ci_half_width)


def test_zero_weights_give_exactly_zero_profit():
    params = micro_params(price=0.0, c_energy=0.0, c_hold_g1=0.0,
                          c_hold_g2=0.0, c_transfer=0.0, c_loss=0.0)
    res = simulate(params, (1,), CFG)
    assert res.eta_hat == 0.0 and res.ci_half_width == 0.0


def test_single_dwell_distribution(micro):
    # a time horizon shorter than the first event pins the empty state
    cfg = SimConfig(horizon=1e-9, warmup=0.0, replications=1, seed=0,
                    batch_count=2, unit="time")
    res = simulate(micro, (1,), cfg)
    dist = empirical_distribution(res)
    assert np.array_equal(dist, [1.0, 0.0, 0.0])
    assert dist.sum() == pytest.approx(1.0, abs=1e-12)


def test_empirical_distribution_is_normalized(micro):
    res = simulate(micro, (1,), CFG)
    dist = empirical_distribution(res)
    assert dist.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(dist, res.pi_hat)


@pytest.mark.filterwarnings("error")
def test_config_validation(micro):
    with pytest.raises(ConfigError, match="horizon"):
        simulate(micro, (1,), SimConfig(horizon=0))
    with pytest.raises(ConfigError, match="warmup"):
        simulate(micro, (1,), SimConfig(horizon=1000, warmup=1000))
    with pytest.raises(ConfigError, match="batch"):
        simulate(micro, (1,), SimConfig(horizon=1000, batch_count=1))
    with pytest.raises(ConfigError, match="replications"):
        simulate(micro, (1,), SimConfig(horizon=1000, replications=0))
    with pytest.raises(ConfigError, match="unit"):
        simulate(micro, (1,), SimConfig(horizon=1000, unit="days"))
    with pytest.raises(ConfigError, match="whole number"):
        simulate(micro, (1,), SimConfig(horizon=1000.5))
    # The stop times 1 + (2**-52 * i / 2) round to 1, 1, 1 + 2**-52: the
    # first batch would span no time and divide 0 by 0.
    with pytest.raises(ConfigError, match="positive length"):
        simulate(micro, (1,), SimConfig(horizon=1.0000000000000002, warmup=1.0,
                                        unit="time", batch_count=2))


@pytest.mark.parametrize("cfg, message", [
    (SimConfig(horizon=1000, warmup=-0.1), "warmup must be nonnegative, got -0.1"),
    (SimConfig(horizon=1000, batch_count=0, replications=2),
     "batch_count must be >= 1"),
    (SimConfig(horizon=1000, seed=-1), "seed must be a nonnegative integer"),
    (SimConfig(horizon=30, warmup=0.5, batch_count=20),
     "15 post-warmup events cannot fill 20 batches"),
])
def test_config_values_out_of_range_are_refused(micro, cfg, message):
    with pytest.raises(ConfigError, match=message):
        simulate(micro, (1,), cfg)


@pytest.mark.parametrize("field", ["seed", "replications", "batch_count"])
def test_non_integer_config_fields_are_config_errors(micro, field):
    for bad in (1.5, 2.0, "3", True):
        cfg = dataclasses.replace(SimConfig(horizon=100), **{field: bad})
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            simulate(micro, (1,), cfg)
    good = dataclasses.replace(SimConfig(horizon=100), **{field: np.int64(3)})
    a = simulate(micro, (1,), good)
    b = simulate(micro, (1,), dataclasses.replace(good, **{field: 3}))
    assert a.eta_hat == b.eta_hat
    assert a.batch_records.tobytes() == b.batch_records.tobytes()


@pytest.mark.parametrize("field, bad", [
    ("horizon", "100"), ("horizon", None), ("horizon", True),
    ("warmup", "0.1"), ("warmup", None), ("warmup", False)])
def test_non_numeric_horizon_and_warmup_are_config_errors(micro, field, bad):
    cfg = dataclasses.replace(SimConfig(horizon=100), **{field: bad})
    with pytest.raises(ConfigError, match=f"{field} must be a number"):
        simulate(micro, (1,), cfg)


def test_warmup_fraction_equals_absolute(micro):
    frac = simulate(micro, (1,), SimConfig(horizon=20000, warmup=0.1, seed=5))
    absolute = simulate(micro, (1,), SimConfig(horizon=20000, warmup=2000,
                                               seed=5))
    assert frac.eta_hat == absolute.eta_hat
    assert np.array_equal(frac.batch_records, absolute.batch_records)


def test_buffer_size_does_not_change_the_stream(micro, monkeypatch):
    import sleepq.sim as sim_mod

    base = simulate(micro, (1,), CFG)
    monkeypatch.setattr(sim_mod, "BUFFER_SIZE", 97)
    small = simulate(micro, (1,), CFG)
    assert base.eta_hat == small.eta_hat
    assert np.array_equal(base.batch_records, small.batch_records)


def test_policy_changes_the_law(micro):
    asleep = simulate(micro, (0,), CFG)
    awake = simulate(micro, (1,), CFG)
    pi0 = stationary_closed_form(micro, (0,)).pi
    assert 0.5 * np.abs(asleep.pi_hat - pi0).sum() < 0.02
    assert asleep.pi_hat[-1] > awake.pi_hat[-1]


def test_unsigned_policy_simulates_as_its_values():
    # m - d_j must not be formed in uint8, where m = 300 is out of bounds.
    params = micro_params(m=300)
    cfg = SimConfig(horizon=100, warmup=0, batch_count=2)
    unsigned = simulate(params, np.zeros(300, np.uint8), cfg)
    plain = simulate(params, (0,) * 300, cfg)
    assert unsigned.eta_hat == plain.eta_hat
    assert np.array_equal(unsigned.batch_records, plain.batch_records)


# Every sleepq command once, on the micro model, as (command, *flags).
EVERY_COMMAND = [
    ["validate"], ["stationary", "--policy", "1"], ["reward", "--policy", "1"],
    *(["potentials", "--policy", "1", "--method", method]
      for method in ("rg", "dense", "explicit")),
    ["sensitivity", "--policy", "1"], ["critical-prices"], ["optimize"],
    ["optimize", "--top-k", "2"], ["threshold"],
    ["monotonicity", "--policy", "1", "--j", "1"],
    ["simulate", "--policy", "1", "--horizon", "20000", "--seed", "7"],
    ["price-sweep", "--from", "0", "--to", "20", "--steps", "3"],
]


def test_runtime_path_needs_no_scipy(tmp_path):
    # scipy is a test-only dependency: with every scipy import refused, the
    # package imports, simulates in both units, runs the README example and
    # every command with exit 0, under warnings as errors, and never tries to
    # import scipy.
    model = tmp_path / "model.cfg"
    model.write_text(params_to_text(micro_params()))
    out = tmp_path / "sim.csv"
    commands = [[command, "--model", str(model), *flags]
                for command, *flags in EVERY_COMMAND]
    commands.append(["simulate", "--model", str(model), "--policy", "1",
                     "--horizon", "3000", "--output", str(out)])
    code = textwrap.dedent(f"""
        import sys
        sys.modules["scipy"] = None
        # The import audit event fires even for an import that None refuses,
        # so a guarded attempt is seen too.
        tried = []
        sys.addaudithook(lambda event, args: event == "import"
                         and args[0].split(".")[0] == "scipy"
                         and tried.append(args[0]))
        import sleepq, sleepq.cli
        from sleepq import SimConfig, params_from_file, simulate
        params = params_from_file({str(model)!r})
        for cfg in (SimConfig(horizon=5000, seed=3),
                    SimConfig(horizon=500.0, unit="time", replications=3)):
            assert simulate(params, (1,), cfg).ci_half_width > 0
        exec({example_source()!r}, {{}})
        statuses = [sleepq.cli.main(argv) for argv in {commands!r}]
        assert statuses == [0] * len(statuses), statuses
        assert not tried, tried
    """)
    src = str(Path(sleepq.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert "# command=simulate" in out.read_text()


def test_t_quantile_matches_stdtrit():
    stdtrit = pytest.importorskip("scipy.special").stdtrit
    for dfs, bound in ((range(1, 2001), 1e-14),
                       ((10**4, 10**5, 10**6, 10**7), 1e-13)):
        for df in dfs:
            want = float(stdtrit(df, 0.975))
            got = _t_quantile_975(df)
            assert abs(got - want) <= bound * want, (df, got, want)
