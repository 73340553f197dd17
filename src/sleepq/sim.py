"""Discrete-event simulation of the two-group cluster under a policy.

An analytics-free oracle: the physical system is simulated by competing
exponential clocks (single total-rate dwell draw plus a proportional
selection draw), tallying revenue per completion, transfer and loss costs
per event, and energy/holding costs as time integrals. The profit
estimate is the pooled ratio of tallies to elapsed time, so the reported
decomposition reproduces eta_hat exactly.

Randomness comes from counter-based Philox streams, one per replication,
seeded as SeedSequence((seed, replication)); identical configurations
reproduce bit-identical results. Batch-means confidence intervals use the
post-warmup batches of a single replication, or the per-replication
estimates when there are several.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import _simkernel
from ._simkernel import DONE, REFILL
from .errors import ConfigError, NumericalError
from .model import (ModelParams, Policy, ReadOnlyRecord, _is_integer, check_policy,
                    require_valid, state_space)

#: Uniforms drawn per refill; results do not depend on this value. Kept
#: small because the interpreted kernel holds them as Python floats.
BUFFER_SIZE = 1 << 14

#: Stand-in event budget when a segment is limited by time only.
_NO_EVENT_LIMIT = np.iinfo(np.int64).max // 2

#: P(|T| > t) at the two-sided 95 % Student-t quantile t: twice 1 - 0.975
#: as that difference rounds.
_T_TWO_TAIL = 2.0 * (1.0 - 0.975)

#: The normal quantile z(0.975), correctly rounded.
_Z975 = 1.9599639845400538

#: From this many degrees of freedom on, the first term the Cornish-Fisher
#: expansion leaves out (order df**-5) is below half an ulp of the quantile.
_CORNISH_FISHER_MIN_DF = 1500

#: Bits after the binary point of the fixed-point CDF sums.
_FIX_BITS = 128


@dataclass(frozen=True)
class SimConfig:
    """Run lengths and replication layout for one simulation.

    horizon is an event budget when unit="events" (the default) or an
    amount of simulated time when unit="time". warmup below 1 is a
    fraction of the horizon; warmup >= 1 is absolute in the same unit as
    the horizon. batch_count batches split the post-warmup stretch for
    the confidence interval, so it must be at least 2 when there is a
    single replication.
    """

    horizon: float
    warmup: float = 0.1
    replications: int = 1
    seed: int = 0
    batch_count: int = 20
    unit: str = "events"

    def resolved_warmup(self) -> float:
        if self.warmup < 1.0:
            return self.warmup * self.horizon
        return float(self.warmup)


@dataclass(frozen=True)
class EventCounts:
    """Post-warmup event tallies, summed over replications."""

    completions_g1: int
    completions_g2: int
    transfers: int
    losses: int
    events: int

    @property
    def completions(self) -> int:
        return self.completions_g1 + self.completions_g2


@dataclass(frozen=True)
class SimResult(ReadOnlyRecord):
    """Estimates from the post-warmup portion of all replications.

    eta_hat = (R*completions - energy_integral - holding_integral
    - C3*transfers - C4*losses) / total_time, exactly, from the reported
    tallies. pi_hat is the normalized time-in-state occupancy.
    batch_records rows are (replication, batch, batch_time, batch_eta)
    with matching per-batch occupancy rows in batch_pi.
    """

    eta_hat: float
    ci_half_width: float
    pi_hat: np.ndarray
    counts: EventCounts
    total_time: float
    energy_integral: float
    holding_integral: float
    replication_etas: np.ndarray
    batch_records: np.ndarray
    batch_pi: np.ndarray
    trace: list | None = None


def _validate_config(cfg: SimConfig) -> None:
    for name in ("replications", "seed", "batch_count"):
        value = getattr(cfg, name)
        if not _is_integer(value):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
    for name in ("horizon", "warmup"):
        value = getattr(cfg, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ConfigError(f"{name} must be a number, got {value!r}")
    if cfg.unit not in ("events", "time"):
        raise ConfigError(f"unit must be 'events' or 'time', got {cfg.unit!r}")
    if not np.isfinite(cfg.horizon) or cfg.horizon <= 0:
        raise ConfigError(f"horizon must be positive, got {cfg.horizon!r}")
    if cfg.warmup < 0 or not np.isfinite(cfg.warmup):
        raise ConfigError(f"warmup must be nonnegative, got {cfg.warmup!r}")
    if cfg.resolved_warmup() >= cfg.horizon:
        raise ConfigError(
            f"warmup {cfg.resolved_warmup()!r} must be below the horizon "
            f"{cfg.horizon!r}"
        )
    if cfg.replications < 1:
        raise ConfigError("replications must be >= 1")
    if cfg.batch_count < 1:
        raise ConfigError("batch_count must be >= 1")
    if cfg.replications == 1 and cfg.batch_count < 2:
        raise ConfigError(
            "batch_count must be >= 2 with a single replication, or the "
            "confidence interval is undefined"
        )
    if cfg.seed < 0:
        raise ConfigError("seed must be a nonnegative integer")
    if cfg.unit == "events" and cfg.horizon != int(cfg.horizon):
        raise ConfigError("event-mode horizon must be a whole number")


def _rates(params: ModelParams, d: Policy):
    """Per-state rate tables of the simulator kernel.

    Returns (total, split, energy, hold): total = (lambda + g1) + g2 is the
    total event rate of each state and split = lambda + g1 the boundary
    between a group-1 and a group-2 completion in the selection draw, where
    g1 and g2 are the group-1 and group-2 service rates. They are the sums
    the kernel would otherwise form on every event, in the same order, so
    the kernel sees the same bits. energy and hold are the energy and
    holding cost rates; the kernel weights them by each state's dwell to
    form a segment's integrals.

    These are the simulator's own copy of the model's rates, formed apart
    from chain._rates on purpose: acceptance criterion 12 checks the
    analytic law against the simulator, so the simulator must not share
    the rate code it is checking.
    """
    n, m = params.n, params.m
    size = n + m + 1
    g1 = np.zeros(size)
    g2 = np.zeros(size)
    energy = np.zeros(size)
    hold = np.zeros(size)
    base_energy = (n * params.p1_work + m * params.p2_sleep) * params.c_energy
    for i in range(n + 1):
        g1[i] = i * params.mu1
        energy[i] = base_energy
        hold[i] = i * params.c_hold_g1
    for j in range(1, m + 1):
        k = n + j
        g1[k] = n * params.mu1
        g2[k] = min(d[j - 1], j) * params.mu2
        energy[k] = (n * params.p1_work + d[j - 1] * params.p2_work
                     + (m - d[j - 1]) * params.p2_sleep) * params.c_energy
        hold[k] = n * params.c_hold_g1 + j * params.c_hold_g2
    split = params.lambda_ + g1
    return split + g2, split, energy, hold


class _Stream:
    """Sequential uniforms from one Philox stream, buffer-size agnostic.

    buf is a numpy array for the compiled kernel and a list for the
    interpreted one (see _simkernel); either way the same uniforms are
    consumed in the same order.
    """

    def __init__(self, seed: int, replication: int, as_list: bool):
        bits = np.random.Philox(np.random.SeedSequence((seed, replication)))
        self._rng = np.random.Generator(bits)
        block = self._rng.random(BUFFER_SIZE)
        self.buf = block.tolist() if as_list else block
        self.cursor = 0

    def refill(self) -> None:
        block = self._rng.random(BUFFER_SIZE)
        if isinstance(self.buf, list):
            # In place, so the spent floats are freed before new ones exist.
            del self.buf[:self.cursor]
            self.buf.extend(block.tolist())
        else:
            self.buf = np.concatenate([self.buf[self.cursor:], block])
        self.cursor = 0


def _run_segment(kernel, stream, state, events, time_limit, rates, dwell,
                 acc, counts, trace=None):
    """Run one warmup segment or batch to its event or time limit.

    dwell, acc and counts are numpy arrays updated in place. dwell comes in
    zeroed: each kernel exit sets acc to the rate-weighted sums of dwell,
    so acc ends as this segment's energy and holding integrals however
    many refills the segment takes. A list-fed stream runs the kernel on
    list copies of them, written back at the end.
    """
    k, t = state
    total, split, energy, hold, lam, n, top = rates
    remaining = int(events)
    targets = None
    if isinstance(stream.buf, list):
        targets = (dwell, acc, counts)
        dwell, acc, counts = dwell.tolist(), acc.tolist(), counts.tolist()
    while True:
        done_before = counts[_simkernel.COUNT_EVENTS]
        k, t, stream.cursor, status = kernel(
            k, t, stream.buf, stream.cursor, remaining, time_limit,
            lam, n, top, total, split, energy, hold, dwell, acc, counts, trace)
        remaining -= int(counts[_simkernel.COUNT_EVENTS] - done_before)
        if status == DONE:
            break
        assert status == REFILL
        stream.refill()
    if targets is not None:
        for target, values in zip(targets, (dwell, acc, counts)):
            target[:] = values
    return k, t


def _net_revenue(params: ModelParams, counts: np.ndarray, acc: np.ndarray):
    """R*completions - energy - holding - C3*transfers - C4*losses.

    counts are the kernel's int64 event tallies and acc its (energy,
    holding) integrals. A count is exact as a double below 2**53, so the
    products round as they would from Python ints.
    """
    completions = counts[_simkernel.COUNT_G1] + counts[_simkernel.COUNT_G2]
    return (params.price * completions - acc[0] - acc[1]
            - params.c_transfer * counts[_simkernel.COUNT_TRANSFER]
            - params.c_loss * counts[_simkernel.COUNT_LOSS])


def _cornish_fisher_975(df: int) -> float:
    """The 0.975 Student-t quantile to order df**-4 (A&S 26.7.5)."""
    z = _Z975
    z2 = z * z
    g1 = (z2 + 1) * z / 4
    g2 = ((5 * z2 + 16) * z2 + 3) * z / 96
    g3 = (((3 * z2 + 19) * z2 + 17) * z2 - 15) * z / 384
    g4 = ((((79 * z2 + 776) * z2 + 1482) * z2 - 1920) * z2 - 945) * z / 92160
    return z + (g1 + (g2 + (g3 + g4 / df) / df) / df) / df


def _t_two_tail(t: float, df: int) -> float:
    """P(|T| > t) for T Student-t with integer df >= 1 and t > 0.

    With theta = atan(t / sqrt(df)), s = sin(theta) and c = cos(theta),
    P(|T| <= t) is s * sum_k a_k c**(2k) for even df (A&S 26.7.4) and
    (2/pi) * (theta + s*c * sum_k a_k c**(2k)) for odd df (A&S 26.7.3), where
    k < df // 2, a_0 = 1 and a_k = a_(k-1) * (2k-1)/(2k) or (2k)/(2k+1);
    for df = 1 the odd sum is empty. The sums run in fixed point from
    u = s**2 alone, so c**2 = 1 - u is exact, and the complement, 20 times
    smaller than P(|T| <= t) at the 0.975 quantile, keeps float precision.
    """
    t2 = t * t
    one = 1 << _FIX_BITS
    sin2 = int(math.ldexp(t2 / (df + t2), _FIX_BITS))
    cos2 = one - sin2
    odd = df % 2
    term = total = one if df > 1 else 0
    for k in range(1, df // 2):
        term = (term * cos2 >> _FIX_BITS) * (2 * k - 1 + odd) // (2 * k + odd)
        total += term
    if not odd:
        inside = math.isqrt(sin2 << _FIX_BITS) * total >> _FIX_BITS
        return math.ldexp(float(one - inside), -_FIX_BITS)
    sin_cos_sum = math.isqrt(sin2 * cos2) * total >> _FIX_BITS
    # pi/2 - theta, taken directly so that no digits cancel.
    phi = math.atan2(math.sqrt(df), t)
    return (phi - math.ldexp(float(sin_cos_sum), -_FIX_BITS)) * (2 / math.pi)


def _t_quantile_975(df: int) -> float:
    """The two-sided 95 % Student-t quantile for integer df >= 1.

    Safeguarded Newton on P(|T| > t) = 2 * (1 - 0.975), started from the
    Cornish-Fisher expansion, which stands alone from
    _CORNISH_FISHER_MIN_DF on. The tail is convex for t > 0, so a Newton
    step from below the root stays below it and one from above lands below
    it, or at worst on z(0.975), which is below every t quantile: the
    iterates rise monotonically from the first step on.
    """
    t = _cornish_fisher_975(df)
    if df >= _CORNISH_FISHER_MIN_DF:
        return t
    log_scale = (math.lgamma((df + 1) / 2) - math.lgamma(df / 2)
                 - 0.5 * math.log(df * math.pi))
    # At most 5 steps are needed for df < _CORNISH_FISHER_MIN_DF; the cap
    # turns a fault in the tail into an error instead of an endless loop.
    for _ in range(50):
        density = math.exp(log_scale - (df + 1) / 2 * math.log1p(t * t / df))
        step = (_t_two_tail(t, df) - _T_TWO_TAIL) / (2 * density)
        t = max(t + step, _Z975)
        # Newton's error after a step is of order step**2 / t.
        if abs(step) <= 2.0 ** -30 * t:
            return t
    raise NumericalError(f"the t quantile for df={df} did not converge")


def simulate(params: ModelParams, d: Policy, cfg: SimConfig,
             trace: bool = False) -> SimResult:
    """Simulate the cluster under policy d and estimate eta and pi.

    The JIT kernel runs when numba is installed and no trace is requested;
    otherwise the interpreted kernel runs. Both produce bit-identical
    results. The trace, when requested, lists (time, state_before, event,
    state_after) tuples across the whole run including warmup.
    """
    require_valid(params)
    d = check_policy(d, params.m)
    _validate_config(cfg)

    kernel = _simkernel.kernel_jit
    interpreted = trace or kernel is None
    if interpreted:
        kernel = _simkernel.kernel_python
    trace_log: list | None = [] if trace else None

    size = state_space(params).size
    rate_vectors = _rates(params, d)
    if interpreted:
        rate_vectors = tuple(v.tolist() for v in rate_vectors)
    rates = (*rate_vectors, params.lambda_, params.n, size - 1)

    event_mode = cfg.unit == "events"
    warmup = cfg.resolved_warmup()
    reps = cfg.replications
    nbatch = cfg.batch_count

    # (event budget, stop time) of the warmup and then of each batch. A
    # zero budget, or a stop time of 0.0, runs no event and draws nothing.
    if event_mode:
        warmup_events = int(warmup)
        post_events = int(cfg.horizon) - warmup_events
        base, extra = divmod(post_events, nbatch)
        batch_events = [base + (1 if b < extra else 0) for b in range(nbatch)]
        if min(batch_events) < 1:
            raise ConfigError(
                f"{post_events} post-warmup events cannot fill "
                f"{nbatch} batches"
            )
        limits = [(events, np.inf) for events in [warmup_events, *batch_events]]
    else:
        stops = [warmup + (cfg.horizon - warmup) * i / nbatch
                 for i in range(nbatch + 1)]
        if any(later <= earlier for earlier, later in zip(stops, stops[1:])):
            raise ConfigError(
                f"post-warmup time {cfg.horizon!r} - {warmup!r} is too short "
                f"for {nbatch} batches of positive length"
            )
        limits = [(_NO_EVENT_LIMIT, stop) for stop in stops]
    warmup_limit, *batch_limits = limits

    rep_etas = np.empty(reps)
    records = np.empty((reps * nbatch, 4))
    batch_pi = np.empty((reps * nbatch, size))
    total_dwell = np.zeros(size)
    total_acc = np.zeros(2)
    total_counts = np.zeros(5, dtype=np.int64)
    total_time = 0.0

    for rep in range(reps):
        stream = _Stream(cfg.seed, rep, as_list=interpreted)
        state = _run_segment(kernel, stream, (0, 0.0), *warmup_limit, rates,
                             np.zeros(size), np.zeros(2),
                             np.zeros(5, dtype=np.int64), trace_log)

        rep_num = 0.0
        rep_time = 0.0
        for b, (events, stop) in enumerate(batch_limits):
            dwell = np.zeros(size)
            acc = np.zeros(2)
            counts = np.zeros(5, dtype=np.int64)
            t_start = state[1]
            state = _run_segment(kernel, stream, state, events, stop, rates,
                                 dwell, acc, counts, trace_log)
            batch_time = state[1] - t_start
            numerator = _net_revenue(params, counts, acc)
            row = rep * nbatch + b
            records[row] = (rep, b, batch_time, numerator / batch_time)
            batch_pi[row] = dwell / dwell.sum()
            total_dwell += dwell
            total_acc += acc
            total_counts += counts
            total_time += batch_time
            rep_num += numerator
            rep_time += batch_time
        rep_etas[rep] = rep_num / rep_time

    # Recompute from the recorded totals so the reported decomposition
    # reproduces eta_hat bit for bit.
    eta_hat = _net_revenue(params, total_counts, total_acc) / total_time
    if reps > 1:
        samples = rep_etas
    else:
        samples = records[:, 3]
    spread = float(np.std(samples, ddof=1))
    # The Student-t quantile comes from Newton on the exact integer-df
    # CDF (A&S 26.7.3, 26.7.4) from a Cornish-Fisher start (A&S 26.7.5),
    # in pure Python: importing a special-function library for this one
    # number would cost more than the rest of a short simulation.
    quantile = _t_quantile_975(samples.shape[0] - 1)
    ci_half_width = quantile * spread / np.sqrt(samples.shape[0])

    counts_out = EventCounts(
        completions_g1=int(total_counts[_simkernel.COUNT_G1]),
        completions_g2=int(total_counts[_simkernel.COUNT_G2]),
        transfers=int(total_counts[_simkernel.COUNT_TRANSFER]),
        losses=int(total_counts[_simkernel.COUNT_LOSS]),
        events=int(total_counts[_simkernel.COUNT_EVENTS]),
    )
    return SimResult(
        eta_hat=float(eta_hat),
        ci_half_width=float(ci_half_width),
        pi_hat=total_dwell / total_dwell.sum(),
        counts=counts_out,
        total_time=float(total_time),
        energy_integral=float(total_acc[0]),
        holding_integral=float(total_acc[1]),
        replication_etas=rep_etas,
        batch_records=records,
        batch_pi=batch_pi,
        trace=trace_log,
    )


def empirical_distribution(result: SimResult) -> np.ndarray:
    """Time-weighted state occupancy, normalized to sum to one."""
    if result.total_time <= 0:
        raise ValueError("no post-warmup time was simulated")
    return result.pi_hat.copy()
