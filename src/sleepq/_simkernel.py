"""Inner event loop of the simulator, written to be numba-compilable.

One function body, _kernel, runs pure-Python (fallback and trace capture)
and JIT-compiled; it uses only scalars, math.log, indexing and len() so
both paths execute the identical IEEE operation sequence. Trace capture is
a hook in that body: a list passed as trace receives one record per event.
Every append is guarded by `trace is not None` on the argument itself, a
branch numba prunes at compile time when trace is None, so the compiled
kernel carries no trace code; trace capture runs interpreted only.

The compiled path receives numpy arrays. The interpreted path receives
Python lists for the uniform buffer, the rate vectors and the dwell,
integral and counter accumulators: indexing a numpy array from Python
boxes a numpy scalar on every read and write, which costs more than the
arithmetic, while a list hands back the stored float or int. Float64
addition and multiplication give the same bits on Python floats as on
numpy float64, so both forms produce identical results.

Uniform consumption contract: exactly two uniforms per completed event
(one for the dwell, one for the event selection), and one uniform for a
dwell clipped by a time limit. The kernel never wraps around a buffer: if
fewer than two uniforms remain it returns REFILL and the caller prepends
the unused tail to the next block, so the consumed uniform sequence is
independent of the buffer size.
"""

from __future__ import annotations

import math

#: Kernel return codes.
DONE = 0
REFILL = 1

#: Slots of the int64 counter array.
COUNT_G1 = 0
COUNT_G2 = 1
COUNT_TRANSFER = 2
COUNT_LOSS = 3
COUNT_EVENTS = 4


def _kernel(k, t, buf, cursor, remaining, time_limit, lam, n, top,
            g1_rate, g2_rate, energy_rate, hold_rate, dwell, acc, counts,
            trace=None):
    """Advance the chain until the event budget or time limit is hit.

    k: current state index; t: current absolute time; buf/cursor: uniform
    buffer and read position; remaining: events still allowed (int64, may
    be huge in time mode); time_limit: absolute stop time (inf in event
    mode). Rates are per-state sequences; top == n + m is the loss state.
    Accumulates dwell times, acc[0] energy and acc[1] holding integrals,
    and the counter slots. Returns (k, t, cursor, status).

    trace, when a list, receives one (time, state_before, event,
    state_after) record per completed event, with event one of 'arrival',
    'loss', 'g1', 'transfer', 'g2'. Each append sits under a test of the
    argument itself, which numba prunes at compile time when trace is None.
    """
    while remaining > 0 and t < time_limit:
        if cursor + 2 > len(buf):
            return k, t, cursor, REFILL
        total = lam + g1_rate[k] + g2_rate[k]
        dt = -math.log(1.0 - buf[cursor]) / total
        if t + dt > time_limit:
            span = time_limit - t
            dwell[k] += span
            acc[0] += energy_rate[k] * span
            acc[1] += hold_rate[k] * span
            cursor += 1
            return k, time_limit, cursor, DONE
        dwell[k] += dt
        acc[0] += energy_rate[k] * dt
        acc[1] += hold_rate[k] * dt
        t += dt
        x = buf[cursor + 1] * total
        cursor += 2
        if x < lam:
            if k < top:
                k += 1
                if trace is not None:
                    trace.append((t, k - 1, "arrival", k))
            else:
                counts[COUNT_LOSS] += 1
                if trace is not None:
                    trace.append((t, k, "loss", k))
        elif x < lam + g1_rate[k]:
            counts[COUNT_G1] += 1
            if k > n:
                counts[COUNT_TRANSFER] += 1
                if trace is not None:
                    trace.append((t, k, "transfer", k - 1))
            elif trace is not None:
                trace.append((t, k, "g1", k - 1))
            k -= 1
        else:
            counts[COUNT_G2] += 1
            if trace is not None:
                trace.append((t, k, "g2", k - 1))
            k -= 1
        counts[COUNT_EVENTS] += 1
        remaining -= 1
    return k, t, cursor, DONE


try:
    import numba

    # No fastmath: the jitted path must be IEEE-identical to the fallback.
    kernel_jit = numba.njit(cache=True)(_kernel)
except ImportError:  # pragma: no cover - exercised only without numba
    kernel_jit = None

kernel_python = _kernel
