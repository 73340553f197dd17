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

Per event the body does only what the event needs. The caller passes
per-state tables of the total event rate and of the selection boundary
between the two completion kinds (sim._rates), so no rate is summed in
the loop. The branch counters are held in locals and written back to the
accumulators on the kernel's one exit, whether it ends on the budget, the
time limit, a clipped dwell or a refill. The loop adds only each dwell to
its state's total: the energy and holding integrals are the cost rates
weighted by those totals, summed once at that exit. The loop is a fixed
range over the buffer's pairs, to an end set on entry by the buffer and
the event budget, with one time test per event: only a dwell that
reaches the time limit branches, to stop without consuming its pair when
the clock is already at the limit, or to clip the dwell and end one
uniform later when it would pass the limit. The cursor is set to that end
on exit, and the event count is read off it instead of being counted per
event.

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
            total_rate, split_rate, energy_rate, hold_rate, dwell, acc, counts,
            trace=None):
    """Advance the chain until the event budget or time limit is hit.

    k: current state index; t: current absolute time; buf/cursor: uniform
    buffer and read position; remaining: events still allowed (int64, may
    be huge in time mode); time_limit: absolute stop time (inf in event
    mode). Rates are per-state sequences; top == n + m is the loss state.
    total_rate[k] = (lam + g1) + g2 is the state's total event rate and
    split_rate[k] = lam + g1 the selection boundary between a group-1 and
    a group-2 completion. Accumulates dwell times and the counter slots,
    and on exit sets acc[0] and acc[1] to the energy and holding integrals
    of the time held in dwell: sum over states s of energy_rate[s] *
    dwell[s] and of hold_rate[s] * dwell[s], in state order. acc is set,
    not added to, so dwell must start each segment at zero for acc to be
    that segment's integrals. Returns (k, t, cursor, status): REFILL when
    fewer than two uniforms are left before the budget or the time limit
    is reached, DONE otherwise.

    The counters take the same additions in the same order in locals as
    they would in place, and the integrals are a plain loop in state
    order, which numba compiles without reordering, so the bits match. The
    loop stops at the end of the last whole pair that both the buffer and
    the budget allow; remaining itself is never doubled, because in time
    mode it is near half the int64 range and the compiled product would
    overflow.

    trace, when a list, receives one (time, state_before, event,
    state_after) record per completed event, with event one of 'arrival',
    'loss', 'g1', 'transfer', 'g2'. Each append sits under a test of the
    argument itself, which numba prunes at compile time when trace is None.
    """
    n_g1 = counts[COUNT_G1]
    n_g2 = counts[COUNT_G2]
    n_transfer = counts[COUNT_TRANSFER]
    n_loss = counts[COUNT_LOSS]
    start = cursor
    end = cursor + 2 * min(remaining, (len(buf) - cursor) // 2)
    for cursor in range(start, end, 2):
        total = total_rate[k]
        dt = -math.log(1.0 - buf[cursor]) / total
        t_next = t + dt
        if t_next >= time_limit:
            if not t < time_limit:
                # At or past the limit: this pair is not consumed.
                end = cursor
                break
            if t_next > time_limit:
                dwell[k] += time_limit - t
                t = time_limit
                end = cursor + 1
                break
            # An event landing exactly on the limit is processed; the next
            # pass stops at the test above.
        dwell[k] += dt
        t = t_next
        x = buf[cursor + 1] * total
        if x < lam:
            if k < top:
                k += 1
                if trace is not None:
                    trace.append((t, k - 1, "arrival", k))
            else:
                n_loss += 1
                if trace is not None:
                    trace.append((t, k, "loss", k))
        elif x < split_rate[k]:
            n_g1 += 1
            if k > n:
                n_transfer += 1
                if trace is not None:
                    trace.append((t, k, "transfer", k - 1))
            elif trace is not None:
                trace.append((t, k, "g1", k - 1))
            k -= 1
        else:
            n_g2 += 1
            if trace is not None:
                trace.append((t, k, "g2", k - 1))
            k -= 1
    cursor = end
    energy = 0.0
    hold = 0.0
    for s in range(len(dwell)):
        energy += energy_rate[s] * dwell[s]
        hold += hold_rate[s] * dwell[s]
    acc[0] = energy
    acc[1] = hold
    counts[COUNT_G1] = n_g1
    counts[COUNT_G2] = n_g2
    counts[COUNT_TRANSFER] = n_transfer
    counts[COUNT_LOSS] = n_loss
    events = (cursor - start) // 2
    counts[COUNT_EVENTS] += events
    if t < time_limit and events < remaining:
        return k, t, cursor, REFILL
    return k, t, cursor, DONE


try:
    import numba

    # No fastmath: the jitted path must be IEEE-identical to the fallback.
    kernel_jit = numba.njit(cache=True)(_kernel)
except ImportError:  # pragma: no cover - exercised only without numba
    kernel_jit = None

kernel_python = _kernel
