"""Benchmark of sleepq: four closed-loop workloads and a traced per-layer run.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload analyze --seed 1 --seconds 15 --trace 0
    python3 benchmarks/run.py --self-check

One client runs each workload's fixed task set (see workloads.py) for a
fixed number of rounds: as many as fit in --seconds at the speed the
workload's `round_s` states. Every result is checked against an oracle the
package already has. Set-up (a fresh interpreter importing sleepq,
generating the inputs and making one untimed warm-up call per entry point)
is done in SETUP_REPEATS fresh processes and reported as their median; the
last of them goes on to run the workload.

Time metrics are scaled to a nominal machine speed by a reference
computation timed between tasks (see Reference and NOMINAL_REFERENCE_S),
round by round; a task's time is then its median over the rounds. The raw
values are in the report as *_raw_*.

With --trace 0 the last line of stdout is the JSON result with the
`end_to_end` metrics named in BENCHMARK.json; with --trace 1 each round
runs untraced and then traced, and it carries the `per_layer` metrics.
The lines before it list every metric of the run by name and unit, then a
`report` line with the full JSON record: provenance, the recorded input
properties, and metrics that apply to only some workloads (task_tail_ms,
events_per_s, fail_ratio). The record, the per-round task latencies and,
for traced runs, the spans are also written to benchmarks/out/.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join("benchmarks", "out")
WORKLOADS = ("analyze", "search", "simulate", "cli")
SETUP_REPEATS = 3
#: The reference computation (see Reference): desk-size chains checked per
#: sample, how often it is sampled, and its nominal median duration. A
#: round's times are multiplied by NOMINAL_REFERENCE_S over the median
#: reference time during that round.
REFERENCE_CHAINS = 20
REFERENCE_EVERY_S = 0.1
NOMINAL_REFERENCE_S = 0.0015
RUN_TIMEOUT_S = 170.0
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

#: End-to-end metrics the benchmark reports, with the workloads each
#: applies to. The self-check requires every one of them.
E2E_METRICS = {
    "setup_s": ("s", WORKLOADS),
    "wall_s": ("s", WORKLOADS),
    "task_p50_ms": ("ms", WORKLOADS),
    "task_tail_ms": ("ms", ("analyze", "cli")),
    "events_per_s": ("events/s", ("simulate",)),
    "peak_rss_mb": ("MB", WORKLOADS),
    "fail_ratio": ("1", WORKLOADS),
}

#: Per-layer metrics of the traced run, by unit.
LAYER_METRICS = {
    "model.enumerate_policies.yielded": "count",
    "chain.stationary_closed_form.calls": "count",
    "chain.stationary_closed_form.total_s": "s",
    "chain.build_generator.calls": "count",
    "chain.build_generator.total_s": "s",
    "chain.stationary_numeric.total_s": "s",
    "reward.build_reward.calls": "count",
    "reward.build_reward.total_s": "s",
    "reward.average_profit.total_s": "s",
    "potential.solve_poisson.calls": "count",
    "potential.solve_poisson.total_s": "s",
    "potential.solve_poisson.self_s": "s",
    "potential.solve_poisson.failed": "count",
    "potential.solve_poisson.rg.total_s": "s",
    "potential.solve_poisson.dense.total_s": "s",
    "potential.solve_poisson.explicit.total_s": "s",
    "potential.rg_factorize.total_s": "s",
    "potential.invert_reduced.total_s": "s",
    "potential.residual_max": "1",
    "sensitivity.realization_factors.calls": "count",
    "sensitivity.realization_factors.total_s": "s",
    "sensitivity.perturbation_factors.calls": "count",
    "sensitivity.perturbation_factors.total_s": "s",
    "sensitivity.critical_prices_global.calls": "count",
    "sensitivity.critical_prices_global.total_s": "s",
    "sensitivity.critical_prices_global.self_s": "s",
    "optimize.optimize.calls": "count",
    "optimize.optimize.total_s": "s",
    "optimize.optimize.evaluations": "count",
    "optimize.profits_block.calls": "count",
    "optimize.profits_block.total_s": "s",
    "optimize.profits_block.rows_per_s": "rows/s",
    "optimize.threads2_speedup": "1",
    "optimize.threshold_scan.total_s": "s",
    "sim.simulate.calls": "count",
    "sim.simulate.total_s": "s",
    "sim.simulate.self_s": "s",
    "sim.simulate.events": "count",
    "_simkernel.kernel.calls": "count",
    "_simkernel.kernel.total_s": "s",
    "_simkernel.kernel.events_per_s": "events/s",
    "_simkernel.kernel_trace.total_s": "s",
    "cli.main.total_s": "s",
    "cli.main.self_s": "s",
    "import.sleepq_s": "s",
    "import.scipy_stats_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark itself could not run."""


# ------------------------------------------------------------- statistics

def tail_percentile(count):
    """Highest whole percentile (>= 50) with at least 10 tasks beyond it.

    With the nearest-rank rule the p-th percentile is the ceil(p*N/100)-th
    smallest value, so N - ceil(p*N/100) tasks lie beyond it. Returns None
    when fewer than 20 tasks leave no such percentile at or above the
    median.
    """
    for p in range(99, 49, -1):
        if count - -(-p * count // 100) >= 10:
            return p
    return None


def nearest_rank(sorted_values, p):
    rank = max(1, -(-p * len(sorted_values) // 100))
    return sorted_values[rank - 1]


# ------------------------------------------------------------------ child

def _child(args):
    """Set up in this fresh interpreter, then (unless --setup-only) measure."""
    spawned_at = args.spawned_at
    import warnings

    import numpy as np  # noqa: F401  (part of set-up cost)

    import sleepq
    src = os.path.abspath("src")
    if not os.path.abspath(sleepq.__file__).startswith(src + os.sep):
        raise BenchError(f"imported sleepq from {sleepq.__file__}, not from {src}")
    # Wide chains make the rg factorization warn about its U-measure span.
    warnings.simplefilter("ignore", RuntimeWarning)
    import workloads

    builder = workloads.BUILDERS[args.workload]
    kwargs = {"tiny": args.tiny}
    if args.workload == "cli":
        kwargs.update(out_dir=OUT_DIR)
    wl = builder(args.seed, **kwargs)
    try:
        wl.warmup()
        setup = {"setup_s": time.monotonic() - spawned_at}
        if args.setup_only:
            return setup
        return {**_measure(wl, args), **setup}
    finally:
        wl.cleanup()


class Reference:
    """Times a fixed reference computation between tasks.

    The computation is the benchmark's own conditioning check of a few
    desk-size chains (workloads.ill_conditioned): Python loops and small
    numpy calls, the same kind of work as the workloads, and no sleepq code.
    It runs at most every REFERENCE_EVERY_S, and its time is left out of
    every task and round.
    """

    def __init__(self):
        import numpy as np
        import workloads

        rng = np.random.default_rng(0)
        self._check = workloads.ill_conditioned
        self._chains = []
        for _ in range(REFERENCE_CHAINS):
            n, m = (int(v) for v in rng.integers(3, 12, size=2))
            rates = SimpleNamespace(n=n, m=m, lambda_=1.0, mu1=1.2, mu2=0.9)
            self._chains.append((rates, tuple(int(v) for v in rng.integers(0, m + 1, size=m))))
        self._last = -math.inf
        self.samples: list[float] = []

    def maybe_sample(self):
        """Time the computation if REFERENCE_EVERY_S has passed; return the time spent."""
        if time.perf_counter() - self._last < REFERENCE_EVERY_S:
            return 0.0
        start = time.perf_counter()
        for rates, d in self._chains:
            self._check(rates, d)
        self._last = time.perf_counter()
        self.samples.append(self._last - start)
        return self._last - start

    def factor(self, first=0):
        """Nominal over the median reference time of samples[first:].

        It scales raw times to the nominal speed. With no sample since
        `first`, the last sample stands in.
        """
        return NOMINAL_REFERENCE_S / statistics.median(self.samples[first:] or self.samples[-1:])


def _run_round(wl, reference, tracer=None):
    """Run every task once; return (wall, latencies, outcomes, ctx, factor).

    factor scales this round's times to the nominal speed, from the
    reference samples taken during the round.
    """
    import workloads
    from sleepq import SleepqError

    ctx: dict = {}
    outputs = []
    latencies = []
    referencing = 0.0
    first_sample = len(reference.samples)
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        for task in wl.tasks:
            referencing += reference.maybe_sample()
            if tracer is not None:
                tracer.task = task.name
            t0 = time.perf_counter()
            try:
                out = ("ok", task.run(ctx))
            except SleepqError as exc:
                out = ("refused", f"{type(exc).__name__}: {exc}")
            except (KeyError, ValueError, ArithmeticError, RuntimeError) as exc:
                out = ("error", f"{type(exc).__name__}: {exc}")
            latencies.append(time.perf_counter() - t0)
            outputs.append(out)
        wall = time.perf_counter() - start - referencing
    finally:
        if tracer is not None:
            tracer.task = None
            tracer.uninstall()
    outcomes = []
    for task, (status, value) in zip(wl.tasks, outputs):
        if status == "ok":
            try:
                task.check(value, ctx)
            except workloads.OracleMismatch as exc:
                status, value = "mismatch", str(exc)
        outcomes.append((status, value if status != "ok" else None))
    return wall, latencies, outcomes, ctx, reference.factor(first_sample)


def round_count(wl, args):
    """Rounds in a run: as many as fit in --seconds at the nominal speed.

    The count depends on the workload and --seconds only, never on how fast
    this run happens to go, so `attempted` and `failed` repeat exactly for a
    seed. A traced run spends each round twice, untraced and traced.
    """
    return max(1, round(args.seconds / (wl.round_s * (2 if args.trace else 1))))


def _measure(wl, args):
    traced_mode = bool(args.trace)
    tracer = None
    if traced_mode:
        from tracer import Tracer
        tracer = Tracer()

    reference = Reference()
    rounds = []          # (wall, latencies, outcomes, ctx, factor) of untraced rounds
    traced = []
    for _ in range(round_count(wl, args)):
        rounds.append(_run_round(wl, reference))
        if traced_mode:
            traced.append(_run_round(wl, reference, tracer))

    task_count = len(wl.tasks)
    # The host's speed changes by up to 1.8x from second to second and from
    # minute to minute, so each round is scaled by the reference samples
    # taken during it before the median over rounds is taken.
    per_task = [statistics.median(r[1][i] * r[4] for r in rounds) for i in range(task_count)]
    per_task_raw = [statistics.median(r[1][i] for r in rounds) for i in range(task_count)]
    outcomes = [o for r in rounds + traced for o in r[2]]
    failures = [(wl.tasks[i % task_count].name, status, detail)
                for i, (status, detail) in enumerate(outcomes) if status != "ok"]
    attempted = len(outcomes)
    tail_p = tail_percentile(task_count)
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def tail_of(values):
        return 1e3 * nearest_rank(sorted(values), tail_p) if tail_p else None

    factor = reference.factor()
    metrics = {
        "wall_s": (sum(per_task), "s"),
        "task_p50_ms": (1e3 * statistics.median(per_task), "ms"),
        "task_tail_ms": (tail_of(per_task), "ms"),
        "peak_rss_mb": (usage / 1024.0, "MB"),
        "fail_ratio": (len(failures) / attempted, "1"),
        "wall_raw_s": (sum(per_task_raw), "s"),
        "task_p50_raw_ms": (1e3 * statistics.median(per_task_raw), "ms"),
        "task_tail_raw_ms": (tail_of(per_task_raw), "ms"),
    }
    for name, (value, unit) in wl.extra_metrics([r[3] for r in rounds]).items():
        metrics[name] = (value / factor, unit)
        metrics[name.replace("events_per_s", "events_per_raw_s")] = (value, unit)

    result = {
        "reference": {"nominal_s": NOMINAL_REFERENCE_S,
                      "median_s": statistics.median(reference.samples),
                      "samples": len(reference.samples), "factor": factor},
        "attempted": attempted,
        "failed": len(failures),
        "correct": not any(status in ("mismatch", "error") for _, status, _ in failures),
        "rounds": len(rounds),
        "tasks": task_count,
        "tail_percentile": tail_p,
        "failures": _summarize_failures(failures),
        "properties": wl.properties(),
        "environment": _child_environment(),
        "task_ms": {t.name: round(1e3 * v, 4) for t, v in zip(wl.tasks, per_task)},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"latencies-{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w", encoding="utf-8") as fp:
        json.dump({"tasks": [t.name for t in wl.tasks], "round_wall_s": [r[0] for r in rounds],
                   "latency_s": [r[1] for r in rounds], "round_factor": [r[4] for r in rounds],
                   "reference_s": reference.samples}, fp)
    if traced_mode:
        metrics = _layer_metrics(wl, tracer, [r[0] for r in traced], rounds, args)
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return result


def _summarize_failures(failures):
    """Failure counts by status and exception type, with one example each."""
    summary: dict = {}
    for name, status, detail in failures:
        kind = f"{status}:{detail.split(':', 1)[0]}" if status != "mismatch" else status
        row = summary.setdefault(kind, {"count": 0, "example": f"{name}: {detail}"[:300]})
        row["count"] += 1
    return summary


def _child_environment():
    import numpy
    import scipy

    import sleepq._simkernel as kernel
    try:
        import numba  # noqa: F401
        numba_ok = True
    except ImportError:
        numba_ok = False
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "numba_importable": numba_ok,
            "auto_kernel": "jit" if kernel.kernel_jit is not None else "python"}


# ------------------------------------------------------------ trace layer

def _layer_metrics(wl, tracer, traced_walls, rounds, args):
    from tracer import aggregate

    spans = tracer.spans
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl.gz"))
    rows = aggregate(spans)

    per_round = 1.0 / len(traced_walls)
    metrics = {}
    for label, row in rows.items():
        metrics[f"{label}.calls"] = (row["calls"] * per_round, "count")
        metrics[f"{label}.total_s"] = (row["total_s"] * per_round, "s")
        if row["has_children"]:
            metrics[f"{label}.self_s"] = (row["self_s"] * per_round, "s")
    for name, unit in LAYER_METRICS.items():
        if name not in metrics and unit in ("count", "s"):
            metrics[name] = (0 if unit == "count" else 0.0, unit)

    def infos(label):
        return [s[7] or {} for s in spans if s[1] == label]

    poisson = [(s[3] - s[2], s[7] or {}) for s in spans if s[1] == "potential.solve_poisson"]
    for method in ("rg", "dense", "explicit"):
        metrics[f"potential.solve_poisson.{method}.total_s"] = (
            per_round * sum(d for d, info in poisson if info.get("method") == method), "s")
    metrics["potential.solve_poisson.failed"] = (
        per_round * rows.get("potential.solve_poisson", {}).get("failed", 0), "count")
    residuals = [info["residual"] for _, info in poisson if info.get("residual") is not None]
    metrics["potential.residual_max"] = (max(residuals, default=0.0), "1")
    metrics["model.enumerate_policies.yielded"] = (tracer.yielded[0] * per_round, "count")
    metrics["optimize.optimize.evaluations"] = (
        per_round * sum(i.get("evaluations", 0) for i in infos("optimize.optimize")), "count")
    rows_done = sum(i.get("rows", 0) for i in infos("optimize.profits_block"))
    block_s = rows.get("optimize.profits_block", {}).get("total_s", 0.0)
    metrics["optimize.profits_block.rows_per_s"] = (rows_done / block_s if block_s else 0.0,
                                                    "rows/s")
    metrics["optimize.threads2_speedup"] = (_speedup(spans), "1")
    metrics["sim.simulate.events"] = (
        per_round * sum(i.get("events", 0) for i in infos("sim.simulate")), "count")
    kernel_events = sum(i.get("events", 0) for i in infos("_simkernel.kernel"))
    kernel_s = rows.get("_simkernel.kernel", {}).get("total_s", 0.0)
    metrics["_simkernel.kernel.events_per_s"] = (kernel_events / kernel_s if kernel_s else 0.0,
                                                 "events/s")
    metrics.update(_import_times())
    untraced = statistics.median(r[0] for r in rounds)
    metrics["trace.overhead_s"] = (statistics.median(traced_walls) - untraced, "s")
    metrics["trace.traced_wall_s"] = (statistics.median(traced_walls), "s")
    metrics["trace.untraced_wall_s"] = (untraced, "s")
    return metrics


def _speedup(spans):
    """Duration of optimize(threads=1) over threads=2 on the same space size."""
    by_size: dict = {}
    for s in spans:
        if s[1] == "optimize.optimize" and s[7] and s[7].get("evaluations"):
            key = (s[7]["evaluations"], s[7]["threads"])
            by_size.setdefault(key, []).append(s[3] - s[2])
    ratios = [statistics.median(by_size[(size, 1)]) / statistics.median(by_size[(size, 2)])
              for size, threads in by_size if threads == 2 and (size, 1) in by_size]
    return max(ratios) if ratios else None


def _import_times(repeats=3):
    """import.sleepq_s and import.scipy_stats_s from `python -X importtime`."""
    found: dict = {"sleepq": [], "scipy.stats": []}
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import sleepq"],
                              capture_output=True, text=True, timeout=60, check=True)
        for line in proc.stderr.splitlines():
            match = re.match(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|\s*(\S+)\s*$", line)
            if match and match.group(2) in found:
                found[match.group(2)].append(int(match.group(1)) * 1e-6)
    return {"import.sleepq_s": (statistics.median(found["sleepq"]), "s"),
            "import.scipy_stats_s": (statistics.median(found["scipy.stats"])
                                     if found["scipy.stats"] else 0.0, "s")}


# ----------------------------------------------------------------- parent

def _environment():
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _provenance():
    commit = None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join("src", "sleepq", "*.py"))):
        with open(path, "rb") as fp:
            digest.update(path.encode() + b"\0" + fp.read())
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fp:
            for line in fp:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level")) as fp:
                level = fp.read().strip()
            with open(os.path.join(index, "type")) as fp:
                kind = fp.read().strip()
            with open(os.path.join(index, "size")) as fp:
                size = fp.read().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            caches[f"L{level}"] = size
    return {"git_commit": commit, "source_sha256": digest.hexdigest()[:16],
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "caches": caches, "blas_threads": 1}


def _spawn_child(args, setup_only, deadline):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--child",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--spawned-at", repr(time.monotonic())]
    if setup_only:
        argv.append("--setup-only")
    if args.tiny:
        argv.append("--tiny")
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=_environment())
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("the workload process overran its time limit")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not stdout.strip():
        raise BenchError(f"the workload process exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_once(args):
    """Run one workload; return (report, contract result line)."""
    if not os.path.isfile(os.path.join("src", "sleepq", "__init__.py")):
        raise BenchError("run from the root of a sleepq checkout (src/sleepq is missing)")
    with open("BENCHMARK.json", encoding="utf-8") as fp:
        spec = json.load(fp)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    repeats = 1 if (args.trace or args.tiny) else SETUP_REPEATS
    children = [_spawn_child(args, True, deadline) for _ in range(repeats - 1)]
    child = _spawn_child(args, False, deadline)
    children.append(child)
    metrics = child.pop("metrics")
    setups = [c.pop("setup_s") for c in children]
    metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "setup_samples_s": setups,
              "provenance": _provenance(), **child, "metrics": metrics}
    declared = spec["per_layer" if args.trace else "end_to_end"]
    chosen = {}
    for entry in declared:
        got = metrics.get(entry["name"])
        if got is None or got["value"] is None:
            raise BenchError(f"metric {entry['name']} was not measured")
        if got["unit"] != entry["unit"]:
            raise BenchError(f"metric {entry['name']} is in {got['unit']}, "
                             f"BENCHMARK.json says {entry['unit']}")
        chosen[entry["name"]] = got
    line = {"correct": child["correct"], "attempted": child["attempted"],
            "failed": child["failed"], "metrics": chosen}
    return report, line


def _print(report, line):
    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"report-{report['workload']}-seed{report['seed']}-trace{report['trace']}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fp:
        json.dump(report, fp, indent=1, sort_keys=True)
    print(f"sleepq benchmark: workload={report['workload']} seed={report['seed']} "
          f"trace={report['trace']} rounds={report['rounds']} tasks={report['tasks']}")
    for name, metric in sorted(report["metrics"].items()):
        value = metric["value"]
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:48s} {shown:>14s} {metric['unit']}")
    if report["failures"]:
        print(f"  failures: {json.dumps(report['failures'])}")
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps(line))


def self_check():
    """Run every workload at tiny sizes, traced and not; report what is wrong."""
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=1, seconds=1, trace=trace,
                                      tiny=True)
            try:
                report, line = run_once(args)
            except BenchError as exc:
                problems.append(f"{workload} trace={trace}: {exc}")
                continue
            metrics = report["metrics"]
            wanted = ({k: unit for k, (unit, wls) in E2E_METRICS.items() if workload in wls}
                      if not trace else LAYER_METRICS)
            for name, unit in wanted.items():
                if name not in metrics:
                    problems.append(f"{workload} trace={trace}: {name} missing")
                elif metrics[name]["unit"] != unit:
                    problems.append(f"{workload} trace={trace}: {name} has unit "
                                    f"{metrics[name]['unit']!r}, expected {unit!r}")
            if not line["correct"]:
                problems.append(f"{workload} trace={trace}: oracle failed: "
                                f"{json.dumps(report['failures'])}")
            print(f"self-check {workload} trace={trace}: {len(metrics)} metrics, "
                  f"{line['attempted']} tasks, {line['failed']} failed", flush=True)
    for problem in problems:
        print("self-check FAIL " + problem)
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run all workloads at tiny sizes and check the output")
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        print(json.dumps(_child(args)))
        return 0
    try:
        if args.self_check:
            return self_check()
        if args.workload is None:
            parser.error("--workload is required")
        _print(*run_once(args))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
