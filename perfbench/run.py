#!/usr/bin/env python3
"""Closed-loop benchmark of frameiso.

One process drives the load as a single client: each operation is one
call into the library, or one in-process ``frameiso`` CLI sequence, and
the next starts when the previous one returns.

    python3 perfbench/run.py --workload precheck-solve --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced passes over a fixed prefix
of the inputs and reports the per-layer metrics.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.  Inputs, spans and results are written under .perfbench/ at the
repository root.
"""

import os

# Pin BLAS and OpenMP to one thread before numpy is imported: the load is
# single-threaded, and OpenBLAS is built to start up to 64 threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 3
# At least ten latency samples must lie beyond p90.
MIN_OPS = 100


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _run_one(workload, item, tracer=None, op_id=0):
    """Run and check one operation; returns (latency s, error or None).

    The latency covers the call into frameiso only.  A raised exception
    is a failed operation, never the end of the run.
    """
    start = time.perf_counter()
    try:
        if tracer is None:
            output = workload.run(item, None)
        else:
            tracer.enabled = True
            try:
                with tracer.operation(op_id):
                    output = workload.run(item, tracer)
            finally:
                tracer.enabled = False
    except Exception as exc:  # noqa: BLE001 - counted in fail_ratio
        return time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    try:
        error = workload.check(item, output)
    except Exception as exc:  # noqa: BLE001 - a check that cannot run fails
        error = f"check raised {type(exc).__name__}: {exc}"
    return latency, error


def _summary(latencies, busy, done, size) -> dict:
    """ops_per_s, p50 and p90 latency of one run.

    ops_per_s is the median over whole rounds of the pool (``size``
    operations, one input of every shape) of completed operations per
    second of operation and check time, so that one stalled operation
    moves it no more than it moves the latency percentiles.
    """
    rounds = [slice(k, k + size) for k in range(0, len(done) - size + 1, size)]
    return {
        "ops_per_s": statistics.median(sum(done[r]) / sum(busy[r]) for r in rounds),
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_p90_ms": 1e3 * statistics.quantiles(
            latencies, n=10, method="inclusive")[8],
    }


def _measure(workload, pool, seconds, probe, failures) -> tuple:
    """Closed loop over the pool for ``seconds`` (and at least MIN_OPS).

    Each operation's wall time is scaled to the reference speed measured
    just before it (see speed.py); unscaled figures are printed too.
    """
    latencies, raw_latencies, busy, raw_busy, done = [], [], [], [], []
    start = time.perf_counter()
    deadline = start + seconds
    while len(done) < MIN_OPS or time.perf_counter() < deadline:
        scale = probe.sample()
        op = len(done)
        item = pool[op % len(pool)]
        begin = time.perf_counter()
        latency, error = _run_one(workload, item)
        took = time.perf_counter() - begin
        latencies.append(latency * scale)
        raw_latencies.append(latency)
        busy.append(took * scale)
        raw_busy.append(took)
        done.append(not error)
        if error:
            failures.append((op, item.index, error))
    elapsed = time.perf_counter() - start
    size = len(workload.shapes)
    units = {"ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms"}
    metrics = {
        name: (value, units[name])
        for name, value in _summary(latencies, busy, done, size).items()
    }
    raw = _summary(raw_latencies, raw_busy, done, size)
    raw["wall_ops_per_s"] = sum(done) / elapsed
    raw["reference_ms"] = 1e3 * statistics.median(probe.samples)
    print(f"ops {len(done)} in {elapsed:.3f} s, {sum(done)} completed")
    print("unscaled " + " ".join(f"{k}={v:.6g}" for k, v in raw.items()))
    return len(done), metrics, raw


def _traced(workload, pool, seconds, probe, tracing, failures) -> tuple:
    """Alternate untraced and traced passes over a fixed prefix of the pool.

    Counts come from the first traced pass, so they repeat exactly for
    the same seed; self times are medians over the traced passes.  Pass
    times, for the overhead ratio, are scaled to the reference speed.
    """
    tracer = tracing.Tracer()
    items = pool[: workload.trace_rounds * len(workload.shapes)]
    untraced_s, traced_s, self_s = [], [], []
    first = None
    attempted = 0
    start = time.perf_counter()
    pair_s = 0.0
    # Start another pair of passes only when it should end within --seconds.
    while not traced_s or time.perf_counter() - start + pair_s <= seconds:
        pair_start = time.perf_counter()
        for traced in (False, True):
            total = 0.0
            if traced:
                tracer.reset(record=first is None)
            with tracer.installed() if traced else contextlib.nullcontext():
                for op, item in enumerate(items):
                    scale = probe.sample()
                    latency, error = _run_one(
                        workload, item, tracer if traced else None, op
                    )
                    total += latency * scale
                    if error:
                        failures.append((attempted, item.index, error))
                    attempted += 1
            (traced_s if traced else untraced_s).append(total)
        layer = tracer.layer_metrics()
        if first is None:
            first, spans = layer, tracer.spans
        self_s.append({k: v for k, v in layer.items() if k.endswith(".self_s")})
        pair_s = time.perf_counter() - pair_start

    tracing.write_spans(spans, OUT_DIR / f"spans-{workload.name}.csv")
    metrics = {}
    for name, unit, _ in tracing.PER_LAYER:
        if name.endswith(".self_s"):
            value = statistics.median(sample[name] for sample in self_s)
        else:
            value = first.get(name, 0)
        metrics[name] = (value, unit)
    untraced, traced = statistics.median(untraced_s), statistics.median(traced_s)
    metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
    print(
        f"trace passes {len(traced_s)} x {len(items)} ops; "
        f"untraced {len(items) / untraced:.3f} ops/s, traced {len(items) / traced:.3f} ops/s"
    )
    return attempted, metrics


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "frameiso" / "__init__.py").is_file():
        print(f"error: frameiso sources not found under {src}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    sys.path[:0] = [str(src), str(ROOT)]
    import numpy as np

    import frameiso
    from perfbench import speed, tracing, workloads

    import_s = time.perf_counter() - start
    if Path(frameiso.__file__).resolve().parent != (src / "frameiso").resolve():
        print(f"error: imported frameiso from {frameiso.__file__}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    env = _environment(np)
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / workload.name

    # Set-up: input generation, input files and one warm-up operation,
    # repeated; the import is paid once per process.  Times are scaled to
    # the reference speed like the operations' (see speed.py).
    probe = speed.SpeedProbe()
    import_s *= probe.sample()
    failures = []
    setup_runs = []
    for _ in range(SETUP_REPEATS):
        scale = probe.sample()
        begin = time.perf_counter()
        pool, digest = workloads.build_pool(workload, args.seed, str(workdir))
        _, warm_error = _run_one(workload, pool[0])
        setup_runs.append((time.perf_counter() - begin) * scale)
    if warm_error:
        print(f"warm-up failed: {warm_error}")
    setup_s = import_s + statistics.median(setup_runs)
    print(f"inputs {workload.name} seed={args.seed} items={len(pool)} sha256={digest}")

    raw = {}
    if args.trace:
        attempted, metrics = _traced(
            workload, pool, args.seconds, probe, tracing, failures
        )
    else:
        attempted, metrics, raw = _measure(
            workload, pool, args.seconds, probe, failures
        )
        metrics["setup_s"] = (setup_s, "s")
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (peak_kib / 1024.0, "MB")

    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"fail_ratio {len(failures) / attempted:.6g} ({len(failures)}/{attempted})")
    for op, index, error in failures[:20]:
        print(f"FAILED op={op} item={index}: {error}")

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, workload=workload.name, seed=args.seed, trace=args.trace,
                  env=env, inputs_sha256=digest, unscaled=raw,
                  failures=[list(f) for f in failures])
    with open(OUT_DIR / f"result-{workload.name}-trace{args.trace}.json", "w",
              encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
