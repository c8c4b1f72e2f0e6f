"""proptree benchmark: run one workload in this process and print its metrics.

    python3 perfbench/run.py --workload train-joint --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; proptree is imported from ``src/``.
With ``--trace 0`` the last line of standard output is a JSON object with
every end-to-end metric; with ``--trace 1`` the same workload runs with span
tracing and the object holds the per-layer metrics instead.  Lines before it
give the environment and a readable table.  The workloads, metrics and the
layer map are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Scratch files of a run (checkpoints, span dumps), inside the checkout.
WORKDIR = ROOT / ".perfbench"
DEFAULT_SEED = 1
# BLAS threads for every workload.  The operands are small, so one thread is
# as fast as two and removes thread hand-off jitter from the timings.
BLAS_THREADS = 1
SETUP_REPEATS = 3
# Every run repeats its round at least this often; throughputs and latencies
# take each piece of work at its median repeat.
MIN_ROUNDS = 2
# No new round starts after this many timed seconds, so a run on a slow
# machine still ends well inside its time limit.
MAX_TIMED_SECONDS = 60.0

# (name, unit, better) of every end-to-end metric, in report order.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("train_tokens_per_s", "tokens/s", "higher"),
    ("train_final_loss", "nats/doc", "lower"),
    ("predict_tokens_per_s", "tokens/s", "higher"),
    ("predict_doc_ms_p50", "ms", "lower"),
    ("predict_doc_ms_p90", "ms", "lower"),
    ("f1", "%", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("train-joint", "train-attn", "predict-long", "pipeline"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="timed seconds; whole rounds run until they are used up")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs every workload at a few documents, for smoke tests")
    return ap.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "proptree" / "__init__.py").is_file():
        print(f"error: no proptree sources under {SRC}", file=sys.stderr)
        return 2
    load_at_start = os.getloadavg()
    # Must be set before numpy is first imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    WORKDIR.mkdir(exist_ok=True)

    import workloads
    from speed import SpeedMeter

    spec = workloads.SPECS[args.workload]
    if args.size == "tiny":
        spec = workloads.tiny(spec)

    # The untraced run scales its times to reference speed; the traced run
    # reports wall time, because kernel samples would land inside spans.
    tracer = meter = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    else:
        meter = SpeedMeter()
        meter.start()
    try:
        tally, setup, state, round_s, counts = measure(args, spec, tracer)
    finally:
        if meter:
            meter.stop()
    if len(set(tally.outcomes)) > 1:
        tally.problems.append(f"identical rounds gave different (loss, f1): {tally.outcomes}")

    if tracer:
        # One more round with the wrappers removed gives the tracing overhead.
        tracer.uninstall()
        started = time.perf_counter()
        workloads.run_round(state, tally)
        untraced_s = time.perf_counter() - started
        result = layer_metrics(tracer, SETUP_REPEATS, round_s, untraced_s, counts, tally)
        tracer.write(WORKDIR / f"spans-{args.workload}-seed{args.seed}.tsv.gz")
    else:
        result = end_to_end_metrics(setup, tally, meter.seconds)

    print(json.dumps({"env": environment(args, load_at_start, spec, state, tally,
                                         setup, len(round_s), meter)}))
    for line in tally.problems:
        print(f"problem: {line}")
    print(table(result, tally))
    print(json.dumps({
        "correct": tally.failed == 0 and not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in result.items()},
    }))
    return 0


def measure(args, spec, tracer):
    """Set up ``SETUP_REPEATS`` times, then run rounds until the time is used up."""
    import workloads

    if tracer:
        import tracing
    tally = workloads.Tally()
    setup = workloads.Repeats()
    for _ in range(SETUP_REPEATS):
        span = tracer.open(tracing.ROOT_SETUP) if tracer else None
        started = time.perf_counter()
        state = workloads.setup(spec, args.seed, WORKDIR)
        setup.add("setup", 1, started, time.perf_counter())
        if tracer:
            tracer.close(span)
        if state.log:
            # predict-long trains in set-up, so its set-ups are the training repeats.
            losses = workloads.record_training(state.log, state, tally, *state.trained)
    tally.attempted += state.gold_checked
    tally.failed += state.gold_failed
    if state.log:
        workloads.check_losses(losses, tally)

    round_s, counts = [], []
    timed_from = time.perf_counter()
    while True:
        before = Counter(tracer.counts) if tracer else None
        span = tracer.open(tracing.ROOT_ROUND) if tracer else None
        started = time.perf_counter()
        workloads.run_round(state, tally)
        round_s.append(time.perf_counter() - started)
        if tracer:
            tracer.close(span)
            counts.append(tracing.round_counts(tracer.counts - before))
        elapsed = time.perf_counter() - timed_from
        if (elapsed >= args.seconds and len(round_s) >= MIN_ROUNDS
                or elapsed >= MAX_TIMED_SECONDS):
            break
    return tally, setup, state, round_s, counts


def end_to_end_metrics(setup, tally, seconds) -> dict[str, tuple[float, str, str]]:
    """Every end-to-end metric; ``seconds`` gives the reference seconds of an
    interval.  Latencies are percentiles over documents of each document's
    median over rounds."""
    import numpy as np

    loss, f1 = tally.outcomes[-1]
    p50, p90 = 1000.0 * np.percentile(tally.predict.medians(seconds), [50, 90])
    values = {
        "setup_s": setup.medians(seconds)[0],
        "train_tokens_per_s": tally.train.rate(seconds),
        "train_final_loss": loss,
        "predict_tokens_per_s": tally.predict.rate(seconds),
        "predict_doc_ms_p50": float(p50),
        "predict_doc_ms_p90": float(p90),
        "f1": f1,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: (values[name], unit, better) for name, unit, better in END_TO_END}


def layer_metrics(tracer, setups: int, round_s: list[float], untraced_s: float,
                  counts: list[dict], tally) -> dict[str, tuple[float, str, str]]:
    """Per-layer self seconds per round, exact counts and trace self-checks."""
    import tracing

    selfs = tracer.self_times()
    rounds = len(round_s)
    out: dict[str, tuple[float, str, str]] = {}
    for layer in tracing.LAYERS:
        if layer == "nn.checkpoint":
            # Checkpoints are written and read only during set-up.
            busy = selfs.get((tracing.ROOT_SETUP, layer), 0.0) / setups
        else:
            busy = selfs.get((tracing.ROOT_ROUND, layer), 0.0) / rounds
        out[f"{layer}.busy_s"] = (busy, "s", "lower")
    bench = selfs.get((tracing.ROOT_ROUND, tracing.ROOT_ROUND), 0.0) / rounds
    wall = sum(tracer.root_seconds(tracing.ROOT_ROUND)) / rounds
    layers = sum(v for k, (v, _, _) in out.items() if k != "nn.checkpoint.busy_s")
    if abs(layers + bench - wall) > 1e-6 * wall:
        tally.problems.append(f"trace self times {layers + bench:.6f}s != wall {wall:.6f}s")
    for name in tracing.EXACT_COUNTS:
        unit = "ratio" if name.endswith(("ratio", "per_pair")) else "count"
        out[name] = (counts[-1][name], unit, "lower")
    identical = all(c == counts[0] for c in counts)
    if not identical:
        tally.problems.append(f"exact counts differ between identical rounds: {counts}")
    traced = statistics.median(round_s)
    out.update({
        "bench.busy_s": (bench, "s", "lower"),
        "trace.round_s": (wall, "s", "lower"),
        "trace.coverage": (layers / wall, "ratio", "higher"),
        "trace.overhead_s": (traced - untraced_s, "s", "lower"),
        "trace.overhead_share": ((traced - untraced_s) / untraced_s, "ratio", "lower"),
        "trace.counts_identical": (float(identical), "bool", "higher"),
        "trace.rounds": (float(rounds), "count", "higher"),
    })
    return out


def environment(args, load_at_start, spec, state, tally, setup, rounds: int,
                meter) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS, "loadavg_at_start": list(load_at_start),
        "setups": SETUP_REPEATS, "rounds": rounds, "epochs": spec.epochs,
        "train_docs": len(state.train_docs), "train_tokens": state.train_tokens,
        "val_docs": len(state.val_docs),
        "predict_docs_per_round": len(state.eval_docs),
        "predict_tokens_per_round": sum(d.n for d in state.eval_docs),
        "trained_tokens": tally.train.total_work(),
        "predicted_tokens": tally.predict.total_work(),
        "latency_samples": len(tally.predict.pieces),
        "error_rate": tally.failed / tally.attempted,
    }
    if meter:
        # Unscaled figures, and the speed-kernel samples the times were scaled by.
        def raw(t0, t1):
            return meter.seconds(t0, t1, scaled=False)
        raw_ms = 1000.0 * np.array(tally.predict.medians(raw))
        env.update({
            "kernel_ms_median": 1000.0 * statistics.median(meter.kernel_s),
            "kernel_ms_max": 1000.0 * max(meter.kernel_s),
            "kernel_samples": len(meter.kernel_s),
            "raw_setup_s": setup.medians(raw)[0],
            "raw_train_tokens_per_s": tally.train.rate(raw),
            "raw_predict_tokens_per_s": tally.predict.rate(raw),
            "raw_predict_doc_ms_p50": float(np.percentile(raw_ms, 50)),
            "raw_predict_doc_ms_p90": float(np.percentile(raw_ms, 90)),
        })
    return env


def table(result: dict, tally) -> str:
    lines = [f"{'metric':<38}{'value':>14}  {'unit':<10}better"]
    for name, (value, unit, better) in result.items():
        lines.append(f"{name:<38}{value:>14.6g}  {unit:<10}{better}")
    lines.append(f"{'error_rate':<38}{tally.failed / tally.attempted:>14.6g}  "
                 f"{'ratio':<10}lower   ({tally.failed} of {tally.attempted} failed)")
    return "\n".join(lines)


if __name__ == "__main__":
    sys.exit(main())
