"""Benchmark of the qfisher pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole cycles of a workload's tasks (see workloads.py) for about S
seconds in one single-threaded process, checks every result against its
reference, and prints as the last stdout line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones from a traced run. The line before it, starting with ``# ``,
is a JSON report with the environment, the exact per-cycle counts, the
sample counts and any failures. A traced run also writes its spans to
``perfbench/out/<workload>-seed<N>.json``.

The program is imported from ``src/`` next to this directory; without it
the benchmark exits with an error before printing a result.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# One thread per process: the calls under test are small-matrix numpy work.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("QFI_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# A run completes at least this many tasks, so its p75 has ten beyond it.
MIN_TASKS = 40
# Loop time after which no further cycle starts, whatever --seconds says.
HARD_CAP_S = 120.0
SETUP_REPEATS = 9

# Span names whose self time becomes a per-layer metric.
TIMED_SPANS = (
    "models.eval",
    "operators.exp_skew_batch",
    "propagation.propagate",
    "fisher.generator_integral",
    "fisher.generator_derivative",
    "fisher.optimal_qfi",
    "fisher.upper_bound_qfi",
    "control.build_controlled_drive",
    "control.track_eigenbasis",
    "control.synthesize_cd",
    "frames.fisher_invariance_check",
    "frames.appendix_a_distinction",
    "frames.transform_eval",
    "estimation.adaptive_estimate",
    "estimation.sample_shots",
)
COUNTS = (
    "models.eval_points",
    "operators.exp_matrices",
    "propagation.calls",
    "propagation.steps",
    "propagation.stack_bytes",
    "fisher.derivative_propagations",
    "control.points_tracked",
    "estimation.shots",
    "estimation.propagations",
)


def import_program() -> None:
    """Import qfisher from this checkout's src/, or exit with an error."""
    sys.path.insert(0, str(SRC))
    try:
        import qfisher
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import qfisher from {SRC}: {exc}")
    if not Path(qfisher.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: qfisher imported from {qfisher.__file__}, not {SRC}")


def warmup_task(workload: str, seed: int, tiny: bool):
    """The smallest task of a cycle drawn from a stream apart from the
    timed cycles'."""
    import numpy as np
    from workloads import WORKLOADS, task_cost

    return min(WORKLOADS[workload](np.random.default_rng([seed, 1]), tiny), key=task_cost)


def measure_setup(workload: str, seed: int, tiny: bool, repeats: int, speed):
    """Set-up times of fresh processes: import, model construction and one
    warm-up task of the smallest size. Returns (raw times, reference
    times), each reference the median of five samples since a single one is
    too noisy to correct a single set-up."""
    import numpy as np

    def reference() -> float:
        return float(np.median([speed.sample() for _ in range(5)]))

    times, refs = [], []
    for _ in range(repeats):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               "--workload", workload, "--seed", str(seed)]
        if tiny:
            cmd.append("--tiny")
        refs.append(reference())
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    refs.append(reference())
    return times, refs


def environment(tasks) -> dict:
    """Versions, cores, CPU model, cache sizes and computed working set."""
    import numpy as np

    cpu_model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                "",
            )
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = _size_bytes(size)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    working_set = max(t.stack_bytes for t in tasks)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "cache_bytes": caches,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "working_set_bytes": working_set,
        "working_set_note": "largest (steps+1)*d^2*16 propagator stack of a cycle, computed",
        "working_set_fits": {k: working_set <= v for k, v in caches.items()},
    }


def _size_bytes(text: str) -> int:
    units = {"K": 1024, "M": 1024**2, "G": 1024**3}
    if text[-1] in units:
        return int(text[:-1]) * units[text[-1]]
    return int(text)


def task_class(task) -> str:
    """Tasks of one class differ only in their seeded physical parameters."""
    extra = [str(task.params[k]) for k in ("estimand", "shots") if k in task.params]
    return "/".join([task.kind, str(task.steps), f"d{task.dim}", *extra])


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  tiny: bool = False, min_tasks: int = MIN_TASKS,
                  setup_repeats: int = SETUP_REPEATS):
    """Run one workload; returns (result line dict, report dict, tracer)."""
    import numpy as np
    from hostspeed import HostSpeed, corrected
    from tracer import NullTracer, Tracer
    from workloads import WORKLOADS, run_task, task_cost

    make_cycle = WORKLOADS[workload]
    null, tracer, speed = NullTracer(), Tracer(), HostSpeed()
    run_task(warmup_task(workload, seed, tiny), null)
    setup_raw, setup = [], []
    if not trace:
        setup_raw, setup_refs = measure_setup(workload, seed, tiny, setup_repeats, speed)
        setup = corrected(setup_raw, setup_refs)

    rng = np.random.default_rng(seed)
    cycles = []  # one dict per cycle: tasks, task ids, results, traced flag
    raw_times, refs = [], []  # by task id; refs[i] is sampled just before task i
    failures = []
    task_id = 0
    start = time.perf_counter()
    while True:
        traced = trace and len(cycles) % 2 == 1
        tr = tracer if traced else null
        tasks = make_cycle(rng, tiny)
        record = {"tasks": tasks, "ids": [], "results": [], "traced": traced}
        for task in tasks:
            tr.task = task_id
            refs.append(speed.sample())
            t0 = time.perf_counter()
            with tr.span("task"):
                try:
                    result = run_task(task, tr)
                except Exception as exc:  # counted as a failed task
                    result = None
                    failures.append(f"{task.kind}[{task.steps}]: {type(exc).__name__}: {exc}")
            raw_times.append(time.perf_counter() - t0)
            record["ids"].append(task_id)
            record["results"].append(result)
            if result is not None and not result.ok:
                failures.append(f"{task.kind}[{task.steps}]: {result.detail}")
            task_id += 1
        cycles.append(record)
        elapsed = time.perf_counter() - start
        per_cycle = elapsed / len(cycles)
        done = sum(len(c["tasks"]) for c in cycles if not c["traced"]) >= min_tasks
        if trace:
            done = len(cycles) >= 2
        if elapsed >= HARD_CAP_S or (done and elapsed + 0.5 * per_cycle > seconds):
            break
    loop_wall = time.perf_counter() - start
    refs.append(speed.sample())
    task_times = corrected(raw_times, refs)

    # Repeat the cheapest task of each kind from the first cycle; its
    # outputs must be bit-identical.
    first = cycles[0]
    repeats = {}
    for task, result in zip(first["tasks"], first["results"]):
        best = repeats.get(task.kind)
        if result is not None and (best is None or task_cost(task) < task_cost(best[0])):
            repeats[task.kind] = (task, result)
    for kind, (task, result) in repeats.items():
        try:
            again = run_task(task, null).digest
        except Exception as exc:  # counted as a failed task
            again = f"{type(exc).__name__}: {exc}"
        if again != result.digest:
            failures.append(f"{kind}[{task.steps}]: repeated task did not give the same outputs")

    timed = [c for c in cycles if not c["traced"]]
    attempted = sum(len(c["tasks"]) for c in cycles) + len(repeats)
    failed = len(failures)
    counts = Counter()
    for result in first["results"]:
        if result is not None:
            counts.update(result.counts)

    timed_ids = [i for c in timed for i in c["ids"]]
    times = [task_times[i] for i in timed_ids]
    raw = [raw_times[i] for i in timed_ids]
    if trace:
        metrics = layer_metrics(tracer, cycles, counts, raw_times, task_times)
    else:
        metrics = {
            "setup_s": (float(np.median(setup)), "s"),
            "task_p50_s": (float(np.percentile(times, 50)), "s"),
            "task_p75_s": (float(np.percentile(times, 75)), "s"),
            "tasks_per_s": (len(times) / sum(times), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "cycles": len(cycles),
        "tasks_per_cycle": len(first["tasks"]),
        "timed_tasks": sum(len(c["tasks"]) for c in timed),
        "loop_wall_s": loop_wall,
        "reference_s": {"median": float(np.median(refs)), "min": min(refs), "max": max(refs)},
        "uncorrected": {
            "setup_s": float(np.median(setup_raw)) if setup_raw else None,
            "task_p50_s": float(np.percentile(raw, 50)),
            "task_p75_s": float(np.percentile(raw, 75)),
            "tasks_per_s": len(raw) / sum(raw),
        },
        "setup_samples_s": setup,
        "task_samples": [
            [task_class(t), task_times[i], raw_times[i]]
            for c in timed for t, i in zip(c["tasks"], c["ids"])
        ],
        "counts_per_cycle": {k: counts.get(k, 0) for k in COUNTS},
        "env": environment(first["tasks"]),
        "failures": failures[:20],
    }
    return line, report, tracer


def layer_metrics(tracer, cycles, counts, raw_times, task_times) -> dict:
    """Per-layer metrics: self time per traced cycle and its per-task median
    for every timed span, the exact counts of the first cycle, and the
    tracing overhead against the untraced cycles of the same run."""
    import numpy as np

    n_traced = sum(c["traced"] for c in cycles)
    self_times = tracer.self_times()
    per_task: dict[str, dict[int, float]] = {name: {} for name in TIMED_SPANS}
    probe_time: dict[int, float] = {}
    task_time: dict[int, float] = {}
    for span, own in zip(tracer.spans, self_times):
        if span.name == "task":
            task_time[span.task] = span.duration
        elif span.probe and not tracer.spans[span.parent].probe:
            probe_time[span.task] = probe_time.get(span.task, 0.0) + span.duration
        if span.name in per_task:
            bucket = per_task[span.name]
            bucket[span.task] = bucket.get(span.task, 0.0) + own

    metrics = {}
    for name in TIMED_SPANS:
        values = list(per_task[name].values())
        metrics[f"{name}_s"] = (sum(values) / n_traced, "s")
        metrics[f"{name}_s_p50"] = (float(np.median(values)) if values else 0.0, "s")
    # The probes repeat propagate's evaluation and exponentials on the same
    # inputs, so the remainder is the cumulative product loop.
    loops = [
        per_task["propagation.propagate"][t]
        - per_task["models.eval"][t]
        - per_task["operators.exp_skew_batch"].get(t, 0.0)
        for t in per_task["models.eval"]
    ]
    metrics["propagation.loop_s"] = (sum(loops) / n_traced, "s-derived")
    metrics["propagation.loop_s_p50"] = (float(np.median(loops)) if loops else 0.0, "s-derived")
    for name in COUNTS:
        unit = "bytes-computed" if name == "propagation.stack_bytes" else "count"
        metrics[name] = (counts.get(name, 0), unit)
    shots = counts.get("estimation.shots", 0)
    useful = counts.get("estimation.main_shots", 0) / shots if shots else 0.0
    metrics["estimation.useful_shot_frac"] = (useful, "ratio")

    traced = [c for c in cycles if c["traced"]]
    untraced = [c for c in cycles if not c["traced"]]
    # Both sides carry the host-speed correction of their own task.
    traced_total = sum(
        (task_time[t] - probe_time.get(t, 0.0)) * task_times[t] / raw_times[t]
        for c in traced for t in c["ids"]
    ) / len(traced)
    untraced_total = sum(task_times[t] for c in untraced for t in c["ids"]) / len(untraced)
    metrics["trace.overhead_frac"] = (traced_total / untraced_total - 1.0, "ratio")
    return metrics


def write_spans(path: Path, tracer, report: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = dict(report, spans=tracer.to_records())
    path.write_text(json.dumps(payload))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the self-test")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_program()
    from workloads import WORKLOADS, run_task
    from tracer import NullTracer

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    if args.setup_only:
        run_task(warmup_task(args.workload, args.seed, args.tiny), NullTracer())
        print(repr(time.perf_counter() - _T0))
        return 0

    line, report, tracer = run_benchmark(
        args.workload, args.seed, args.seconds, bool(args.trace), tiny=args.tiny
    )
    if args.trace:
        write_spans(BENCH_DIR / "out" / f"{args.workload}-seed{args.seed}.json", tracer, report)
    for failure in report["failures"]:
        print(f"perfbench: failed: {failure}", file=sys.stderr)
    print("# " + json.dumps(report))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
