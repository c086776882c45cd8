"""Fast self-test of the benchmark at tiny sizes.

    python -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run.import_program()

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, trace, seed=3):
    return run.run_benchmark(
        workload, seed, seconds=0, trace=trace, tiny=True, min_tasks=1, setup_repeats=1
    )


@pytest.fixture(scope="module", params=WORKLOADS)
def traced(request):
    return request.param, _run(request.param, trace=True)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_end_to_end_metrics_without_spans(workload):
    line, report, tracer = _run(workload, trace=False)
    assert line["correct"] and line["failed"] == 0, report["failures"]
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        assert line["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert line["metrics"][metric["name"]]["value"] > 0
    # End-to-end numbers come from a run in which no span or probe ran.
    assert tracer.spans == []


def test_traced_run_emits_every_layer_metric(traced):
    _, (line, report, _) = traced
    assert line["correct"] and line["failed"] == 0, report["failures"]
    assert set(line["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert line["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_self_times_are_non_negative(traced):
    _, (_, _, tracer) = traced
    assert tracer.spans
    assert min(tracer.self_times()) >= 0.0


def test_spans_nest_inside_their_task(traced):
    _, (_, _, tracer) = traced
    for span in tracer.spans:
        assert span.end >= span.start
        if span.parent is None:
            assert span.name == "task"
            continue
        parent = tracer.spans[span.parent]
        assert parent.start <= span.start and span.end <= parent.end
        assert parent.task == span.task
        assert parent.probe <= span.probe


def test_probes_are_excluded_from_the_end_to_end_totals(traced):
    workload, (line, _, tracer) = traced
    tasks = {s.task: s for s in tracer.spans if s.name == "task"}
    probes = [s for s in tracer.spans if s.probe]
    assert probes, f"{workload} issued no probe"
    assert all(not tasks[s.task].probe for s in probes)
    # The overhead compares the non-probe part of each traced task with the
    # untraced cycles; recompute it from the spans alone.
    non_probe = sum(t.duration for t in tasks.values()) - sum(
        s.duration for s in probes if not tracer.spans[s.parent].probe
    )
    assert 0 < non_probe < sum(t.duration for t in tasks.values())
    overhead = line["metrics"]["trace.overhead_frac"]["value"]
    assert overhead > -1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(workload):
    first = _run(workload, trace=False, seed=5)[1]["counts_per_cycle"]
    second = _run(workload, trace=False, seed=5)[1]["counts_per_cycle"]
    assert first == second
    assert any(first.values())
