"""``tools/bench_record.py``'s ``run_once`` against stand-in benchmark
commands: a failed or malformed run raises one RuntimeError that says which
run it was and why."""

import importlib.util
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)


def run_code(code: str, trace: int = 1):
    """``run_once`` on a command that runs ``code``; the benchmark's own
    arguments land in its unused ``sys.argv``."""
    return bench_record.run_once([sys.executable, "-c", code], "some-workload", 7, 1.0, trace)


def test_returns_the_result_and_the_report():
    code = "print('progress'); print('# {\"env\": {\"cpus\": 2}}'); print('{\"tasks_per_s\": 3.5}')"
    assert run_code(code) == ({"tasks_per_s": 3.5}, {"env": {"cpus": 2}})


@pytest.mark.parametrize(
    "code, why, exit_code",
    [
        (
            "import sys; print('# {}'); sys.stderr.write('Traceback\\nboom\\n'); sys.exit(3)",
            "the run failed",
            3,
        ),
        (
            "import sys; sys.stderr.write('boom\\n'); print('{\"tasks_per_s\": 3.5}')",
            "no report line before the result",
            0,
        ),
        (
            "import sys; sys.stderr.write('boom\\n'); print('# {}'); print('tasks: 3.5')",
            "the report or result is not JSON",
            0,
        ),
    ],
    ids=["nonzero-exit", "one-line", "not-json"],
)
def test_a_bad_run_names_the_workload_flag_exit_code_and_stderr(code, why, exit_code):
    with pytest.raises(RuntimeError) as failure:
        run_code(code, trace=1)
    message = str(failure.value)
    assert message.startswith("some-workload --trace 1: ")
    assert why in message
    assert f"(exit code {exit_code})" in message
    assert "stderr tail:\n" in message and message.endswith("boom")


def test_the_stderr_tail_is_the_last_twenty_lines():
    code = "import sys; sys.stderr.write(''.join(f'line {i}\\n' for i in range(30))); sys.exit(1)"
    with pytest.raises(RuntimeError) as failure:
        run_code(code)
    tail = str(failure.value).split("stderr tail:\n")[1].splitlines()
    assert tail == [f"line {i}" for i in range(10, 30)]
