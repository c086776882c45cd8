"""Record one point of the benchmark trajectory as ``BENCH_<n>.json``.

    python3 tools/bench_record.py N

Runs the benchmark command of ``BENCHMARK.json`` (``perfbench/run.py``) on
every workload it declares, once untraced (the end-to-end metrics) and once
traced (the per-layer metrics), from the repository root, and writes
``BENCH_<N>.json`` there. Every point of the trajectory is recorded with the
same seed, ``SEED``, and the run length ``run_seconds`` of ``BENCHMARK.json``,
so any two files compare. Per workload the file holds the seed, the run
length, both result lines and the environment block of the untraced run's
report. A run that exits non-zero or prints no result stops the script
with an error that names the workload and quotes the run's stderr, before
anything is written. Each workload takes about two run lengths.
"""

import argparse
import json
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7


def run_once(command: list, workload: str, seed: int, seconds: float, trace: int):
    """The (result line, report) of one benchmark run. A run that exits
    non-zero, prints no report line before its last line, or whose report
    or result is not JSON raises RuntimeError naming the workload, the trace
    flag, the exit code and the last lines of the run's stderr."""
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(
        command + args + ["--trace", str(trace)], cwd=ROOT, capture_output=True, text=True
    )

    def failure(why: str) -> RuntimeError:
        tail = "\n".join(done.stderr.splitlines()[-20:])
        return RuntimeError(
            f"{workload} --trace {trace}: {why} (exit code {done.returncode})\n"
            f"stderr tail:\n{tail}"
        )

    if done.returncode != 0:
        raise failure("the run failed")
    lines = done.stdout.splitlines()
    if len(lines) < 2 or not lines[-2].startswith("# "):
        raise failure(f"no report line before the result; stdout:\n{done.stdout}")
    try:
        return json.loads(lines[-1]), json.loads(lines[-2][2:])
    except json.JSONDecodeError as exc:
        raise failure(f"the report or result is not JSON ({exc})") from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("n", type=int, help="index of the BENCH_<n>.json to write")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = {}
    for workload in (w["name"] for w in spec["workloads"]):
        untraced, report = run_once(spec["command"], workload, SEED, seconds, 0)
        traced, _ = run_once(spec["command"], workload, SEED, seconds, 1)
        workloads[workload] = {
            "seed": SEED,
            "seconds": seconds,
            "untraced": untraced,
            "traced": traced,
            "env": report["env"],
        }
    path = ROOT / f"BENCH_{args.n}.json"
    path.write_text(json.dumps({"workloads": workloads}, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
