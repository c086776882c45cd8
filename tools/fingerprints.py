"""Print sha256 digests of every number qfisher reports, as one JSON object.

    PYTHONPATH=src python tools/fingerprints.py > fingerprints.json

qfisher is imported from whatever ``PYTHONPATH`` names, so the same script
can fingerprint two trees: point it at an older ``src/`` and at the current
one and diff the two outputs. Any difference is a moved number or byte. The
digests cover:

- the CSV and JSON bodies of the five golden configs, of AppendixADemo,
  ExpansionFit and FrameInvariance at omega_c = 2;
- the adaptive trace of the AdaptiveRun sidecar, at the golden seed and at
  seeds 0-3;
- the ``run_task`` digest of every adaptive-short-grid task and of the frame
  and appendix tasks of qubit-long-grid, for one cycle at each of seeds 0-3
  (``perfbench/workloads.py``, cycles drawn as ``perfbench/run.py`` does);
- ``sample_shots`` outcomes and the generator's next draw at 1, 65,537 and
  10^6 shots.

Only names that qfisher has long exported are used, so older trees run it.
One run takes about ten seconds on one core of a 2-core x86-64 host.
"""

import os

# One BLAS thread, as in the benchmark.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from importlib import resources  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import qfisher  # noqa: E402
from qfisher.config import parse_config_text  # noqa: E402
from qfisher.estimation import MeasurementSetup, sample_shots  # noqa: E402
from qfisher.scenarios import execute_scenario, render_csv, render_json, run_scenario  # noqa: E402
from tracer import NullTracer  # noqa: E402
from workloads import WORKLOADS, _digest, run_task  # noqa: E402

SCENARIOS = {
    "appendix_demo": "scenario = AppendixADemo\nB = 1\nomega = 1\ndelta_omega = 0.02\n",
    "expansion_fit": (
        "scenario = ExpansionFit\nB = 1\nomega = 1\nT = 2\n"
        "delta_grid = -0.04,-0.02,0,0.02,0.04\n"
    ),
    "frame_invariance_wc2": "scenario = FrameInvariance\nB = 1\nomega_c = 2\n",
}
TASK_SEEDS = range(4)
# Tasks of each workload whose digests are taken (None: every task).
TASK_KINDS = {"adaptive-short-grid": None, "qubit-long-grid": ("frame", "appendix")}
SHOT_COUNTS = (1, 65_537, 10**6)


def table_digests(name: str, cfg_text: str, out: dict) -> None:
    columns, rows, comments, _ = execute_scenario(parse_config_text(cfg_text, source=name))
    out[f"table/{name}.csv"] = _digest(render_csv(columns, rows, comments))
    out[f"table/{name}.json"] = _digest(render_json(columns, rows))


def golden_configs() -> dict[str, str]:
    golden_dir = resources.files("qfisher") / "goldens"
    manifest = json.loads((golden_dir / "manifest.json").read_text(encoding="utf-8"))
    return {
        entry["name"]: (golden_dir / entry["config"]).read_text(encoding="utf-8")
        for entry in manifest["goldens"]
    }


def adaptive_sidecar_digests(cfg_text: str, out: dict) -> None:
    cfg = parse_config_text(cfg_text, source="adaptive_run")
    with tempfile.TemporaryDirectory() as tmp:
        for seed in (None, *TASK_SEEDS):
            result = run_scenario(cfg, out_dir=tmp, seed_override=seed)
            sidecar = json.loads(Path(result["sidecar_path"]).read_text(encoding="utf-8"))
            trace = json.dumps(sidecar["trace"], sort_keys=True)
            label = "golden" if seed is None else f"seed{seed}"
            out[f"sidecar/adaptive_run/{label}"] = _digest(trace)


def task_digests(out: dict) -> None:
    for workload, kinds in TASK_KINDS.items():
        for seed in TASK_SEEDS:
            tasks = WORKLOADS[workload](np.random.default_rng(seed))
            for i, task in enumerate(tasks):
                if kinds is None or task.kind in kinds:
                    result = run_task(task, NullTracer())
                    out[f"task/{workload}/seed{seed}/{i:02d}-{task.kind}"] = result.digest


def shot_digests(out: dict) -> None:
    # A qutrit with all three outcomes likely: |+>, |-> = (e0 +- e1)/sqrt(2).
    plus = np.array([1.0, 1.0, 0.0], dtype=complex) / np.sqrt(2.0)
    minus = np.array([1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0)
    observable = np.outer(plus, plus.conj()) - np.outer(minus, minus.conj())
    psi = np.array([0.8, 0.36, 0.48j], dtype=complex)
    for shots in SHOT_COUNTS:
        setup = MeasurementSetup(
            observable=observable, plus_state=plus, minus_state=minus, shots=shots
        )
        rng = np.random.default_rng(shots)
        outcomes = sample_shots(psi, setup, rng)
        out[f"sample_shots/{shots}"] = _digest(outcomes, np.array(rng.random()))


def main() -> int:
    print(f"fingerprinting qfisher from {Path(qfisher.__file__).parent}", file=sys.stderr)
    out: dict[str, str] = {}
    goldens = golden_configs()
    for name, cfg_text in {**goldens, **SCENARIOS}.items():
        table_digests(name, cfg_text, out)
    adaptive_sidecar_digests(goldens["adaptive_run"], out)
    task_digests(out)
    shot_digests(out)
    print(json.dumps(out, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
