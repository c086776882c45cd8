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
  10^6 shots;
- internal arrays of the block-streamed kernels on ``rotating_family``
  drives at d = 2, 3, 4 and 8, on grids of several blocks: the unitaries of
  ``propagate``, ``final_unitaries`` of the three derivative drives (one
  batched step loop), ``generator_integral`` streamed and over a
  given propagator, the numeric ``spectral_gap_integral``, ``exp_skew_batch`` on
  a stack whose theta = |s| ||A||_F crosses the Taylor cap (0.05),
  ``operators.sandwich``, the values and vectors of the numeric
  ``track_eigenbasis`` and the matrices ``synthesize_cd`` forms from them.
  The tracker's bits do not depend on the block length, so the numeric
  control path is held to the byte as the kernels are;
- every built-in time callback at a scalar time and at a short time array,
  which holds the scalar-or-array time convention: both estimands'
  ``hamiltonian`` and ``d_param_h``, the frequency ``analytic_cd``, the
  ``sigma_y_removal_frame`` unitary and connection, a
  ``transform_hamiltonian`` drive, ``closed_form_transformed_drive`` and the
  grid Hamiltonian that ``synthesize_cd`` returns;
- the controlled drive ``build_controlled_drive(...).hamiltonian`` at the
  same short time array, with nonzero phase rates f_k, whose control adds
  sum_k f_k P_k: the amplitude estimand (numeric synthesis from the
  closed-form basis) and ``rotating_family`` at d = 3 (numeric tracking).

Only names that qfisher has long exported, and ``operators.sandwich``, are
used, so older trees run it.
One run takes about ten seconds on one core of a 2-core x86-64 host.
"""

import os

# One BLAS thread, as in the benchmark.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import functools  # noqa: E402
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
from qfisher.fisher import generator_integral, spectral_gap_integral  # noqa: E402
from qfisher.operators import exp_skew_batch, sandwich  # noqa: E402
from qfisher.propagation import TimeGrid, final_unitaries, propagate  # noqa: E402
from qfisher.scenarios import execute_scenario, render_csv, render_json, run_scenario  # noqa: E402
from tracer import NullTracer  # noqa: E402
from workloads import WORKLOADS, _digest, _family_params, rotating_family, run_task  # noqa: E402

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
# Steps of the internal-array grids: more than 2^16 / d^2 points, so each
# grid spans several blocks at any block length up to 2^16 entries.
ARRAY_STEPS = {2: 17_000, 3: 8_000, 4: 5_000, 8: 2_500}
# Times of the callback digests: one scalar, and a short array inside the
# 2.0-long grid of the synthesized control.
CALLBACK_TIME = 0.7
CALLBACK_TIMES = np.array([0.0, 0.35, 0.7, 1.3, 2.0])


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


def array_digests(out: dict) -> None:
    for dim, steps in ARRAY_STEPS.items():
        p = _family_params(np.random.default_rng(dim), dim)
        model, g = rotating_family(p), p["g"]
        grid = TimeGrid(t_end=p["T"], steps=steps)
        drive = functools.partial(model.hamiltonian, g)
        prop = propagate(drive, grid)
        key = f"array/d{dim}"
        out[f"{key}/propagate"] = _digest(prop.unitaries)
        # The drives at g, g + eps and g - eps that derivative_generators
        # runs in one batched loop.
        eps = 1e-5 * max(1.0, abs(g))
        drives = [functools.partial(model.hamiltonian, gv) for gv in (g, g + eps, g - eps)]
        out[f"{key}/final_unitaries"] = _digest(final_unitaries(drives, grid))
        out[f"{key}/generator_integral"] = _digest(generator_integral(model, g, drive, grid))
        out[f"{key}/generator_integral_given"] = _digest(
            generator_integral(model, g, drive, grid, propagator=prop)
        )
        gap = spectral_gap_integral(model, g, grid)
        out[f"{key}/spectral_gap_integral"] = _digest(np.array(gap))
        # theta from 1e-4 to 1 across the stack, the Taylor cap in between.
        mats = drive(grid.midpoints)
        scale = np.geomspace(1e-4, 1.0, steps) / np.linalg.norm(mats, axis=(1, 2))
        out[f"{key}/exp_skew_batch"] = _digest(exp_skew_batch(mats * scale[:, None, None], 1.0))
        out[f"{key}/sandwich"] = _digest(sandwich(prop.unitaries, model.d_param_h(g, grid.points)))
        basis = qfisher.track_eigenbasis(model, g, grid)
        out[f"{key}/track_eigenbasis/values"] = _digest(basis.values)
        out[f"{key}/track_eigenbasis/vectors"] = _digest(basis.vectors)
        out[f"{key}/synthesize_cd"] = _digest(qfisher.synthesize_cd(basis).matrices)


def callback_digests(out: dict) -> None:
    freq = qfisher.make_rotating_qubit(qfisher.RotatingFieldConfig(B=1.3, omega=0.9))
    amp = qfisher.make_rotating_qubit(
        qfisher.RotatingFieldConfig(B=1.3, omega=0.9, estimand=qfisher.Estimand.AMPLITUDE)
    )
    frame = qfisher.sigma_y_removal_frame(1.1)
    basis = qfisher.track_eigenbasis(freq, 0.9, TimeGrid(t_end=2.0, steps=200))
    callbacks = {
        "frequency/hamiltonian": functools.partial(freq.hamiltonian, 0.9),
        "frequency/d_param_h": functools.partial(freq.d_param_h, 0.9),
        "frequency/analytic_cd": functools.partial(freq.analytic_cd, 1.1),
        "amplitude/hamiltonian": functools.partial(amp.hamiltonian, 1.3),
        "amplitude/d_param_h": functools.partial(amp.d_param_h, 1.3),
        "frame/unitary": frame.unitary,
        "frame/connection": frame.connection,
        "transform_hamiltonian": qfisher.transform_hamiltonian(
            functools.partial(freq.hamiltonian, 0.9), frame
        ),
        "closed_form_transformed_drive": qfisher.closed_form_transformed_drive(1.3, 0.9, 1.1),
        "synthesize_cd": qfisher.synthesize_cd(basis),
    }
    for name, callback in callbacks.items():
        out[f"callback/{name}/scalar"] = _digest(callback(CALLBACK_TIME))
        out[f"callback/{name}/array"] = _digest(callback(CALLBACK_TIMES))


def phase_rate_digests(out: dict) -> None:
    amp = qfisher.make_rotating_qubit(
        qfisher.RotatingFieldConfig(B=1.3, omega=0.9, estimand=qfisher.Estimand.AMPLITUDE)
    )
    p = _family_params(np.random.default_rng(3), 3)
    cases = {
        "amplitude": (amp, 1.3, 1.25, (lambda t: 0.3 * np.sin(t), lambda t: -0.2)),
        "rotating_family/d3": (
            rotating_family(p),
            p["g"],
            p["g"] + 0.05,
            (lambda t: 0.1 * t, lambda t: -0.4, lambda t: 0.25 * np.cos(t)),
        ),
    }
    grid = TimeGrid(t_end=2.0, steps=200)  # the grid of callback_digests' basis
    for name, (model, g, g_c, f_k) in cases.items():
        config = qfisher.ControlConfig(g_c=g_c, f_k=f_k)
        drive = qfisher.build_controlled_drive(model, g, config, grid)
        out[f"phase_rates/{name}"] = _digest(drive.hamiltonian(CALLBACK_TIMES))


def main() -> int:
    print(f"fingerprinting qfisher from {Path(qfisher.__file__).parent}", file=sys.stderr)
    out: dict[str, str] = {}
    goldens = golden_configs()
    for name, cfg_text in {**goldens, **SCENARIOS}.items():
        table_digests(name, cfg_text, out)
    adaptive_sidecar_digests(goldens["adaptive_run"], out)
    task_digests(out)
    shot_digests(out)
    array_digests(out)
    callback_digests(out)
    phase_rate_digests(out)
    print(json.dumps(out, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
