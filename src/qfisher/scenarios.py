"""Named experiment scenarios behind the CLI: each one runs a sweep or a
single study, writes a CSV results table (or JSON) plus a JSON metadata
sidecar, and is deterministic for a fixed config and seed.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .config import Scenario, ScenarioConfig
from .control import ControlConfig, build_controlled_drive, expand_generator
from .estimation import adaptive_estimate
from .fisher import generator_integral, optimal_qfi, upper_bound_qfi
from .frames import (
    appendix_a_distinction,
    closed_form_transformed_drive,
    fisher_invariance_check,
    boundary_times,
    sigma_y_removal_frame,
    transform_hamiltonian,
)
from .models import RotatingFieldConfig, make_rotating_qubit
from .operators import pauli_components
from .propagation import TimeGrid


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _steps_for(cfg: ScenarioConfig, t_end: float, per_unit_time: int) -> int:
    configured = cfg.get("steps")
    if configured is not None:
        return int(configured)
    return max(1000, int(math.ceil(per_unit_time * t_end)))


def _run_upper_bound_sweep(cfg: ScenarioConfig):
    omega = cfg["omega"]
    points = [(b, t) for b in cfg["B"] for t in cfg["T"]]

    def point(bt):
        b_field, t_end = bt
        model = make_rotating_qubit(RotatingFieldConfig(B=b_field, omega=omega))
        grid = TimeGrid(t_end=t_end, steps=_steps_for(cfg, t_end, 400))
        bound = upper_bound_qfi(model, omega, grid)
        closed = b_field * b_field * t_end**4
        return {
            "B": b_field,
            "T": t_end,
            "upper_bound_qfi": bound,
            "closed_form_b2t4": closed,
            "rel_error": abs(bound - closed) / closed,
        }

    rows = [point(bt) for bt in points]
    comments = [
        "frequency-estimation upper bound sweep over (B, T)",
        "columns: B field amplitude; T duration; upper_bound_qfi squared gap "
        "integral of dH/dw; closed_form_b2t4 = B^2 T^4; rel_error relative "
        "deviation",
    ]
    return ["B", "T", "upper_bound_qfi", "closed_form_b2t4", "rel_error"], rows, comments, None


def _run_no_control_sweep(cfg: ScenarioConfig):
    b_field, omega = cfg["B"], cfg["omega"]
    model = make_rotating_qubit(RotatingFieldConfig(B=b_field, omega=omega))

    def point(t_end):
        grid = TimeGrid(t_end=t_end, steps=_steps_for(cfg, t_end, 400))
        h_gen = generator_integral(
            model, omega, lambda t: model.hamiltonian(omega, t), grid
        )
        qfi, _ = optimal_qfi(h_gen)
        asymptote = 4.0 * b_field**2 * t_end**2 / (4.0 * b_field**2 + omega**2)
        return {
            "T": t_end,
            "optimal_qfi": qfi,
            "asymptote": asymptote,
            "ratio": qfi / asymptote,
        }

    rows = [point(t_end) for t_end in cfg["T"]]
    comments = [
        "optimal QFI of the uncontrolled rotating drive vs its long-time "
        "asymptote 4 B^2 T^2 / (4 B^2 + w^2)",
        "columns: T duration; optimal_qfi; asymptote; ratio = optimal_qfi/asymptote",
    ]
    return ["T", "optimal_qfi", "asymptote", "ratio"], rows, comments, None


def _run_controlled_qfi(cfg: ScenarioConfig):
    omega, delta_omega = cfg["omega"], cfg["delta_omega"]
    points = [(b, t) for b in cfg["B"] for t in cfg["T"]]

    def point(bt):
        b_field, t_end = bt
        model = make_rotating_qubit(RotatingFieldConfig(B=b_field, omega=omega))
        grid = TimeGrid(t_end=t_end, steps=_steps_for(cfg, t_end, 1000))
        drive = build_controlled_drive(
            model, omega, ControlConfig(g_c=omega + delta_omega), grid
        )
        h_gen = generator_integral(model, omega, drive.hamiltonian, grid)
        qfi, _ = optimal_qfi(h_gen)
        bound = upper_bound_qfi(model, omega, grid)
        return {
            "B": b_field,
            "T": t_end,
            "optimal_qfi": qfi,
            "upper_bound_qfi": bound,
            "saturation": qfi / bound,
            "closed_form_b2t4": b_field * b_field * t_end**4,
        }

    rows = [point(bt) for bt in points]
    comments = [
        "optimal QFI of the controlled drive designed at w_c = w + delta_omega",
        "columns: B; T; optimal_qfi; upper_bound_qfi; saturation = "
        "optimal/upper bound; closed_form_b2t4 = B^2 T^4",
    ]
    return (
        ["B", "T", "optimal_qfi", "upper_bound_qfi", "saturation", "closed_form_b2t4"],
        rows,
        comments,
        None,
    )


def _run_expansion_fit(cfg: ScenarioConfig):
    b_field, omega, t_end = cfg["B"], cfg["omega"], cfg["T"]
    model = make_rotating_qubit(RotatingFieldConfig(B=b_field, omega=omega))
    grid = TimeGrid(t_end=t_end, steps=_steps_for(cfg, t_end, 2000))
    fit = expand_generator(model, omega, grid, cfg["delta_grid"])
    closed = {
        ("z", 0): -b_field * t_end**2 / 2.0,
        ("x", 1): -b_field * t_end**3 / 3.0,
    }
    rows = []
    for a, name in enumerate(("I", "x", "y", "z")):
        for order in range(fit.degree + 1):
            ref = closed.get((name, order))
            rows.append(
                {
                    "component": name,
                    "order": order,
                    "coefficient": float(fit.coefficients[a][order]),
                    "stderr": float(fit.stderr[a][order]),
                    "closed_form": float("nan") if ref is None else ref,
                }
            )
    # Quadratic responses of the extreme eigenvalue and of the optimal QFI.
    tau_fit = np.polynomial.polynomial.polyfit(fit.deltas, fit.tau_max, 2)
    qfi_fit = np.polynomial.polynomial.polyfit(fit.deltas, fit.optimal_qfi, 2)
    rows.append(
        {
            "component": "tau_max",
            "order": 2,
            "coefficient": float(tau_fit[2]),
            "stderr": float("nan"),
            "closed_form": -b_field * t_end**4 / 72.0,
        }
    )
    rows.append(
        {
            "component": "optimal_qfi",
            "order": 2,
            "coefficient": float(qfi_fit[2]),
            "stderr": float("nan"),
            "closed_form": -(b_field**2) * t_end**6 / 18.0,
        }
    )
    comments = [
        "polynomial fit of the controlled-drive generator in the control "
        "mismatch delta = w_c - w",
        "columns: component Pauli/derived quantity; order polynomial order in "
        "delta; coefficient; stderr fit standard error; closed_form known "
        "closed-form value (nan if none)",
    ]
    return ["component", "order", "coefficient", "stderr", "closed_form"], rows, comments, None


def _run_frame_invariance(cfg: ScenarioConfig):
    b_field, omega_c = cfg["B"], cfg["omega_c"]
    delta_omega, n_periods = cfg["delta_omega"], cfg["n_periods"]
    omega = omega_c - delta_omega
    t_end = boundary_times(omega_c, n_periods)
    model = make_rotating_qubit(RotatingFieldConfig(B=b_field, omega=omega))
    grid = TimeGrid(t_end=t_end, steps=_steps_for(cfg, t_end, 2000))
    frame = sigma_y_removal_frame(omega_c)
    drive = build_controlled_drive(model, omega, ControlConfig(g_c=omega_c), grid)
    report = fisher_invariance_check(model, omega, drive.family, frame, grid)
    transformed = transform_hamiltonian(drive.hamiltonian, frame)
    closed = closed_form_transformed_drive(b_field, omega, omega_c)
    sample = grid.points[:: max(1, grid.steps // 512)]
    mats = transformed(sample)
    closed_mats = closed(sample)
    closed_diff = float(np.max(np.abs(mats - closed_mats)))
    sy_max = float(np.max(np.abs(pauli_components(mats)[2])))
    row = {
        "T": t_end,
        "generator_rel_diff": report.generator_rel_diff,
        "generator_sq_rel_diff": report.generator_sq_rel_diff,
        "optimal_qfi": report.optimal_qfi,
        "optimal_qfi_transformed": report.optimal_qfi_transformed,
        "optimal_rel_diff": report.optimal_rel_diff,
        "closed_form_max_diff": closed_diff,
        "sigma_y_max_component": sy_max,
        "frame_boundary_deviation": frame.boundary_deviation(t_end),
    }
    comments = [
        "Fisher invariance under the sigma_y-removal frame at a boundary time",
        "columns: T duration; generator_rel_diff / generator_sq_rel_diff "
        "relative generator differences; optimal QFI before/after transform "
        "and relative difference; closed_form_max_diff pointwise deviation of "
        "the transformed drive from its closed form; sigma_y_max_component "
        "largest residual sigma_y coefficient; frame_boundary_deviation "
        "||G(T) - I||",
    ]
    return list(row.keys()), [row], comments, None


def _run_adaptive(cfg: ScenarioConfig):
    b_field, omega = cfg["B"], cfg["omega"]
    model = make_rotating_qubit(RotatingFieldConfig(B=b_field, omega=omega))
    t_end = cfg["T"]
    grid = TimeGrid(t_end=t_end, steps=_steps_for(cfg, t_end, 1000))
    trace = adaptive_estimate(
        model,
        g_true=omega,
        g_c0=cfg["omega_c0"],
        rounds=cfg["rounds"],
        shots_per_round=cfg["shots"],
        grid=grid,
        rng_seed=cfg["seed"],
        probe_shots=cfg.get("probe_shots"),
    )
    rows = []
    for rec in trace.rounds:
        rows.append(
            {
                "round": rec.round_index,
                "g_c": rec.g_c,
                "sample_mean": rec.sample_mean,
                "abs_offset": rec.abs_offset,
                "sign": rec.sign,
                "raw_estimate": rec.raw_estimate,
                "updated_g_c": rec.updated_g_c,
                "abs_error": abs(rec.updated_g_c - omega),
            }
        )
    comments = [
        "adaptive frequency estimation trace (one row per round)",
        "columns: round index; g_c guess used for the control; sample_mean "
        "of the two-outcome observable; abs_offset inferred |w - g_c|; sign "
        "resolved direction; raw_estimate this round's estimate; updated_g_c "
        "running estimate; abs_error |updated_g_c - w| (diagnostic only)",
        f"final_estimate={trace.final_estimate:.17g}",
        f"crb_variance={trace.crb_variance:.17g}",
    ]
    columns = [
        "round",
        "g_c",
        "sample_mean",
        "abs_offset",
        "sign",
        "raw_estimate",
        "updated_g_c",
        "abs_error",
    ]
    return columns, rows, comments, trace


def _run_appendix_demo(cfg: ScenarioConfig):
    report = appendix_a_distinction(
        cfg["B"],
        cfg["omega"],
        cfg["delta_omega"],
        n_periods=cfg["n_periods"],
        steps=cfg.get("steps"),
    )
    row = {
        "boundary_time": report.boundary_time,
        "formal_unitary_max_diff": report.formal_unitary_max_diff,
        "formal_probability_max_diff": report.formal_probability_max_diff,
        "interior_max_deficit": report.interior_max_deficit,
        "endpoint_state_diff": report.endpoint_state_diff,
        "optimal_qfi": report.optimal_qfi,
        "optimal_qfi_transformed": report.optimal_qfi_transformed,
        "optimal_rel_diff": report.optimal_rel_diff,
    }
    comments = [
        "formal picture change vs physical frame transform on the rotating "
        "qubit",
        "columns: boundary_time duration of the physical comparison; "
        "formal_* agreement of the picture-mapped static evolution with the "
        "rotating drive; interior_max_deficit max interior fidelity deficit "
        "between drive and transformed drive; endpoint_state_diff state "
        "difference at the boundary time; optimal QFI before/after transform",
    ]
    return list(row.keys()), [row], comments, None


# Each runner returns (columns, rows, comments, extra); extra is the
# adaptive trace for AdaptiveRun and None elsewhere.
_RUNNERS = {
    Scenario.UPPER_BOUND_SWEEP: _run_upper_bound_sweep,
    Scenario.NO_CONTROL_SWEEP: _run_no_control_sweep,
    Scenario.CONTROLLED_QFI: _run_controlled_qfi,
    Scenario.EXPANSION_FIT: _run_expansion_fit,
    Scenario.FRAME_INVARIANCE: _run_frame_invariance,
    Scenario.ADAPTIVE_RUN: _run_adaptive,
    Scenario.APPENDIX_A_DEMO: _run_appendix_demo,
}


def execute_scenario(cfg: ScenarioConfig):
    """Compute a scenario's result table: (columns, rows, comments, extra)."""
    return _RUNNERS[cfg.scenario](cfg)


def render_csv(columns: Sequence[str], rows: Sequence[dict], comments: Sequence[str]) -> str:
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def render_json(columns: Sequence[str], rows: Sequence[dict]) -> str:
    payload = [{c: row[c] for c in columns} for row in rows]
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def run_scenario(
    cfg: ScenarioConfig,
    out_dir: str | Path | None = None,
    fmt: str | None = None,
    seed_override: int | None = None,
    basename: str | None = None,
) -> dict:
    """Run a scenario and write its results table plus a JSON sidecar.

    Returns a dict with the written paths and the rendered table text. The
    table body is byte-identical across runs for a fixed config and seed;
    only the sidecar carries timing.
    """
    if seed_override is not None:
        values = dict(cfg.values)
        values["seed"] = int(seed_override)
        cfg = ScenarioConfig(scenario=cfg.scenario, values=values)
    fmt = fmt or cfg.get("format") or "csv"
    out_dir = Path(out_dir or cfg.get("out") or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    name = basename or cfg.scenario.value.lower()

    started = time.time()
    columns, rows, comments, extra = execute_scenario(cfg)
    elapsed = time.time() - started

    if fmt == "csv":
        table_path = out_dir / f"{name}.csv"
        text = render_csv(columns, rows, comments)
    else:
        table_path = out_dir / f"{name}.json"
        text = render_json(columns, rows)
    table_path.write_text(text, encoding="utf-8")

    sidecar = {
        "scenario": cfg.scenario.value,
        "config": {k: v for k, v in sorted(cfg.values.items())},
        "version": __version__,
        "seed": cfg.get("seed"),
        "wall_time_s": elapsed,
        "format": fmt,
        "table": table_path.name,
    }
    if extra is not None:
        sidecar["trace"] = json.loads(extra.to_json())
    sidecar_path = out_dir / f"{name}.meta.json"
    sidecar_path.write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return {
        "table_path": table_path,
        "sidecar_path": sidecar_path,
        "columns": columns,
        "rows": rows,
        "text": text,
    }
