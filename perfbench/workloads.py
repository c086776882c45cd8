"""Seeded workloads for the qfisher benchmark.

A workload is a cycle of tasks; every task is one unit of user work that ends
in a reference check. ``cycle(rng, tiny)`` draws one cycle's inputs from the
seeded generator. The task sizes of a cycle are fixed, so every cycle has the
same composition and per-cycle counts do not depend on timing; the physical
parameters are drawn fresh for every cycle, so no two tasks of a run share
inputs.

Every call into a public qfisher function is wrapped in a span named
``<module>.<function>``. Spans flagged as probes run only in the traced mode:
they repeat, on the same inputs, work that an end-to-end call does
internally, so that the inner layer gets its own timing.
"""

from __future__ import annotations

import hashlib
import warnings
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from qfisher import (
    ControlConfig,
    Estimand,
    ParametricModel,
    RotatingFieldConfig,
    TimeGrid,
    adaptive_estimate,
    appendix_a_distinction,
    boundary_times,
    build_controlled_drive,
    build_observable,
    fisher_invariance_check,
    generator_derivative,
    generator_integral,
    make_rotating_qubit,
    optimal_qfi,
    propagate,
    sample_shots,
    sigma_y_removal_frame,
    synthesize_cd,
    track_eigenbasis,
    transform_hamiltonian,
    upper_bound_qfi,
)
from qfisher.operators import exp_skew_batch
from qfisher.propagation import eval_hamiltonian_batch

# Reference tolerances, as in tests/test_acceptance.py.
SATURATION_TOL = 1e-4
BOUND_TOL = 1e-6
ASYMPTOTE_WINDOW = (0.95, 1.05)
FRAME_TOL = 1e-5
ENDPOINT_TOL = 1e-6
ADAPTIVE_SIGMAS = 5.0

COMPLEX_BYTES = 16
GENERIC_STEPS = (2_000, 4_000, 8_000)
ADAPTIVE_ROUNDS = 5


@dataclass(frozen=True)
class Task:
    kind: str
    steps: int
    dim: int
    params: dict = field(compare=False)

    @property
    def stack_bytes(self) -> int:
        """Computed size of one full (steps+1, d, d) propagator stack."""
        return (self.steps + 1) * self.dim * self.dim * COMPLEX_BYTES


@dataclass
class TaskResult:
    digest: str
    ok: bool
    detail: str
    counts: Counter


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, str):
            h.update(part.encode())
        else:
            arr = np.ascontiguousarray(np.asarray(part))
            h.update(str(arr.shape).encode())
            h.update(arr.tobytes())
    return h.hexdigest()


def _propagate(drive, grid: TimeGrid, dim: int, tr, counts: Counter):
    """``propagate`` with its evaluation and exponential layers probed."""
    if tr.enabled:
        with tr.span("models.eval", probe=True):
            mids = eval_hamiltonian_batch(drive, grid.midpoints)
        with tr.span("operators.exp_skew_batch", probe=True):
            exp_skew_batch(mids, grid.dt)
    with tr.span("propagation.propagate"):
        prop = propagate(drive, grid)
    counts["propagation.calls"] += 1
    counts["propagation.steps"] += grid.steps
    counts["propagation.stack_bytes"] += (grid.steps + 1) * dim * dim * COMPLEX_BYTES
    counts["models.eval_points"] += grid.steps
    counts["operators.exp_matrices"] += grid.steps
    return prop


def _saturation_chain(model, g: float, grid: TimeGrid, dim: int, tr, counts: Counter):
    """The controlled-QFI call chain of the README's library sketch."""
    with tr.span("control.build_controlled_drive"):
        drive = build_controlled_drive(model, g, ControlConfig(g_c=g), grid)
    prop = _propagate(drive.hamiltonian, grid, dim, tr, counts)
    with tr.span("fisher.generator_integral"):
        h_gen = generator_integral(model, g, drive.hamiltonian, grid, propagator=prop)
    with tr.span("fisher.optimal_qfi"):
        qfi, psi = optimal_qfi(h_gen)
    with tr.span("fisher.upper_bound_qfi"):
        bound = upper_bound_qfi(model, g, grid)
    return h_gen, qfi, psi, bound


def _check(conditions: dict[str, bool], values: str) -> tuple[bool, str]:
    missed = [name for name, ok in conditions.items() if not ok]
    return not missed, ("missed " + ", ".join(missed) + ": " if missed else "") + values


# --- qubit-long-grid -------------------------------------------------------


def run_saturation(task: Task, tr) -> TaskResult:
    p, counts = task.params, Counter()
    with tr.span("models.make_rotating_qubit"):
        model = make_rotating_qubit(RotatingFieldConfig(B=p["B"], omega=p["omega"]))
    grid = TimeGrid(t_end=p["T"], steps=task.steps)
    h_gen, qfi, psi, bound = _saturation_chain(model, p["omega"], grid, 2, tr, counts)
    closed = p["B"] ** 2 * p["T"] ** 4
    sat, dev = qfi / bound - 1.0, bound / closed - 1.0
    ok, detail = _check(
        {"saturation": abs(sat) <= SATURATION_TOL, "bound": abs(dev) <= BOUND_TOL},
        f"optimal/bound-1={sat:.2e} bound/B^2T^4-1={dev:.2e}",
    )
    return TaskResult(_digest(h_gen, qfi, psi, bound), ok, detail, counts)


def run_uncontrolled(task: Task, tr) -> TaskResult:
    p, counts = task.params, Counter()
    b_field, omega, t_end = p["B"], p["omega"], p["T"]
    with tr.span("models.make_rotating_qubit"):
        model = make_rotating_qubit(RotatingFieldConfig(B=b_field, omega=omega))
    grid = TimeGrid(t_end=t_end, steps=task.steps)

    def plain(t):
        return model.hamiltonian(omega, t)

    prop = _propagate(plain, grid, 2, tr, counts)
    with tr.span("fisher.generator_integral"):
        h_gen = generator_integral(model, omega, plain, grid, propagator=prop)
    with tr.span("fisher.optimal_qfi"):
        qfi, psi = optimal_qfi(h_gen)
    if tr.enabled:
        with tr.span("fisher.generator_derivative", probe=True):
            generator_derivative(model, omega, model.hamiltonian, grid)
    ratio = qfi / (4.0 * b_field**2 * t_end**2 / (4.0 * b_field**2 + omega**2))
    lo, hi = ASYMPTOTE_WINDOW
    ok, detail = _check({"asymptote": lo <= ratio <= hi}, f"ratio={ratio:.4f}")
    return TaskResult(_digest(h_gen, qfi, psi), ok, detail, counts)


def run_frame(task: Task, tr) -> TaskResult:
    p, counts = task.params, Counter()
    omega_c = p["omega_c"]
    omega = omega_c - p["delta"]
    with tr.span("models.make_rotating_qubit"):
        model = make_rotating_qubit(RotatingFieldConfig(B=p["B"], omega=omega))
    with tr.span("frames.boundary_times"):
        t_end = boundary_times(omega_c, 1)
    grid = TimeGrid(t_end=t_end, steps=task.steps)
    with tr.span("frames.sigma_y_removal_frame"):
        frame = sigma_y_removal_frame(omega_c)

    def family(gv, t):
        return build_controlled_drive(model, gv, ControlConfig(g_c=omega_c), grid).hamiltonian(t)

    with tr.span("frames.fisher_invariance_check"):
        report = fisher_invariance_check(model, omega, family, frame, grid)
    counts["fisher.derivative_propagations"] += 6
    if tr.enabled:
        with tr.span("frames.transform_eval", probe=True):
            transform_hamiltonian(lambda t: family(omega, t), frame)(grid.points)
    ok, detail = _check(
        {"invariance": report.optimal_rel_diff <= FRAME_TOL},
        f"optimal_rel_diff={report.optimal_rel_diff:.2e}",
    )
    digest = _digest(np.array([getattr(report, f) for f in report.__dataclass_fields__]))
    return TaskResult(digest, ok, detail, counts)


def run_appendix(task: Task, tr) -> TaskResult:
    p, counts = task.params, Counter()
    with tr.span("frames.appendix_a_distinction"):
        report = appendix_a_distinction(
            p["B"], p["omega"], p["delta"], n_periods=1, steps=task.steps
        )
    counts["fisher.derivative_propagations"] += 6
    ok, detail = _check(
        {"endpoint": report.endpoint_state_diff <= ENDPOINT_TOL},
        f"endpoint_state_diff={report.endpoint_state_diff:.2e}",
    )
    digest = _digest(np.array([getattr(report, f) for f in report.__dataclass_fields__]))
    return TaskResult(digest, ok, detail, counts)


def qubit_cycle(rng: np.random.Generator, tiny: bool = False) -> list[Task]:
    """Rotating-field qubit, frequency estimand, grids from 10k to 400k steps.

    The 10k- and 20k-step tasks, whose stacks fit a core's L2, come four and
    two to a cycle and set the median; the 100k- to 400k-step tasks, whose
    stacks only the L3 holds, set the tail and most of the time.
    """
    ladder = [2_000, 4_000] if tiny else [10_000] * 4 + [20_000] * 2 + [
        50_000, 100_000, 200_000, 400_000]
    tasks = [
        Task("saturation", steps, 2, {
            "B": rng.uniform(0.5, 2.0), "omega": rng.uniform(0.5, 2.0),
            "T": rng.uniform(1.0, 4.0)})
        for steps in ladder
    ]
    for _ in range(1 if tiny else 2):
        tasks.append(Task("uncontrolled", 20_000, 2, {
            "B": rng.uniform(0.75, 2.0), "omega": rng.uniform(0.5, 1.5),
            "T": rng.uniform(25.0, 50.0)}))
    tasks.append(Task("frame", 5_000 if tiny else 20_000, 2, {
        "B": rng.uniform(0.5, 2.0), "omega_c": rng.uniform(0.8, 1.25),
        "delta": rng.uniform(0.005, 0.02) * rng.choice([-1.0, 1.0])}))
    tasks.append(Task("appendix", 20_000, 2, {
        "B": rng.uniform(0.5, 1.5), "omega": rng.uniform(0.8, 1.25),
        "delta": rng.uniform(0.05, 0.2)}))
    return tasks


# --- generic-numeric-control ------------------------------------------------


def rotating_family(params: dict) -> ParametricModel:
    """H(g, t) = g R(t) with R(t) = V(t) M V(t)^dag, V(t) = exp(-i w t K) and
    K = Q diag(kappa) Q^dag.

    dH/dg = R(t) is a rigidly rotating eigenframe with the fixed,
    nondegenerate spectrum of M. No closed forms are supplied, so control
    synthesis takes the numeric tracking route. Callbacks are vectorized in t.
    """
    q, m = params["q"], params["m"]
    dkappa = params["kappa"][:, None] - params["kappa"][None, :]
    omega = params["omega"]
    q_dag = q.conj().T

    def rotated(t):
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        mats = q @ (np.exp(-1j * omega * ts[:, None, None] * dkappa) * m) @ q_dag
        return mats[0] if np.ndim(t) == 0 else mats

    return ParametricModel(
        dim=m.shape[0],
        hamiltonian=lambda g, t: g * rotated(t),
        d_param_h=lambda g, t: rotated(t),
    )


def _random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _family_params(rng: np.random.Generator, dim: int) -> dict:
    spectrum = np.cumsum(rng.uniform(0.3, 1.0, size=dim))
    spectrum -= spectrum.mean()
    w = _random_unitary(rng, dim)
    return {
        "q": _random_unitary(rng, dim),
        "m": (w * spectrum) @ w.conj().T,
        "spread": float(spectrum[-1] - spectrum[0]),
        "kappa": rng.uniform(-1.0, 1.0, size=dim),
        "omega": rng.uniform(0.5, 1.5),
        "g": rng.uniform(0.5, 1.5),
        "T": rng.uniform(1.0, 2.0),
    }


def run_generic(task: Task, tr) -> TaskResult:
    p, counts = task.params, Counter()
    model = rotating_family(p)
    g = p["g"]
    grid = TimeGrid(t_end=p["T"], steps=task.steps)
    if tr.enabled:
        with tr.span("control.track_eigenbasis", probe=True):
            basis = track_eigenbasis(model, g, grid)
        with tr.span("control.synthesize_cd", probe=True):
            synthesize_cd(basis)
        if task.steps == GENERIC_STEPS[0]:
            with tr.span("fisher.generator_derivative", probe=True):
                generator_derivative(model, g, model.hamiltonian, grid)
    h_gen, qfi, psi, bound = _saturation_chain(model, g, grid, task.dim, tr, counts)
    counts["control.points_tracked"] += grid.steps + 1
    closed = (p["T"] * p["spread"]) ** 2
    sat, dev = qfi / bound - 1.0, bound / closed - 1.0
    ok, detail = _check(
        {"saturation": abs(sat) <= SATURATION_TOL, "bound": abs(dev) <= BOUND_TOL},
        f"optimal/bound-1={sat:.2e} bound/(T*spread)^2-1={dev:.2e}",
    )
    return TaskResult(_digest(h_gen, qfi, psi, bound), ok, detail, counts)


def generic_cycle(rng: np.random.Generator, tiny: bool = False) -> list[Task]:
    """Seeded d-level families, d in {3, 4, 8}, 2k to 8k steps.

    Task costs sort into blocks: (3, 2k) and (4, 2k), then (4, 4k) and
    (8, 2k) of about equal cost, then (3, 8k), then (4, 8k) and (8, 4k).
    The median falls in the middle of the second block and the p75 in the
    middle of the third, so neither straddles two classes of different cost.
    """
    if tiny:
        plan = [(3, 1_000), (4, 1_000)]
    else:
        s2, s4, s8 = GENERIC_STEPS
        plan = [(3, s2), (3, s2), (4, s2), (4, s2),
                (4, s4), (4, s4), (8, s2), (8, s2),
                (3, s8), (3, s8), (4, s8), (8, s4)]
    return [Task("generic", steps, dim, _family_params(rng, dim)) for dim, steps in plan]


# --- adaptive-short-grid ----------------------------------------------------


def run_adaptive(task: Task, tr) -> TaskResult:
    p, counts = task.params, Counter()
    estimand = Estimand(p["estimand"])
    with tr.span("models.make_rotating_qubit"):
        model = make_rotating_qubit(
            RotatingFieldConfig(B=p["B"], omega=p["omega"], estimand=estimand)
        )
    g_true = p["omega"] if estimand is Estimand.FREQUENCY else p["B"]
    grid = TimeGrid(t_end=p["T"], steps=task.steps)
    shots = p["shots"]
    if tr.enabled:
        _adaptive_round_probe(model, g_true, p["g_c0"], grid, shots, p["rng_seed"], tr)
    with tr.span("estimation.adaptive_estimate"):
        trace = adaptive_estimate(
            model, g_true=g_true, g_c0=p["g_c0"], rounds=ADAPTIVE_ROUNDS,
            shots_per_round=shots, grid=grid, rng_seed=p["rng_seed"],
        )
    probe_rounds = sum(r.probe_g_c is not None for r in trace.rounds)
    counts["estimation.propagations"] += len(trace.rounds) + probe_rounds
    counts["estimation.main_shots"] += trace.total_main_shots
    counts["estimation.shots"] += trace.total_main_shots + trace.total_probe_shots
    error = abs(trace.final_estimate - g_true)
    tol = ADAPTIVE_SIGMAS / (np.sqrt(shots) * trace.gap_integral)
    ok, detail = _check({"final": error <= tol}, f"|final-g|={error:.2e} tol={tol:.2e}")
    return TaskResult(_digest(trace.to_json()), ok, detail, counts)


def _adaptive_round_probe(model, g_true, g_c, grid, shots, seed, tr) -> None:
    """One measurement round at the initial guess, layer by layer."""
    with tr.span("control.build_controlled_drive", probe=True):
        drive = build_controlled_drive(model, g_true, ControlConfig(g_c=g_c), grid)
    if model.analytic_cd is None:
        with tr.span("control.synthesize_cd", probe=True):
            synthesize_cd(drive.basis)
    with tr.span("propagation.propagate", probe=True):
        final = propagate(drive.hamiltonian, grid).final
    psi0 = (drive.basis.vectors[0, :, 0] + drive.basis.vectors[0, :, -1]) / np.sqrt(2.0)
    with tr.span("estimation.build_observable", probe=True):
        setup = build_observable(drive.basis, shots=shots)
    with tr.span("estimation.sample_shots", probe=True):
        sample_shots(final @ psi0, setup, np.random.default_rng(seed))


def adaptive_cycle(rng: np.random.Generator, tiny: bool = False) -> list[Task]:
    """Five-round adaptive estimation on the rotating qubit, both estimands,
    500 to 2000 steps and 1e5 to 1e6 shots per round.

    Sampling cost sorts the tasks into three blocks by shot count: 1e5 and
    3e5 shots at 500, 1000 and 2000 steps, then three 2000-step tasks at
    1e6 shots. The median falls in the middle of the 3e5 block and the p75
    in the middle of the 1e6 block, which holds one class only. Initial
    offsets lie within 0.02 to 0.1 of pi/Gamma, the regime of the
    acceptance suite's adaptive criterion.
    """
    if tiny:
        plan = [(500, 1_000)]
    else:
        plan = [(steps, shots) for shots in (100_000, 300_000) for steps in (500, 1_000, 2_000)]
        plan += [(2_000, 1_000_000)] * 3
    tasks = []
    for estimand in (Estimand.FREQUENCY, Estimand.AMPLITUDE):
        for steps, shots in plan:
            b_field = rng.uniform(0.5, 2.0)
            omega = rng.uniform(0.5, 2.0)
            t_end = rng.uniform(1.0, 2.0)
            if estimand is Estimand.FREQUENCY:
                g_true, gamma = omega, b_field * t_end**2
            else:
                g_true, gamma = b_field, 2.0 * t_end
            offset = rng.uniform(0.02, 0.1) * np.pi / gamma * rng.choice([-1.0, 1.0])
            tasks.append(Task("adaptive", steps, 2, {
                "estimand": estimand.value, "B": b_field, "omega": omega,
                "T": t_end, "shots": shots, "g_c0": g_true + offset,
                "rng_seed": int(rng.integers(2**31))}))
    return tasks


RUNNERS = {
    "saturation": run_saturation,
    "uncontrolled": run_uncontrolled,
    "frame": run_frame,
    "appendix": run_appendix,
    "generic": run_generic,
    "adaptive": run_adaptive,
}

WORKLOADS = {
    "qubit-long-grid": qubit_cycle,
    "generic-numeric-control": generic_cycle,
    "adaptive-short-grid": adaptive_cycle,
}


def run_task(task: Task, tr) -> TaskResult:
    # A warning from the program (e.g. a step above the recommended size)
    # fails the task it came from.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return RUNNERS[task.kind](task, tr)


def task_cost(task: Task) -> int:
    """Ordering key for 'smallest task': the size of its propagator stack,
    with the shot count breaking ties."""
    return task.stack_bytes * 10**7 + task.params.get("shots", 0)
