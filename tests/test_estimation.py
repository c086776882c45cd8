"""Tests for the measurement protocol and the adaptive estimation loop."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qfisher import (
    AmbiguousPhase,
    BasisError,
    ControlConfig,
    Estimand,
    NumericalError,
    RotatingFieldConfig,
    TimeGrid,
    adaptive_estimate,
    born_probabilities,
    build_controlled_drive,
    build_observable,
    expected_statistics,
    make_rotating_qubit,
    propagate,
    sample_shots,
    spectral_gap_integral,
    track_eigenbasis,
)
from qfisher.control import TrackedBasis
from qfisher import estimation
from qfisher.estimation import (
    MeasurementSetup,
    _draw_shots,
    _invert_mean,
    _sample_variance,
)
from qfisher.operators import SIGMA_X
from qfisher.propagation import final_unitaries


def choice_probabilities(final_state, setup):
    """The normalized Born probabilities of (+1, -1, 0)."""
    p_plus, p_minus, p_rest = born_probabilities(final_state, setup)
    total = p_plus + p_minus + p_rest
    probs = np.array([p_plus, p_minus, p_rest]) / total
    probs = np.clip(probs, 0.0, 1.0)
    probs /= probs.sum()
    return probs


def reference_shots(final_state, setup, rng):
    """Born-rule outcomes drawn by Generator.choice, the reference for
    sample_shots."""
    probs = choice_probabilities(final_state, setup)
    return rng.choice(np.array([1, -1, 0]), size=setup.shots, p=probs)


def sample_levels(final_state, setup, rng):
    """The level of every shot of ``sample_shots`` and their sample mean, as
    a main round draws them."""
    levels = np.empty(setup.shots, dtype=np.uint8)
    return levels, _draw_shots(final_state, setup, rng, levels)


def qutrit_setup(shots):
    """Observable with |+>, |-> = (e0 +- e1)/sqrt(2); e2 gives outcome 0."""
    plus = np.array([1.0, 1.0, 0.0], dtype=complex) / np.sqrt(2.0)
    minus = np.array([1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0)
    observable = np.outer(plus, plus.conj()) - np.outer(minus, minus.conj())
    return MeasurementSetup(observable=observable, plus_state=plus, minus_state=minus, shots=shots)


@pytest.fixture(scope="module")
def freq_model():
    return make_rotating_qubit(RotatingFieldConfig(B=1.0, omega=1.0))


def static_basis(grid, phases=None):
    """TrackedBasis whose branches are the coordinate axes at all times."""
    n = grid.steps + 1
    values = np.tile(np.array([-1.0, 1.0]), (n, 1))
    vectors = np.tile(np.eye(2, dtype=complex), (n, 1, 1))
    ph = np.zeros((n, 2)) if phases is None else np.tile(phases, (n, 1))
    return TrackedBasis(grid=grid, values=values, vectors=vectors, phases=ph)


class TestBuildObservable:
    def test_static_basis_gives_sigma_x(self):
        grid = TimeGrid(t_end=1.0, steps=10)
        setup = build_observable(static_basis(grid))
        np.testing.assert_allclose(setup.observable, SIGMA_X, atol=1e-14)

    def test_pi_phase_flips_sign(self):
        grid = TimeGrid(t_end=1.0, steps=10)
        # Columns (theta_min, theta_max): theta_max = pi flips |+> and |->.
        setup = build_observable(static_basis(grid, phases=(0.0, np.pi)))
        np.testing.assert_allclose(setup.observable, -SIGMA_X, atol=1e-14)

    def test_spectrum_plus_minus_one(self, freq_model):
        grid = TimeGrid(t_end=4.0 * np.pi, steps=2000)
        basis = track_eigenbasis(freq_model, 1.0, grid)
        setup = build_observable(basis)
        values = np.linalg.eigvalsh(setup.observable)
        np.testing.assert_allclose(values, [-1.0, 1.0], atol=1e-10)
        square = setup.observable @ setup.observable
        assert np.max(np.abs(square - np.eye(2))) <= 1e-10

    def test_nonorthogonal_basis_rejected(self):
        grid = TimeGrid(t_end=1.0, steps=10)
        basis = static_basis(grid)
        vectors = basis.vectors.copy()
        vectors[:, :, 1] = vectors[:, :, 0]
        broken = TrackedBasis(
            grid=grid, values=basis.values, vectors=vectors, phases=basis.phases
        )
        with pytest.raises(BasisError):
            build_observable(broken)

    # Zero used to give an empty sample; the others failed inside np.empty.
    @pytest.mark.parametrize("shots", [0, True, 2.5, -1])
    def test_bad_shot_count_rejected(self, shots):
        grid = TimeGrid(t_end=1.0, steps=10)
        with pytest.raises(ValueError, match="shots must be"):
            build_observable(static_basis(grid), shots=shots)

    def test_nan_basis_rejected(self):
        grid = TimeGrid(t_end=1.0, steps=10)
        basis = static_basis(grid)
        vectors = basis.vectors.copy()
        vectors[-1, 0, 1] = np.nan
        broken = TrackedBasis(
            grid=grid, values=basis.values, vectors=vectors, phases=basis.phases
        )
        with pytest.raises(BasisError, match="not orthogonal"):
            build_observable(broken)


class TestExpectedStatistics:
    def test_zero_offset(self):
        mean, variance = expected_statistics(0.0, 4.0)
        assert mean == 1.0 and variance == 0.0

    def test_trigonometric_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            delta = rng.uniform(-0.5, 0.5)
            gamma = rng.uniform(0.5, 10.0)
            mean, variance = expected_statistics(delta, gamma)
            assert abs(mean * mean + variance - 1.0) <= 1e-12

    def test_gap_integral_validation(self):
        with pytest.raises(ValueError):
            expected_statistics(0.1, 0.0)

    def test_full_simulation_cross_check(self, freq_model):
        # Leading-order statistics vs the full Born-rule simulation; the
        # deviation is bounded by the next order in offset * duration.
        t_end = 2.0
        grid = TimeGrid(t_end=t_end, steps=2000)
        gamma = spectral_gap_integral(freq_model, 1.0, grid)
        assert abs(gamma - 4.0) <= 1e-12
        for delta in (0.02, 0.1, 0.15):
            drive = build_controlled_drive(
                freq_model, 1.0, ControlConfig(g_c=1.0 - delta), grid
            )
            psi0 = (
                drive.basis.vectors[0, :, 0] + drive.basis.vectors[0, :, 1]
            ) / np.sqrt(2.0)
            psi_final = propagate(drive.hamiltonian, grid).final @ psi0
            setup = build_observable(drive.basis)
            p_plus, p_minus, _ = born_probabilities(psi_final, setup)
            mean, _ = expected_statistics(delta, gamma)
            assert abs((p_plus - p_minus) - mean) <= delta**3 * t_end

    def test_rotating_model_reference_value(self, freq_model):
        mean, variance = expected_statistics(0.1, 4.0)
        assert abs(mean - np.cos(0.4)) <= 1e-15
        assert abs(mean - 0.92106) <= 1e-5
        assert abs(variance - np.sin(0.4) ** 2) <= 1e-15


class TestSampleShots:
    def test_plus_state_all_plus_one(self):
        grid = TimeGrid(t_end=1.0, steps=10)
        setup = build_observable(static_basis(grid), shots=500)
        outcomes = sample_shots(setup.plus_state, setup, rng=1)
        assert np.all(outcomes == 1)

    def test_balanced_state_concentration(self):
        grid = TimeGrid(t_end=1.0, steps=10)
        n_shots = 10**6
        setup = build_observable(static_basis(grid), shots=n_shots)
        psi = np.array([1.0, 0.0], dtype=complex)  # p+ = p- = 1/2
        outcomes = sample_shots(psi, setup, rng=123)
        assert abs(np.mean(outcomes)) <= 4.0 / np.sqrt(n_shots)

    def test_zero_offset_controlled_run(self, freq_model):
        grid = TimeGrid(t_end=2.0, steps=1000)
        drive = build_controlled_drive(freq_model, 1.0, ControlConfig(g_c=1.0), grid)
        psi0 = (drive.basis.vectors[0, :, 0] + drive.basis.vectors[0, :, 1]) / np.sqrt(2)
        psi_final = propagate(drive.hamiltonian, grid).final @ psi0
        setup = build_observable(drive.basis, shots=2000)
        outcomes = sample_shots(psi_final, setup, rng=7)
        assert np.all(outcomes == 1)

    def test_deterministic_given_seed(self):
        grid = TimeGrid(t_end=1.0, steps=10)
        setup = build_observable(static_basis(grid), shots=1000)
        psi = np.array([0.8, 0.6], dtype=complex)
        a = sample_shots(psi, setup, rng=99)
        b = sample_shots(psi, setup, rng=99)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [0, 7, 12345, 2**31 + 5])
    @pytest.mark.parametrize("psi", [
        np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0),  # p_minus = 0
        np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0),  # p_plus = 0
        np.array([0.8, 0.6, 0.0]),
        np.array([0.6, 0.0, 0.8]),  # all three outcomes
        np.array([0.0, 0.0, 1.0]),  # only 0
    ], ids=["plus", "minus", "two-outcome", "three-outcome", "rest"])
    def test_matches_generator_choice(self, seed, psi):
        # Several full blocks of uniforms, the last block of three shots.
        setup = qutrit_setup(shots=2 * 65536 + 3)
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        outcomes = sample_shots(psi.astype(complex), setup, rng)
        reference = reference_shots(psi.astype(complex), setup, reference_rng)
        assert outcomes.dtype == reference.dtype
        assert np.array_equal(outcomes, reference)
        assert rng.random() == reference_rng.random()

    @pytest.mark.parametrize("shots", [1, 7, 8, 129, 65535, 65537, 10**6])
    @pytest.mark.parametrize("psi", [
        np.array([0.6, 0.0, 0.8]),  # all three outcomes
        np.array([0.8, 0.6, 0.0]),
        np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0),  # +1 only: variance 0
        np.array([0.0, 0.0, 1.0]),  # 0 only: mean 0
    ], ids=["three-outcome", "two-outcome", "plus", "rest"])
    def test_round_statistics_match_numpy_bitwise(self, shots, psi):
        setup = qutrit_setup(shots=shots)
        levels, mean = sample_levels(psi.astype(complex), setup, 3)
        outcomes = sample_shots(psi.astype(complex), setup, 3)
        assert mean.hex() == float(np.mean(outcomes)).hex()
        assert _sample_variance(levels, mean).hex() == float(np.var(outcomes)).hex()

    def test_round_holds_a_byte_per_shot(self):
        # The levels, one comparison mask and two blocks of float64: the
        # round never forms a float or an int64 array of all shots.
        shots = 10**6
        setup = qutrit_setup(shots=shots)
        psi = np.array([0.6, 0.0, 0.8], dtype=complex)

        def round_statistics():
            levels, mean = sample_levels(psi, setup, 5)
            return mean, _sample_variance(levels, mean)

        round_statistics()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            round_statistics()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before <= 2 * shots + 2 * 8 * 65536

    @pytest.mark.parametrize("shots", [1, 7, 16384, 16385, 65537, 10**6])
    @pytest.mark.parametrize("psi, second_threshold", [
        (np.array([0.25, np.sqrt(0.9375), 0.0]), "one"),
        (np.array([0.8, np.sqrt(0.36 - 1e-12), 1e-6]), "unreached"),
        (np.array([0.6, 0.0, 0.8]), "reached"),
    ], ids=["cdf1-is-one", "cdf1-unreached", "level-2-shots"])
    def test_one_pass_matches_generator_choice(self, shots, psi, second_threshold):
        # cdf[1] is exactly 1.0 (the second threshold is never compared),
        # below 1.0 with no shot reaching it, or reached by some shots.
        psi = psi.astype(complex)
        setup = qutrit_setup(shots=shots)
        cdf = choice_probabilities(psi, setup).cumsum()
        cdf /= cdf[-1]  # as Generator.choice forms it
        assert (cdf[1] == 1.0) == (second_threshold == "one")
        rng, counts_rng, reference_rng = (np.random.default_rng(shots) for _ in range(3))
        levels, mean = sample_levels(psi, setup, rng)
        outcomes = reference_shots(psi, setup, reference_rng)
        assert np.array_equal(np.array([1, -1, 0])[levels], outcomes)
        assert (np.count_nonzero(levels == 2) > 0) == (second_threshold == "reached")
        assert mean.hex() == float(np.mean(outcomes)).hex()
        assert _sample_variance(levels, mean).hex() == float(np.var(outcomes)).hex()
        # The counts-only path of a probe round: same mean, same draws.
        assert _draw_shots(psi, setup, counts_rng, None).hex() == mean.hex()
        next_draw = reference_rng.random()
        assert rng.random() == next_draw and counts_rng.random() == next_draw

    def test_counts_only_round_holds_no_shots_long_array(self):
        # The probe sub-round keeps counts: one block of uniforms and one of
        # comparison bytes, whatever the shot count.
        setup = qutrit_setup(shots=10**6)
        psi = np.array([0.6, 0.0, 0.8], dtype=complex)
        _draw_shots(psi, setup, 5, None)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            _draw_shots(psi, setup, 5, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before <= 2 * 8 * 65536

    def test_nan_state_rejected_as_choice_does(self):
        # choice refuses NaN probabilities; sample_shots refuses the NaN
        # state before it has any, as the numeric fault it is.
        with pytest.raises(ValueError, match="Probabilities contain NaN"):
            np.random.default_rng(0).choice(np.array([1, -1, 0]), size=10, p=[np.nan] * 3)
        setup = qutrit_setup(shots=10)
        psi = np.array([np.nan, 0.0, 0.0], dtype=complex)
        with pytest.raises(NumericalError, match="nan"):
            sample_shots(psi, setup, 0)

    @pytest.mark.parametrize("entry", [np.nan, complex(0.0, np.nan)])
    def test_nan_state_has_no_born_probabilities(self, entry):
        setup = qutrit_setup(shots=10)
        psi = np.array([entry, 1.0, 0.0], dtype=complex) / np.sqrt(2.0)
        with pytest.raises(NumericalError, match="outside"):
            born_probabilities(psi, setup)

    def test_invalid_state_rejected(self):
        grid = TimeGrid(t_end=1.0, steps=10)
        setup = build_observable(static_basis(grid), shots=10)
        with pytest.raises(NumericalError):
            born_probabilities(np.array([2.0, 0.0], dtype=complex), setup)


class TestInversion:
    def test_exact_arccos_inversion(self):
        mean, _ = expected_statistics(0.1, 4.0)
        assert abs(_invert_mean(mean, 4.0) - 0.1) <= 1e-12

    @settings(max_examples=100, deadline=None)
    @given(
        shots=st.one_of(st.integers(1, 64), st.integers(1, 2**20)),
        amplitudes=arrays(float, 3, elements=st.floats(0.0, 1.0)).filter(
            lambda a: np.linalg.norm(a) > 1e-3
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(shots=1, amplitudes=np.array([1.0, 1.0, 0.0]), seed=0)  # +1 only
    @example(shots=1, amplitudes=np.array([1.0, -1.0, 0.0]), seed=0)  # -1 only
    @example(shots=2**20, amplitudes=np.array([1.0, 1.0, 0.0]), seed=0)
    @example(shots=2**20, amplitudes=np.array([1.0, -1.0, 0.0]), seed=0)
    def test_sample_mean_needs_no_clamp(self, shots, amplitudes, seed):
        # |n_plus - n_minus| <= n, so the quotient of the counts lies in
        # [-1, 1] exactly and arccos inverts every sample mean.
        psi = (amplitudes / np.linalg.norm(amplitudes)).astype(complex)
        mean = _draw_shots(psi, qutrit_setup(shots=shots), seed, None)
        assert -1.0 <= mean <= 1.0
        assert 0.0 <= _invert_mean(mean, 1.0) <= np.pi


class TestAdaptiveEstimate:
    def test_stays_put_at_true_value(self, freq_model):
        grid = TimeGrid(t_end=2.0, steps=1000)
        n_shots = 10**4
        trace = adaptive_estimate(
            freq_model, 1.0, 1.0, rounds=3, shots_per_round=n_shots, grid=grid,
            rng_seed=5,
        )
        noise = 1.0 / (np.sqrt(n_shots) * trace.gap_integral)
        assert abs(trace.final_estimate - 1.0) <= 3.0 * noise

    def test_converges_and_meets_crb_budget(self, freq_model):
        grid = TimeGrid(t_end=2.0, steps=2000)
        trace = adaptive_estimate(
            freq_model, 1.0, 1.05, rounds=5, shots_per_round=10**4, grid=grid,
            rng_seed=1000,
        )
        err = abs(trace.final_estimate - 1.0)
        assert err < 0.05
        assert err**2 <= 3.0 * trace.crb_variance
        errors = [abs(r.updated_g_c - 1.0) for r in trace.rounds]
        assert errors[-1] <= errors[0]

    def test_sign_resolution_both_directions(self, freq_model):
        grid = TimeGrid(t_end=2.0, steps=2000)
        for g_c0, seed in ((1.05, 11), (0.95, 12)):
            trace = adaptive_estimate(
                freq_model, 1.0, g_c0, rounds=2, shots_per_round=10**4, grid=grid,
                rng_seed=seed,
            )
            assert trace.rounds[0].sign == (-1 if g_c0 > 1.0 else 1)
            assert abs(trace.rounds[0].raw_estimate - 1.0) < 0.01

    def test_reproducible_trace(self, freq_model):
        grid = TimeGrid(t_end=2.0, steps=1000)
        kwargs = dict(rounds=3, shots_per_round=5000, grid=grid, rng_seed=21)
        a = adaptive_estimate(freq_model, 1.0, 1.04, **kwargs)
        b = adaptive_estimate(freq_model, 1.0, 1.04, **kwargs)
        assert a.to_json() == b.to_json()
        assert a.final_estimate == b.final_estimate

    def test_trace_json_roundtrip(self, freq_model):
        grid = TimeGrid(t_end=2.0, steps=1000)
        trace = adaptive_estimate(
            freq_model, 1.0, 1.02, rounds=2, shots_per_round=2000, grid=grid,
            rng_seed=3,
        )
        payload = json.loads(trace.to_json())
        assert payload["seed"] == 3
        assert len(payload["rounds"]) == 2
        assert payload["rounds"][0]["main_shots"] == 2000

    def test_ambiguous_window_rejected(self, freq_model):
        grid = TimeGrid(t_end=2.0, steps=1000)
        with pytest.raises(AmbiguousPhase):
            adaptive_estimate(
                freq_model, 1.0, 2.0, rounds=1, shots_per_round=100, grid=grid,
                rng_seed=0,
            )

    @pytest.mark.parametrize("probe_shots", [0, -3])
    def test_nonpositive_probe_shots_rejected(self, freq_model, probe_shots):
        grid = TimeGrid(t_end=2.0, steps=1000)
        with pytest.raises(ValueError, match="probe_shots must be >= 1"):
            adaptive_estimate(
                freq_model, 1.0, 1.05, rounds=2, shots_per_round=100, grid=grid,
                rng_seed=0, probe_shots=probe_shots,
            )

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("rounds", True, "rounds must be an integer"),
            ("rounds", 2.0, "rounds must be an integer"),
            ("rounds", 0, "rounds must be >= 1"),
            ("shots_per_round", 100.0, "shots_per_round must be an integer"),
            ("shots_per_round", True, "shots_per_round must be an integer"),
            ("shots_per_round", np.int64(0), "shots_per_round must be >= 1"),
            ("probe_shots", 2.5, "probe_shots must be an integer"),
            ("probe_shots", np.True_, "probe_shots must be an integer"),
        ],
    )
    def test_count_arguments_rejected_before_any_round(
        self, freq_model, monkeypatch, field, value, message
    ):
        # A bool or float count used to run one round (rounds=True), or to
        # fail inside np.empty or range only after a drive was propagated.
        def no_round(*args, **kwargs):
            raise AssertionError("a round ran before the counts were checked")

        monkeypatch.setattr(estimation, "_round_measurement", no_round)
        kwargs = dict(rounds=2, shots_per_round=100, probe_shots=None)
        kwargs[field] = value
        grid = TimeGrid(t_end=2.0, steps=1000)
        with pytest.raises(ValueError, match=message):
            adaptive_estimate(freq_model, 1.0, 1.05, grid=grid, rng_seed=0, **kwargs)

    @pytest.mark.parametrize("field, value", [
        ("g_true", np.nan), ("g_true", np.inf), ("g_true", -np.inf),
        ("g_c0", np.nan), ("g_c0", np.inf), ("g_c0", -np.inf),
    ])
    def test_non_finite_parameters_rejected_before_any_drive(
        self, freq_model, monkeypatch, field, value
    ):
        # NaN passed the window check and failed in the first round as
        # InvalidMatrix; inf raised AmbiguousPhase "= inf >= pi".
        def no_drive(*args, **kwargs):
            raise AssertionError("a drive was built before the parameters were checked")

        monkeypatch.setattr(estimation, "build_controlled_drive", no_drive)
        kwargs = dict(g_true=1.0, g_c0=1.05)
        kwargs[field] = value
        grid = TimeGrid(t_end=2.0, steps=200)
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            adaptive_estimate(
                freq_model, rounds=2, shots_per_round=100, grid=grid, rng_seed=0, **kwargs
            )

    def test_numpy_integer_counts_accepted(self, freq_model):
        # NumPy integers are counts too, and the trace records them as ints.
        grid = TimeGrid(t_end=2.0, steps=200)
        kwargs = dict(grid=grid, rng_seed=0)
        plain = adaptive_estimate(
            freq_model, 1.0, 1.05, rounds=2, shots_per_round=100, probe_shots=25, **kwargs
        )
        numpy = adaptive_estimate(
            freq_model, 1.0, 1.05, rounds=np.int64(2), shots_per_round=np.int32(100),
            probe_shots=np.int64(25), **kwargs,
        )
        assert numpy.to_json() == plain.to_json()

    def test_trace_matches_materialized_outcome_rounds(self, freq_model, monkeypatch):
        # The reference round draws every outcome with Generator.choice and
        # takes np.mean and np.var of them, in main and probe rounds alike;
        # the trace, sample variances included, must not move by a bit.
        grid = TimeGrid(t_end=2.0, steps=1000)
        kwargs = dict(rounds=3, shots_per_round=2 * 65536 + 3, grid=grid, rng_seed=17)
        streamed = adaptive_estimate(freq_model, 1.0, 1.05, **kwargs)
        drawn, variances = [], []

        def reference_round(final_state, setup, rng, levels):
            outcomes = reference_shots(final_state, setup, rng)
            drawn.append((levels is not None, outcomes))
            return float(np.mean(outcomes))

        def reference_variance(levels, mean):
            is_main, outcomes = drawn[-1]  # the main round just drawn
            assert is_main and float(np.mean(outcomes)) == mean
            variances.append(mean)
            return float(np.var(outcomes))

        monkeypatch.setattr(estimation, "_draw_shots", reference_round)
        monkeypatch.setattr(estimation, "_sample_variance", reference_variance)
        reference = adaptive_estimate(freq_model, 1.0, 1.05, **kwargs)
        probes = sum(r.probe_g_c is not None for r in reference.rounds)
        assert probes > 0
        # Each round drew once through the reference: every main round, each
        # followed by its variance, and every probe.
        assert len(drawn) == kwargs["rounds"] + probes
        assert sum(is_main for is_main, _ in drawn) == kwargs["rounds"] == len(variances)
        assert [len(o) for _, o in drawn] == [
            n for r in reference.rounds for n in (r.main_shots, r.probe_shots) if n
        ]
        assert streamed.to_json() == reference.to_json()

    @pytest.mark.parametrize("estimand", list(Estimand))
    def test_trace_matches_sequential_final_unitaries(self, estimand, monkeypatch):
        # The round's U(T) is the pairwise-tree product, which differs from
        # final_unitaries by rounding only; with final_unitaries in its
        # place no byte of the trace moves.
        model = make_rotating_qubit(RotatingFieldConfig(B=1.0, omega=1.0, estimand=estimand))
        kwargs = dict(rounds=5, shots_per_round=10**5, grid=TimeGrid(t_end=2.0, steps=2000))
        seeds = (0, 7, 601)
        tree = [adaptive_estimate(model, 1.0, 1.05, rng_seed=s, **kwargs) for s in seeds]
        calls = []

        def sequential(h_of_t, grid):
            calls.append(grid)
            return final_unitaries([h_of_t], grid)[0]

        monkeypatch.setattr(estimation, "_tree_final_unitary", sequential)
        reference = [adaptive_estimate(model, 1.0, 1.05, rng_seed=s, **kwargs) for s in seeds]
        assert len(calls) == sum(5 + sum(r.probe_g_c is not None for r in t.rounds) for t in tree)
        assert [t.to_json() for t in tree] == [t.to_json() for t in reference]

    def test_step_size_warning_names_the_caller(self, freq_model):
        # ||H|| dt is 0.025-0.03 on 40 steps over T = 2: above the
        # recommended 0.01, below the limit. Every round's warning names
        # this line, not the round.
        with pytest.warns(UserWarning, match="above recommended") as record:
            adaptive_estimate(
                freq_model, 1.0, 1.05, rounds=2, shots_per_round=100,
                grid=TimeGrid(t_end=2.0, steps=40), rng_seed=0,
            )
        assert [w.filename for w in record] == [__file__] * len(record)

    def test_gap_integral_computed_once_per_design_point(self, freq_model, monkeypatch):
        # Round 0's design point is g_c0, whose gap integral the window check
        # already computed: one integral per round in all.
        grid = TimeGrid(t_end=2.0, steps=1000)
        calls = []

        def counting(model, g, grid):
            calls.append(g)
            return spectral_gap_integral(model, g, grid)

        monkeypatch.setattr(estimation, "spectral_gap_integral", counting)
        trace = adaptive_estimate(
            freq_model, 1.0, 1.05, rounds=3, shots_per_round=2000, grid=grid,
            rng_seed=4,
        )
        assert calls == [1.05] + [r.g_c for r in trace.rounds[1:]]
        assert trace.rounds[0].g_c == 1.05

    def test_shot_accounting(self, freq_model):
        grid = TimeGrid(t_end=2.0, steps=1000)
        trace = adaptive_estimate(
            freq_model, 1.0, 1.05, rounds=2, shots_per_round=4000, grid=grid,
            rng_seed=8,
        )
        assert trace.total_main_shots == 8000
        probes = sum(r.probe_shots for r in trace.rounds)
        assert trace.total_probe_shots == probes
        assert trace.upper_bound_qfi == trace.gap_integral**2
