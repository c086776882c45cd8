"""The numpy behaviours that the bit-exact kernels rely on, each checked
directly against numpy.

The kernels' own tests compare fast paths with numpy bit for bit. When one of
them fails on another numpy release or BLAS build, the test here that names
the same behaviour says whether numpy itself changed underneath:

- ``operators.pairwise_sum`` (the gap trapezoid and the shot variance)
  follows the halving of ``np.add.reduce``;
- ``fisher._trapezoid_sandwich`` sums block totals along the outer axis;
- the step loop advances a single drive with ``ndarray.dot`` and a batch with
  ``np.matmul`` given its output positionally, the same call as ``out=``,
  on copies of the steps and the carried U in a ring buffer: a complex
  product's bits do not depend on where its operands sit;
- ``frames.appendix_a_distinction`` forms its picture-mapped states,
  trajectories and overlaps one block at a time with the einsums
  ``"nij,njk->nik"``, ``"nij,j->ni"`` and ``"ni,ni->n"``, which give every
  point the bits it gets alone, whatever the stack length, and read a drive
  view of the step loop's (len + 1, b, 2, 2) block buffer as a contiguous
  stack, so the streamed appendix equals the whole-stack one;
- ``operators.sandwich`` at d = 2 repeats the sum of the einsum;
- ``operators._times_dagger`` (``control.synthesize_cd``'s transport term
  at d = 2) repeats the sum of the two-operand einsum ``"nik,njk->nij"``,
  which adds each complex product onto +0.0 in k order as
  (ar br - ai bi, ar bi + ai br), without FMA;
- ``operators.sandwich`` at d != 2 and ``operators._exp_taylor`` (the
  d != 2 step exponentials) multiply stacks with ``np.matmul``, which gives
  every matrix the bits of its product alone, so the generator integral
  streamed in blocks equals the full-stack one, and a step's bits do not
  depend on its block or the drive batch;
- ``control.track_eigenbasis`` decomposes the grid with stacked
  ``np.linalg.eigh``, which gives every matrix the bits it gets alone, so a
  point's raw eigensystem does not depend on its block;
- ``control._transport_block`` continues a run's phases across blocks from
  two carried rows of ``np.cumprod``, which multiplies a complex stack of
  three or more rows one row after another along axis 0, so the continued
  product equals the whole-run product (a two-row stack is one vectorized
  product that can round differently, hence two carried rows);
- ``estimation._draw_shots`` repeats ``Generator.choice``'s draws;
- ``estimation._draw_shots`` never compares a threshold of exactly 1.0: on
  PCG64 ``Generator.random`` is ``(random_raw() >> 11) * 2**-53``, so no
  uniform reaches 1.0;
- ``propagation.TimeGrid`` forms its times block by block as
  ``np.linspace`` forms the whole grid.
"""

import functools
import operator

import numpy as np
import pytest


def python_pairwise(values: list) -> float:
    """numpy's float64 pairwise sum in Python floats: a piece of at most 128
    terms is summed with 8 accumulators (fewer than 8 terms, one after
    another); a longer piece is halved at n // 2 rounded down to a multiple
    of 8."""
    n = len(values)
    if n < 8:
        total = 0.0
        for v in values:
            total += v
        return total
    if n <= 128:
        acc = values[:8]
        i = 8
        while i < n - n % 8:
            acc = [a + v for a, v in zip(acc, values[i : i + 8])]
            i += 8
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
        for v in values[i:]:
            total += v
        return total
    half = n // 2 - (n // 2) % 8
    return python_pairwise(values[:half]) + python_pairwise(values[half:])


def bits(x) -> bytes:
    return np.asarray(x).tobytes()


@pytest.mark.parametrize("n", [1, 7, 8, 9, 127, 128, 129, 136, 137, 255, 1000, 4099, 65537])
def test_add_reduce_halves_to_multiples_of_8_with_leaves_of_128(n):
    # Magnitudes across 12 decades, so that another order rounds differently.
    rng = np.random.default_rng(n)
    values = rng.normal(size=n) * 10.0 ** rng.integers(-6, 7, size=n)
    assert bits(np.add.reduce(values)) == bits(0.0 + python_pairwise(values.tolist()))


@pytest.mark.parametrize("m", [2, 3, 1000])
def test_outer_axis_reduce_of_2x2_complex_stack_is_sequential(m):
    rng = np.random.default_rng(m)
    stack = rng.normal(size=(m, 2, 2)) + 1j * rng.normal(size=(m, 2, 2))
    stack *= 10.0 ** rng.integers(-8, 8, size=(m, 1, 1))
    assert bits(np.add.reduce(stack, axis=0)) == bits(functools.reduce(operator.add, stack))


def test_ndarray_dot_is_matmul_out_on_2x2_complex():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(500, 2, 2)) + 1j * rng.normal(size=(500, 2, 2))
    b = rng.normal(size=(500, 2, 2)) + 1j * rng.normal(size=(500, 2, 2))
    batched, positional = np.empty_like(a), np.empty_like(a)
    np.matmul(a, b, out=batched)
    np.matmul(a, b, positional)
    assert bits(positional) == bits(batched)
    single, pair = np.empty((2, 2), dtype=complex), np.empty((2, 2), dtype=complex)
    for k in range(len(a)):
        a[k].dot(b[k], single)
        np.matmul(a[k], b[k], out=pair)
        assert bits(single) == bits(pair) == bits(batched[k])


@pytest.mark.parametrize("shape", [(2, 2), (3, 2, 2), (3, 3, 3), (2, 4, 4), (3, 8, 8)])
def test_complex_product_bits_do_not_depend_on_operand_placement(shape):
    # The step loop copies each chunk of steps, and the U it carries, into
    # ring buffers at row offsets that shift chunk by chunk, and multiplies
    # there: ndarray.dot for one 2x2 drive, positional np.matmul for a
    # (b, d, d) batch.
    n = 40
    rng = np.random.default_rng(sum(shape))
    a = rng.normal(size=(n,) + shape) + 1j * rng.normal(size=(n,) + shape)
    b = rng.normal(size=(n,) + shape) + 1j * rng.normal(size=(n,) + shape)
    a *= 10.0 ** rng.integers(-6, 7, size=(n,) + shape)
    multiply = np.ndarray.dot if len(shape) == 2 else np.matmul
    here = np.empty_like(a)
    for k in range(n):
        multiply(a[k], b[k], here[k])
    for offset in (1, 2, 5):
        ring_a = np.empty((n + offset,) + shape, dtype=complex)
        ring_b = np.empty((n + 2 * offset,) + shape, dtype=complex)
        ring_a[offset:] = a
        ring_b[2 * offset :] = b
        elsewhere = np.empty((n + offset + 1,) + shape, dtype=complex)
        for k in range(n):
            multiply(ring_a[offset + k], ring_b[2 * offset + k], elsewhere[offset + 1 + k])
        assert bits(elsewhere[offset + 1 :]) == bits(here)


def test_einsum_sums_the_2x2_sandwich_without_fma():
    # Entry (i, l) adds (conj(u_ji) h_jk) u_kl onto +0.0, j-major then k,
    # every product and sum rounded on its own, as Python floats are.
    rng = np.random.default_rng(4)
    u = rng.normal(size=(200, 2, 2)) + 1j * rng.normal(size=(200, 2, 2))
    h = rng.normal(size=(200, 2, 2)) + 1j * rng.normal(size=(200, 2, 2))
    fast = np.einsum("nji,njk,nkl->nil", u.conj(), h, u)

    def mul(a, b):
        return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])

    for n in range(len(u)):
        uc = [[(z.real, -z.imag) for z in row] for row in u[n]]
        hn = [[(z.real, z.imag) for z in row] for row in h[n]]
        un = [[(z.real, z.imag) for z in row] for row in u[n]]
        for i in (0, 1):
            for l in (0, 1):
                re = im = 0.0
                for j in (0, 1):
                    for k in (0, 1):
                        t_re, t_im = mul(mul(uc[j][i], hn[j][k]), un[k][l])
                        re, im = re + t_re, im + t_im
                assert bits(fast[n, i, l]) == bits(complex(re, im))


def test_einsum_sums_the_2x2_transport_product_without_fma():
    # Entry (i, j) adds a_ik b_jk onto +0.0 in k order, every product and
    # sum rounded on its own, as Python floats are; signed zeros included.
    rng = np.random.default_rng(6)
    parts = rng.normal(size=(4, 300, 2, 2)) * 10.0 ** rng.integers(-6, 7, size=(4, 300, 2, 2))
    parts[rng.random(parts.shape) < 0.2] = 0.0
    parts[rng.random(parts.shape) < 0.2] = -0.0
    a, b = parts[0] + 1j * parts[1], parts[2] + 1j * parts[3]
    b.imag[:50] = -0.0  # the conjugate of a real stack
    fast = np.einsum("nik,njk->nij", a, b)
    for n in range(len(a)):
        for i in (0, 1):
            for j in (0, 1):
                re = im = 0.0
                for k in (0, 1):
                    ar, ai = a[n, i, k].real, a[n, i, k].imag
                    br, bi = b[n, j, k].real, b[n, j, k].imag
                    re, im = re + (ar * br - ai * bi), im + (ar * bi + ai * br)
                assert bits(fast[n, i, j]) == bits(complex(re, im))


@pytest.mark.parametrize("seed", [0, 7, 2**31 + 5])
def test_pcg64_uniform_is_the_top_53_bits_of_a_raw_draw(seed):
    # Mid-stream, and through out= blocks as the shot draws take them.
    rng = np.random.default_rng(seed)
    rng.random(5)
    clone = np.random.PCG64()
    clone.state = rng.bit_generator.state
    buf = np.empty(16384)
    uniforms = np.concatenate([rng.random(out=buf[:n]).copy() for n in (16384, 16384, 7)])
    raw = clone.random_raw(len(uniforms))
    assert bits(uniforms) == bits((raw >> np.uint64(11)) * 2.0**-53)
    # The largest value a draw can take lies below 1.0.
    assert (2**53 - 1) * 2.0**-53 < 1.0 and uniforms.max() < 1.0
    assert rng.random() == (clone.random_raw() >> 11) * 2.0**-53


@pytest.mark.parametrize("form", ["nij,njk->nik", "nij,j->ni", "ni,ni->n"])
@pytest.mark.parametrize("n", [1, 2, 3, 1000, 4097])
def test_appendix_einsums_give_each_point_its_own_bits(form, n):
    # Per-point operands as the streamed appendix passes them: drive views
    # of a block buffer of three drives, or of a stack of three states.
    rng = np.random.default_rng(30 + n)

    def cplx(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    buffer, states = cplx(n, 3, 2, 2), cplx(n, 3, 2)
    operands = {
        "nij,njk->nik": (cplx(n, 2, 2), buffer[:, 1]),
        "nij,j->ni": (buffer[:, 2], cplx(2)),
        "ni,ni->n": (states[:, 0].conj(), states[:, 1]),
    }[form]

    def over(points, copy=False):
        # The state psi0 of "nij,j->ni" is shared by every point.
        picked = [op[points] if op.ndim > 1 else op for op in operands]
        return np.einsum(form, *(np.ascontiguousarray(op) if copy else op for op in picked))

    whole = over(slice(None))
    assert bits(whole) == bits(over(slice(None), copy=True))
    for k in range(n):
        assert bits(over(slice(k, k + 1), copy=True)) == bits(whole[k : k + 1])
    # Any run of consecutive points, as the appendix's blocks.
    assert bits(over(slice(n // 3, None))) == bits(whole[n // 3 :])


@pytest.mark.parametrize("d", [1, 3, 4, 8])
@pytest.mark.parametrize("n", [1, 2, 3, 1000])
def test_stacked_matmul_gives_each_matrix_its_own_product(d, n):
    # The left operand as sandwich passes it: U^dag as a conjugated swapaxes
    # view of a point-major stack of two drives, like a two-drive step loop
    # hands each drive's fold.
    rng = np.random.default_rng(10 * d + n)
    shared = rng.normal(size=(n, 2, d, d)) + 1j * rng.normal(size=(n, 2, d, d))
    shared *= 10.0 ** rng.integers(-6, 7, size=(n, 2, d, d))
    u = shared[:, 1]
    h = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
    hu = h @ u
    stacked = np.swapaxes(u, -2, -1).conj() @ hu
    for k in range(n):
        alone = np.ascontiguousarray(u[k])
        assert bits(hu[k]) == bits(np.ascontiguousarray(h[k]) @ alone)
        assert bits(stacked[k]) == bits(np.ascontiguousarray(alone.conj().T) @ hu[k].copy())
    # Any run of consecutive points, as the generator integral's blocks.
    assert bits(stacked[n // 3 :]) == bits(
        np.swapaxes(u[n // 3 :], -2, -1).conj() @ (h[n // 3 :] @ u[n // 3 :])
    )


@pytest.mark.parametrize("d", [2, 3, 4, 8])
def test_stacked_eigh_gives_each_matrix_its_own_decomposition(d):
    n = 300
    rng = np.random.default_rng(20 + d)
    a = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
    a *= 10.0 ** rng.integers(-6, 7, size=(n, 1, 1))
    stack = a + np.swapaxes(a, -2, -1).conj()
    values, vectors = np.linalg.eigh(stack)
    for k in range(n):
        alone_values, alone_vectors = np.linalg.eigh(stack[k].copy())
        assert bits(values[k]) == bits(alone_values)
        assert bits(vectors[k]) == bits(alone_vectors)
    # Any run of consecutive points, as the tracker's blocks.
    run_values, run_vectors = np.linalg.eigh(stack[n // 3 : n // 3 + 37])
    assert bits(run_values) == bits(values[n // 3 : n // 3 + 37])
    assert bits(run_vectors) == bits(vectors[n // 3 : n // 3 + 37])


@pytest.mark.parametrize("d", [2, 3, 4, 8])
def test_cumprod_of_complex_stack_continues_from_two_carried_rows(d):
    # Unit phases with rounding-size modulus errors, as the transport's,
    # after the two rows of ones that start a run.
    n = 2000
    rng = np.random.default_rng(30 + d)
    z = np.exp(1j * rng.uniform(-np.pi, np.pi, size=(n, d)))
    z *= 1.0 + 1e-15 * rng.normal(size=(n, d))
    factors = np.concatenate([np.ones((2, d), dtype=complex), z])
    whole = np.cumprod(factors, axis=0)
    # The last cut leaves three rows: the carried two and one new factor.
    for cut in (2, 3, 39, 1000, n + 1):
        carried = np.stack([whole[cut - 2], factors[cut - 1]])
        continued = np.cumprod(np.concatenate([carried, factors[cut:]]), axis=0)
        assert bits(continued[2:]) == bits(whole[cut:])


@pytest.mark.parametrize("shots", [1, 1000, 65537])
def test_generator_choice_draws_one_uniform_per_shot_against_normalized_cdf(shots):
    probs = np.array([0.3, 0.6, 0.1])
    probs /= probs.sum()
    outcomes = np.array([1, -1, 0])
    chosen_rng, uniform_rng = np.random.default_rng(9), np.random.default_rng(9)
    chosen = chosen_rng.choice(outcomes, size=shots, p=probs)
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    uniforms = uniform_rng.random(shots)
    assert np.array_equal(chosen, outcomes[np.searchsorted(cdf, uniforms, side="right")])
    assert chosen_rng.random() == uniform_rng.random()


@pytest.mark.parametrize(
    "t_end, steps",
    [(1.0, 1), (2.0, 7), (4.0 * np.pi / 1.3, 20000), (0.1, 400_000), (1e-310, 9), (5e-324, 3)],
)
def test_linspace_is_index_times_step_with_exact_end(t_end, steps):
    # i * (t_end / steps) plus the start 0.0, or (i / steps) * t_end where
    # the step underflows to zero, then the last point set to t_end.
    points = np.arange(steps + 1, dtype=float)
    step = t_end / steps
    if step == 0.0:
        points /= steps
        points *= t_end
    else:
        points *= step
    points += 0.0
    points[-1] = t_end
    assert bits(np.linspace(0.0, t_end, steps + 1)) == bits(points)
