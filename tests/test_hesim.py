import re

import numpy as np
import pytest

from modpack import psev
from modpack.cheb import ChebSeries
from modpack.hesim import (LevelExhaustedError, OpStats, SimParams, conjugate,
                           decrypt, encrypt, rotate, rotate_batch)
from modpack.psev import PsSchedule, eval_ps

P8 = SimParams(n=8, max_level=25)


def _leaf_series(coeffs, const=0.0):
    """const + sum_i coeffs[i] T_{i+1}, with a zero T_k term for k = len(coeffs) + 1, on (k, 1)."""
    return ChebSeries(np.concatenate(([const], coeffs, [0.0])), 1.0), PsSchedule(len(coeffs) + 1, 1)


def _leaf(u, coeffs, const=0.0):
    """eval_ps of _leaf_series on its schedule.

    The series' T_k coefficient is 0, so its walk is one leaf (the series
    itself) added to 0 * T_k: with the noise off the output is the leaf's
    value, and beyond the basis and the leaf the walk costs one ct x ct
    multiplication and three additions ((u - u) + 0, and the sum).
    """
    series, sched = _leaf_series(coeffs, const)
    return eval_ps(series, u, sched)


def test_encrypt_pads_and_sets_level():
    ct = encrypt([1 + 0j], SimParams(n=4))
    assert np.array_equal(ct.slots, [1, 0, 0, 0])
    assert ct.level == 25


def test_encrypt_empty_message():
    ct = encrypt([], SimParams(n=4))
    assert np.array_equal(ct.slots, np.zeros(4))


def test_encrypt_oversize_rejected():
    with pytest.raises(ValueError):
        encrypt(np.ones(9), P8)
    # a plaintext operand is held to the same slot count, and must be 1-d
    for plain in (np.ones(9), np.ones((2, 2))):
        with pytest.raises(ValueError, match="plaintext vector must be 1-d with length <= slot"):
            encrypt(np.ones(8), P8) * plain


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1, np.nan)])
def test_encrypt_rejects_non_finite_messages(bad):
    with pytest.raises(ValueError, match="message element 2 is not finite"):
        encrypt([1.0, 2.0, bad, np.nan], SimParams(n=4))


@pytest.mark.parametrize("message,dtype", [
    ([1, 2], np.float64), ([1.5, -2.0], np.float64), (np.arange(3), np.float64),
    ([True], np.float64), ([1 + 2j], np.complex128), ([1.0 + 0j], np.complex128),
    (np.ones(2, dtype=np.complex64), np.complex128),
])
def test_encrypt_stores_real_as_float64_and_complex_as_complex128(message, dtype):
    ct = encrypt(message, SimParams(n=4))
    assert ct.slots.dtype == dtype
    assert decrypt(ct).dtype == np.complex128


def _real_ct(params=P8):
    return encrypt(np.arange(1.0, 9.0), params)


@pytest.mark.parametrize("op", [
    lambda a: a + a, lambda a: a - 2.0, lambda a: 3 - a, lambda a: -a, lambda a: a * a,
    lambda a: a * 0.5, lambda a: np.float64(2.0) * a, lambda a: a * np.int64(3),
    lambda a: a * np.ones(3), lambda a: a + [1, 2], lambda a: rotate(a, 3),
    lambda a: rotate_batch(a, [1], [5])[0], lambda a: conjugate(a),
    lambda a: _leaf(a, [1.0, -1.0], 0.5),
], ids=["add", "sub_scalar", "rsub", "neg", "mul_ct", "mul_scalar", "mul_np_float",
        "mul_np_int", "mul_vector", "add_list", "rotate", "rotate_batch", "conjugate", "lincomb"])
def test_real_ops_on_real_slots_stay_float64(op):
    out = op(_real_ct())
    assert out.slots.dtype == np.float64
    assert decrypt(out).dtype == np.complex128


@pytest.mark.parametrize("op", [
    lambda a: a * 1j, lambda a: a + np.complex128(1.0), lambda a: a * np.complex64(2 - 1j),
    lambda a: a * np.array([1.0, 2j]), lambda a: a - [0j], lambda a: a + encrypt([1j], P8),
    lambda a: encrypt([1j], P8) * a, lambda a: conjugate(a + 1j),
    lambda a: _leaf(a + [0.5j], [1.0, 1.0]),
], ids=["mul_1j", "add_np_complex128", "mul_np_complex64", "mul_vector", "sub_list",
        "add_ct", "ct_mul", "conjugate", "lincomb"])
def test_complex_operands_make_slots_complex128(op):
    assert op(_real_ct()).slots.dtype == np.complex128


def test_noisy_multiplication_makes_slots_complex128():
    a = _real_ct(SimParams(n=8, noise_stddev=1e-9, seed=1))
    assert (a + a).slots.dtype == np.float64  # additions draw no noise
    assert (a * 2.0).slots.dtype == (a * a).slots.dtype == np.complex128
    # with the noise on, a product whose exact value is real is complex too
    assert (encrypt([1j], a.params) * 1j).slots.dtype == np.complex128


@pytest.mark.parametrize("op", [
    lambda a: (a * 1j) * 1j + 0j, lambda a: a + 0j, lambda a: a - [0j], lambda a: -(a + 0j),
    lambda a: rotate(a + 0j, 3), lambda a: conjugate(a + 0j), lambda a: a * np.complex64(2.0),
    lambda a: (a * 1j) * -1j, lambda a: a * encrypt([1 + 0j], P8), lambda a: (a * 1j) * (a * 1j),
    lambda a: _leaf(a + 0j, [1.0, 3.0], 0.5), lambda a: rotate_batch(a + 0j, [3], [8])[0],
], ids=["add", "add_scalar", "sub_list", "neg", "rotate", "conjugate", "mul_np_complex64",
        "mul_back", "ct_mul", "square_of_imaginary", "lincomb", "rotate_batch"])
def test_complex_slots_never_turn_back(op):
    # No op narrows: a product with no imaginary part stays complex128 too.
    out = op(_real_ct())
    assert out.slots.dtype == np.complex128 and not out.slots.imag.any()


def test_short_plaintexts_pad_like_explicit_zeros():
    # Each short operand is zero-padded to the slot count: same bits, same counts.
    rng = np.random.default_rng(9)
    for slots in (rng.normal(size=8), rng.normal(size=8) + 1j * rng.normal(size=8)):
        for short in (rng.normal(size=3), rng.normal(size=5) - 1j * rng.normal(size=5)):
            padded = np.concatenate([short, np.zeros(8 - short.size)])
            for op in (lambda a, b: a * b, lambda a, b: a + b, lambda a, b: b - a):
                outs = []
                for operand in (short, padded):
                    params = SimParams(n=8)
                    outs.append((op(encrypt(slots, params), operand), params.stats))
                (got, got_stats), (want, want_stats) = outs
                assert got.slots.dtype == want.slots.dtype
                assert got.slots.tobytes() == want.slots.tobytes()
                assert got.level == want.level and got_stats == want_stats


def test_round_trip_random():
    rng = np.random.default_rng(0)
    params = SimParams(n=32)
    for _ in range(100):
        v = rng.normal(size=32) + 1j * rng.normal(size=32)
        assert np.array_equal(decrypt(encrypt(v, params)), v)


def test_add_sub():
    a = encrypt([1, 2], P8)
    b = encrypt([3, 4], P8)
    assert np.array_equal(decrypt(a + b)[:2], [4, 6])
    zero = encrypt([], P8)
    assert np.array_equal(decrypt(a + zero), decrypt(a))
    assert np.allclose(decrypt(a - a), np.zeros(8))
    assert (a + b).level == 25


def test_mul_semantics_and_level():
    a = encrypt([1, 2], P8)
    b = encrypt([3, 4], P8)
    prod = a * b
    assert np.array_equal(decrypt(prod)[:2], [3, 8])
    assert prod.level == 24
    ident = a * 1.0
    assert np.array_equal(ident.slots, a.slots)
    assert ident.level == 24  # constants still cost a level


@pytest.mark.parametrize("one", [1.0, encrypt(np.ones(8), P8)], ids=["plain", "ct"])
def test_level_exhaustion_on_26th_multiplication(one):
    ct = encrypt(np.ones(8), P8)
    for _ in range(25):
        ct = ct * one
    assert ct.level == 0
    with pytest.raises(LevelExhaustedError):
        ct * one


def test_plain_vector_zero_pads():
    a = encrypt([5, 6, 7], P8)
    masked = a * np.ones(2)
    assert np.array_equal(decrypt(masked)[:3], [5, 6, 0])
    shifted = a + np.array([1.0])
    assert np.array_equal(decrypt(shifted)[:3], [6, 6, 7])


def test_numpy_operands_on_the_left():
    a = encrypt([5, 6, 7], P8)
    left_mul = np.ones(2) * a
    assert np.array_equal(decrypt(left_mul)[:3], [5, 6, 0])
    assert left_mul.level == a.level - 1
    left_add = np.array([1.0]) + a
    assert np.array_equal(decrypt(left_add)[:3], [6, 6, 7])
    scalar = np.float64(2.0) * a
    assert np.array_equal(decrypt(scalar)[:3], [10, 12, 14])


def test_rotate_left_by_one():
    ct = encrypt([1, 2, 3, 4], SimParams(n=4))
    assert np.array_equal(decrypt(rotate(ct, 1)), [2, 3, 4, 1])


def test_rotate_zero_and_negative():
    ct = encrypt([1, 2, 3, 4], SimParams(n=4))
    assert np.array_equal(decrypt(rotate(ct, 0)), [1, 2, 3, 4])
    assert np.array_equal(decrypt(rotate(ct, -1)), [4, 1, 2, 3])


def test_rotate_takes_whole_steps_of_any_type():
    ct = encrypt([1, 2, 3, 4], SimParams(n=4))
    assert np.array_equal(decrypt(rotate(ct, np.int64(1))), [2, 3, 4, 1])
    assert np.array_equal(decrypt(rotate(ct, 2.0)), [3, 4, 1, 2])
    got = rotate_batch(ct, [np.int64(1), 2.0, -1.0], [4, 3.0, np.int64(2)])
    assert [decrypt(r)[0] for r in got] == [2, 3, 4]
    assert [np.count_nonzero(r.slots) for r in got] == [4, 3, 2]


def test_rotate_rejects_fractional_steps():
    params = SimParams(n=4)
    ct = encrypt([1, 2, 3, 4], params)
    with pytest.raises(ValueError, match="rotation step must be a whole number, got 1.5"):
        rotate(ct, 1.5)
    with pytest.raises(ValueError, match="rotation step must be a whole number, got 0.9"):
        rotate_batch(ct, [0.9, 2.0], [4, 4])
    with pytest.raises(ValueError, match="rotation step must be a whole number, got nan"):
        rotate(ct, float("nan"))
    assert params.stats.rotations == 0


def test_rotate_group_law():
    rng = np.random.default_rng(1)
    ct = encrypt(rng.normal(size=8), P8)
    for _ in range(20):
        i, j = rng.integers(-20, 20, 2)
        lhs = rotate(rotate(ct, int(i)), int(j))
        rhs = rotate(ct, int(i + j) % 8)
        assert np.array_equal(lhs.slots, rhs.slots)


@pytest.mark.parametrize("count", [1, 2, 16])
def test_rotate_batch_matches_rotate(count):
    # a full-width mask keeps every slot: the rotation, one level down
    rng = np.random.default_rng(2)
    ct = encrypt(rng.normal(size=8), P8)
    steps = [int(s) for s in rng.integers(-10, 10, count)]
    for got, step in zip(rotate_batch(ct, steps, [8] * count), steps):
        assert np.array_equal(got.slots, rotate(ct, step).slots)
        assert got.level == ct.level - 1


def _masked_rotations(slots, steps, sizes, sigma, batched):
    """rotate_batch's outputs, or rotate(a, s) * np.ones(m)'s, with their params' stats."""
    params = SimParams(n=slots.size, max_level=3, noise_stddev=sigma, seed=11)
    a = encrypt(slots, params)
    if batched:
        outs = rotate_batch(a, steps, sizes)
    else:
        outs = [rotate(a, s) * np.ones(m) for s, m in zip(steps, sizes)]
    return outs, params.stats


def test_rotate_batch_is_a_masked_rotation():
    rng = np.random.default_rng(13)
    for n in (1, 2, 8, 64):
        for cplx in (False, True):
            slots = rng.normal(size=n) + (1j * rng.normal(size=n) if cplx else 0)
            count = int(rng.integers(1, 6))
            # negative steps, steps past n and every size from 0 to n
            steps = [int(s) for s in rng.integers(-3 * n, 3 * n, count)] + [0, n - 1, -n]
            sizes = [int(m) for m in rng.integers(0, n + 1, count)] + [n, 0, n]
            for sigma in (0.0, 1e-6):
                (got, got_stats), (want, want_stats) = (
                    _masked_rotations(slots, steps, sizes, sigma, batched)
                    for batched in (True, False))
                assert got_stats == want_stats
                assert got_stats.rotations == got_stats.plain_mults == len(steps)
                for g, w in zip(got, want):
                    assert g.level == w.level == 2
                    assert g.slots.dtype == w.slots.dtype
                    if sigma:  # the same noise draws: the same bytes
                        assert g.slots.tobytes() == w.slots.tobytes()
                    else:  # the same values; a masked -0.0 may be +0.0 here
                        assert np.array_equal(g.slots, w.slots)


@pytest.mark.parametrize("sizes,message", [
    ([-1], "rotation size must be in [0, 8], got -1"),
    ([9], "rotation size must be in [0, 8], got 9"),
    ([2.5], "rotation size must be a whole number, got 2.5"),
    ([1, 2], "rotate_batch got 1 steps and 2 sizes"),
])
def test_rotate_batch_rejects_bad_sizes(sizes, message):
    params = SimParams(n=8)
    with pytest.raises(ValueError, match=re.escape(message)):
        rotate_batch(encrypt(np.ones(8), params), [1], sizes)
    assert params.stats == OpStats()


def test_conjugate():
    ct = encrypt([1 + 2j], P8)
    assert decrypt(conjugate(ct))[0] == 1 - 2j
    assert np.array_equal(conjugate(conjugate(ct)).slots, ct.slots)
    real = encrypt([3.0, 4.0], P8)
    assert np.array_equal(conjugate(real).slots, real.slots)
    assert conjugate(ct).level == ct.level


def test_slot_independence_one_hot():
    rng = np.random.default_rng(3)
    base = rng.normal(size=8)
    other = rng.normal(size=8)
    for op in (lambda x, y: x + y, lambda x, y: x * y):
        ref = decrypt(op(encrypt(base, P8), encrypt(other, P8)))
        for hot in range(8):
            bumped = base.copy()
            bumped[hot] += 1.0
            out = decrypt(op(encrypt(bumped, P8), encrypt(other, P8)))
            changed = np.nonzero(out != ref)[0]
            assert set(changed) <= {hot}
    ref = decrypt(conjugate(encrypt(base, P8)))
    bumped = base.copy()
    bumped[5] += 1.0
    out = decrypt(conjugate(encrypt(bumped, P8)))
    assert set(np.nonzero(out != ref)[0]) <= {5}


def test_level_never_increases():
    rng = np.random.default_rng(4)
    ct = encrypt(rng.normal(size=8), P8)
    level = ct.level
    for _ in range(30):
        pick = rng.integers(0, 4)
        if pick == 0:
            ct = ct + encrypt(rng.normal(size=8), P8)
        elif pick == 1:
            ct = rotate(ct, int(rng.integers(0, 8)))
        elif pick == 2:
            ct = conjugate(ct)
        elif ct.level >= 1:
            ct = ct * 0.5
        assert ct.level <= level
        level = ct.level


def test_noise_reproducibility_and_effect():
    params_a = SimParams(n=8, noise_stddev=1e-6, seed=42)
    params_b = SimParams(n=8, noise_stddev=1e-6, seed=42)
    v = np.arange(8.0)

    def run(params):
        ct = encrypt(v, params)
        return decrypt((ct * ct) * 0.5)

    out_a, out_b = run(params_a), run(params_b)
    assert np.array_equal(out_a, out_b)  # bit-identical across runs
    clean = decrypt((encrypt(v, P8) * encrypt(v, P8)) * 0.5)
    assert not np.array_equal(out_a, clean)  # the knob does inject noise
    assert np.max(np.abs(out_a - clean)) < 1e-4


def test_noise_is_independent_per_multiplication():
    # zero messages leave only the noise; equal lineages must not share it
    params = SimParams(n=8, noise_stddev=1e-6, seed=3)
    a, b = encrypt([], params), encrypt([], params)
    assert not np.array_equal(decrypt(a * 2.0), decrypt(b * 3.0))
    assert np.any(decrypt((a * 1.0) - (a * 1.0)) != 0)


def test_noise_off_is_exact():
    rng = np.random.default_rng(5)
    a = rng.normal(size=8)
    b = rng.normal(size=8)
    got = decrypt(encrypt(a, P8) * encrypt(b, P8))
    assert np.array_equal(got, a * b)


def test_stats_counters():
    stats = OpStats()
    params = SimParams(n=8, stats=stats)
    a = encrypt([1, 2], params)
    _ = a * a
    _ = a * 2.0
    _ = a + a
    rotate(a, 1)
    rotate_batch(a, [0, 1, 2], [2, 2, 2])  # each masked rotation is also a plaintext mult
    conjugate(a)
    assert stats.ct_mults == 1 and stats.plain_mults == 4
    assert stats.mults == 5
    assert stats.adds == 1
    assert stats.rotations == 4
    assert stats.conjugations == 1


def test_stats_count_without_being_passed():
    params = SimParams(n=8)
    a = encrypt([1, 2], params)
    _ = a * a + a
    rotate_batch(a, [1, 2], [8, 8])
    assert (params.stats.ct_mults, params.stats.adds, params.stats.rotations) == (1, 1, 2)
    assert params.stats.plain_mults == 2
    # each SimParams counts on its own
    assert SimParams(n=8).stats.mults == 0


def _powers(u, k):
    """T_1..T_k of u by the operators, in the order and split psev's basis steps use."""
    bs = [u]
    for j in range(2, k + 1):
        p = bs[(j + 1) // 2 - 1] * bs[j // 2 - 1]
        bs.append(p + p - (1.0 if j % 2 == 0 else u))
    return bs


def _per_term(u, coeffs, const):
    """_leaf by the operators: the basis, then the leaf term by term."""
    bs = _powers(u, len(coeffs) + 1)
    terms = [bs[i] * c for i, c in enumerate(coeffs) if c != 0.0]
    leaf = sum(terms[1:], terms[0])
    return ((u - u) + 0.0) * bs[-1] + (leaf + const if const != 0.0 else leaf)


# (coefficients of T_1..T_5, constant, (plaintext mults, adds) of the leaf)
COST_LEAVES = [([2.0, 0.0, -1.5, 0.0, 0.0], 0.25, (2, 2)), ([0.0, 0.0, 0.0, 4.0, 0.0], 0.0, (1, 0))]


def _leaves_and_per_term(message):
    """Each COST_LEAVES leaf by _leaf and by _per_term: (ct, plain, adds, level, dtype) and slots."""
    runs = []
    for coeffs, const, _ in COST_LEAVES:
        for evaluate in (_leaf, _per_term):
            params = SimParams(n=8, max_level=9)
            out = evaluate(encrypt(message, params), coeffs, const)
            stats = params.stats
            runs.append(((stats.ct_mults, stats.plain_mults, stats.adds, out.level, out.slots.dtype),
                         out.slots))
    return zip(runs[::2], runs[1::2])


def test_lincomb_costs_what_the_per_term_operators_cost():
    # A leaf, eval_ps's linear combination of baby steps, costs what its
    # per-term operators would: a plaintext multiplication per nonzero
    # coefficient and an addition per further term and for a nonzero
    # constant.  The zero T_2, T_4 and T_5 terms of the first leaf, and the
    # missing constant of the second (one term: no addition), cost nothing.
    # The basis costs its five products and ten additions.
    message = np.random.default_rng(8).uniform(-1, 1, 8)
    for (_, _, (mults, adds)), ((got, got_slots), (want, want_slots)) in zip(
            COST_LEAVES, _leaves_and_per_term(message)):
        assert got == want and got[:3] == (1 + 5, mults, 3 + 10 + adds)
        assert got[4] == np.float64
        assert np.max(np.abs(got_slots - want_slots)) <= 1e-14


def test_lincomb_complex_rows_match_the_per_term_operators():
    # Slots with nonzero imaginary parts keep the leaves complex128 with the
    # noise off: the complex product over interleaved parts stays covered.
    rng = np.random.default_rng(14)
    message = rng.uniform(-1, 1, 8) + 1j * rng.uniform(-1, 1, 8)
    for (got, got_slots), (want, want_slots) in _leaves_and_per_term(message):
        assert got == want and got[4] == np.complex128
        assert np.max(np.abs(got_slots - want_slots)) <= 1e-14


SIGMA = 1e-3
# leaves of 1, 3 and 5 terms, two with a const
NOISE_COEFFS = [[0.0, 0.0, 0.0, 0.0, 2.0], [0.5, 0.0, -2.0, 0.0, 1.25], [1.0, -1.0, 3.0, 0.25, -0.5]]
NOISE_CONSTS = [0.0, -0.75, 0.5]


def _lincomb_residuals(seed):
    """Each NOISE_COEFFS leaf's series evaluated twice in one program at n=2^15: first minus second.

    The two evaluations share one noisy basis, so a residual holds twice
    the walk's own noise: the draw after the 0 * T_6 product, of variance
    sigma^2, and the leaf's one draw of variance t*sigma^2.
    """
    data = np.random.default_rng(7).uniform(-1, 1, 2**15)
    u = encrypt(data, SimParams(n=2**15, max_level=4, noise_stddev=SIGMA, seed=seed))
    outs = psev._evaluate(u, [_leaf_series(c, k) for c, k in zip(NOISE_COEFFS, NOISE_CONSTS)
                              for _ in range(2)])
    return [a.slots - b.slots for a, b in zip(outs[::2], outs[1::2])]


def test_lincomb_row_noise_is_one_draw_of_variance_t_sigma_squared():
    # a t-term leaf's noise is distributed as the sum of t per-term draws:
    # variance t*sigma^2 in each slot's real and imaginary part, on top of the
    # product's sigma^2, twice in a residual
    for coeffs, residual in zip(NOISE_COEFFS, _lincomb_residuals(seed=5)):
        t = np.count_nonzero(coeffs)
        for part in (residual.real, residual.imag):
            assert abs(np.var(part) / (2 * (1 + t) * SIGMA**2) - 1) < 0.03, t


def test_lincomb_rows_draw_uncorrelated_noise():
    residuals = _lincomb_residuals(seed=5)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        for part in ("real", "imag"):
            a, b = getattr(residuals[i], part), getattr(residuals[j], part)
            assert abs(np.corrcoef(a, b)[0, 1]) < 0.03, (i, j, part)


def test_ct_product_noise_has_variance_sigma_squared():
    data = np.random.default_rng(9).normal(size=(2, 2**15))
    outs = []
    for sigma in (SIGMA, 0.0):
        params = SimParams(n=2**15, noise_stddev=sigma, seed=6)
        a, b = (encrypt(v, params) for v in data)
        outs.append((a * b).slots)
    residual = outs[0] - outs[1]
    for part in (residual.real, residual.imag):
        assert abs(np.var(part) / SIGMA**2 - 1) < 0.03


def test_lincomb_noise_is_fixed_by_the_seed():
    first, again, other = (_lincomb_residuals(seed) for seed in (5, 5, 6))
    assert all(a.tobytes() == b.tobytes() for a, b in zip(first, again))
    assert all(not np.array_equal(a, b) for a, b in zip(first, other))


def test_lincomb_real_stack_matches_complex_stack():
    # A complex buffer runs the leaf product as a real product over its
    # interleaved parts, and gives the real buffer's bits: a real input
    # stored as complex128 stays complex128, its real parts the real
    # stack's bytes.  Every leaf, over real, complex-stored and complex
    # slots, is also bit for bit the two-pass reference: the product of the
    # baby steps alone, then the constant added, zero and negative.
    rng = np.random.default_rng(12)
    data, imag = rng.uniform(-1, 1, 64), rng.uniform(-1, 1, 64)
    inputs = {"real": data, "complex": data.astype(complex), "mixed": data + 1j * imag}
    coeffs = rng.uniform(-1, 1, (6, 5))
    coeffs[coeffs < -0.6] = 0.0
    coeffs[:, 0] = 0.25
    consts = rng.uniform(-1, 1, 6)
    consts[1], consts[4] = 0.0, -2.5
    leaves = {}
    for name, message in inputs.items():
        outs = []
        for c, const in zip(coeffs, consts.tolist()):
            u = encrypt(message, SimParams(n=64, max_level=4))
            stack = np.stack([t.slots for t in _powers(u, 5)])
            product = ((c @ stack.view(float)).view(complex) if np.iscomplexobj(stack)
                       else c @ stack)
            want = product + const
            got = _leaf(u, c, const)
            assert got.slots.dtype == want.dtype and got.slots.tobytes() == want.tobytes(), name
            outs.append((got.slots, got.level))
        leaves[name] = outs
    for (real, real_level), (cplx, cplx_level) in zip(leaves["real"], leaves["complex"]):
        assert real.dtype == np.float64 and cplx.dtype == np.complex128
        assert not cplx.imag.any()
        assert real.tobytes() == cplx.real.tobytes() and real_level == cplx_level
    assert {slots.dtype for slots, _ in leaves["mixed"]} == {np.dtype(np.complex128)}


def test_lincomb_exhausts_on_a_nonzero_level_zero_term(monkeypatch):
    # A leaf sits at its top baby step's level: T_3 at level 0 exhausts a
    # leaf that uses it and raises before any arithmetic, and a leaf of lower
    # degree is unaffected.  compute_power_basis never leaves a leaf's term
    # below the giant steps, so its steps here end with one more: T_3 times
    # 1.0, which spends T_3's last level.
    basis = psev.compute_power_basis
    monkeypatch.setattr(psev, "compute_power_basis", lambda sched, base: (
        basis(sched, base) + [("mul", base + 2, base + 2, 1.0)]))
    params = SimParams(n=4, max_level=3, noise_stddev=1e-9, seed=0)
    u = encrypt([0.5, -0.25], params)
    assert _leaf(u, [3.0, 1.0, 0.0]).level == 0
    before, state = OpStats(**vars(params.stats)), params.rng.bit_generator.state
    with pytest.raises(LevelExhaustedError):
        _leaf(u, [3.0, 0.0, 1.0])
    assert params.rng.bit_generator.state == state  # no noise drawn
    # the steps before the leaf are charged: the basis (three products, six
    # additions and the edit's plaintext product), then (u - u) + 0, times T_4
    stats = params.stats
    assert (stats.ct_mults - before.ct_mults, stats.plain_mults - before.plain_mults,
            stats.adds - before.adds) == (3 + 1, 1, 6 + 2)


def test_params_validation():
    with pytest.raises(ValueError):
        SimParams(n=24)
    with pytest.raises(ValueError):
        SimParams(max_level=-1)


@pytest.mark.parametrize("name", ["n", "max_level", "seed"])
def test_params_take_whole_numbers_only(name):
    # max_level=2.5 used to run levels 2.5 -> 1.5, n=4.0 failed on `&` and
    # seed=1.5 inside numpy; only config files had their values cast
    with pytest.raises(ValueError, match=f"^{name} must be a whole number, got 2.5$"):
        SimParams(**{name: 2.5})
    value = getattr(SimParams(**{name: 4.0}), name)
    assert value == 4 and type(value) is int


def test_params_seed_is_used_whole():
    # a masked seed drew 2**31's noise for seed 0 and wrapped negative seeds
    draws = [SimParams(seed=seed).rng.standard_normal() for seed in (0, 2**31, 2**32)]
    assert len(set(draws)) == 3
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        SimParams(seed=-1)


@pytest.mark.parametrize("sigma", [-1e-9, float("nan"), float("inf")])
def test_params_reject_negative_or_non_finite_noise(sigma):
    # NaN would run noise-off (sigma > 0 is False) and inf would turn slots to inf
    with pytest.raises(ValueError, match="noise_stddev must be finite and non-negative"):
        SimParams(noise_stddev=sigma)


MUL_ADD_CASES = [  # (a, b, c): "r" a real ct, "z" a complex ct, a float a plaintext scalar
    ("r", "r", 1.0), ("r", "r", "r"), ("r", "r", "z"), ("z", "r", 1.0), ("r", "z", "r"),
    ("r", 0.75, 1.0), ("z", 0.75, None), ("r", "r", None), ("z", "z", "z"),
]
MUL_ADD_LEVELS = {"a": 9, "b": 7, "c": 5}


def _mul_add_operand(kind, name, x, steps=None, row=None):
    """Operand `name` of a MUL_ADD_CASES case, from x = i*t at level 12: a complex x or a
    real x*x, times 1.0 down to its level; by the operators, or as program steps into row."""
    if not isinstance(kind, str):
        return kind
    spend = 12 - (kind == "r") - MUL_ADD_LEVELS[name]
    if steps is not None:
        steps += [("mul", row, 0, 0) if kind == "r" else ("copy", row, 0, None)]
        steps += [("mul", row, row, 1.0)] * spend
        return row
    v = x * x if kind == "r" else x
    for _ in range(spend):
        v = v * 1.0
    return v


@pytest.mark.parametrize("sigma", [0.0, 1e-9])
@pytest.mark.parametrize("double,subtract", [(False, False), (True, True), (True, False)])
@pytest.mark.parametrize("a,b,c", MUL_ADD_CASES)
def test_mul_add_is_the_operators_bit_for_bit(a, b, c, double, subtract, sigma):
    # A program's product, doubling and +- c steps, as the power basis and
    # the domain map use them, are (a * b), p + p, then +- c by the
    # operators: the same bytes, dtype, level, counts and noise draws.  The
    # input is complex, so its one buffer is: a real operand or result lies
    # in its row's real part, and a real row meets complex operands.
    t = np.random.default_rng(8).uniform(0.5, 1, 8)
    runs = []
    for program in (False, True):
        params = SimParams(n=8, max_level=12, noise_stddev=sigma, seed=2, stats=OpStats())
        x = encrypt(1j * t, params)
        steps = [] if program else None
        x_, y, z = (_mul_add_operand(k, name, x, steps, row)
                    for row, (k, name) in enumerate(((a, "a"), (b, "b"), (c, "c")), start=1))
        if program:
            steps.append(("mul", 4, x_, y))
            steps += [("add", 4, 4, 4)] if double else []
            steps += [] if z is None else [("sub" if subtract else "add", 4, 4, z)]
            (got,) = psev._execute(x, steps + [("out", 0, 4, None)], 5)
        else:
            got = x_ * y
            got = got + got if double else got
            got = got if z is None else got - z if subtract else got + z
        runs.append((got.slots.tobytes(), got.slots.dtype, got.level, params.stats))
    assert runs[0] == runs[1]


def test_mul_add_without_a_product_adds_over_a_s_buffer():
    # A program's doubling and sum with no product, as a walk's sum over
    # its quotient's row: a + a + c at c's level, two additions, the
    # input only read.
    stats = OpStats()
    params = SimParams(n=8, stats=stats)
    x = encrypt(np.arange(8.0), params)
    steps = [("copy", 1, 0, None), ("mul", 2, 0, 0.0), ("add", 2, 2, 3.0),
             ("add", 1, 1, 1), ("add", 1, 1, 2), ("out", 0, 1, None)]
    (got,) = psev._execute(x, steps, 3)
    assert np.array_equal(got.slots, 2 * np.arange(8.0) + 3.0)
    assert np.array_equal(x.slots, np.arange(8.0))
    assert got.level == 24 and (stats.adds, stats.plain_mults) == (3, 1)
