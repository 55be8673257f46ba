import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from modpack import cli
from modpack.fitting import fit_modp, plan_from_dict, plan_to_dict, save_plan
from modpack.hesim import OpStats, SimParams, decrypt, encrypt
from modpack.packing import (BitStackLayout, CapacityError, ConcatStage,
                             CrtBasis, ImgPairStage, bitstack_pack,
                             bitstack_plan_specs, bitstack_unpack, crt_pack,
                             crt_unpack, img_pack, img_unpack, load_layout,
                             pipeline_pack, pipeline_unpack, save_layout,
                             unpack_stream, vec_pack, vec_unpack)


def params_with_stats(n=64):
    return SimParams(n=n, stats=OpStats())


# ---------------------------------------------------------------------------
# VecConcat
# ---------------------------------------------------------------------------


def test_vec_pack_concatenates():
    out = vec_pack([[1, 2], [3]], (2, 1))
    assert np.array_equal(out, [1, 2, 3])


def test_vec_pack_single_vector():
    out = vec_pack([[5, 6, 7]], (3,))
    assert np.array_equal(out, [5, 6, 7])


def test_vec_pack_capacity_arithmetic():
    # 2^15 // 2000 = 16 vectors per ciphertext => 96 vectors need 6
    per_ct = 2 ** 15 // 2000
    assert per_ct == 16
    assert -(-96 // per_ct) == 6
    assert per_ct * 2000 <= 2 ** 15
    ct = encrypt(np.zeros(2 ** 15), SimParams(n=2 ** 15))
    with pytest.raises(CapacityError):
        vec_unpack(ct, (2000,) * 17)


def test_concat_stage_rejects_bad_groups_at_construction():
    with pytest.raises(ValueError, match="each at least 1"):
        ConcatStage(((4, 0),))
    with pytest.raises(ValueError, match="needs sizes"):
        ConcatStage(((),))
    with pytest.raises(ValueError, match="at least one group"):
        ConcatStage(())


def test_unpacked_lengths_per_stage():
    assert ConcatStage(((4, 4), (3,))).unpacked_lengths([8, 3]) == [4, 4, 3]
    assert ConcatStage(((2, 5),)).unpacked_lengths([7, 7]) == [2, 5, 2, 5]
    with pytest.raises(ValueError, match="repeat every 2 ciphertexts, got 1"):
        ConcatStage(((4, 4), (3,))).unpacked_lengths([8])
    assert ImgPairStage(4, 2).unpacked_lengths([4, 4]) == [4, 2, 4, 2]
    assert BitStackLayout((4, 4)).unpacked_lengths([6]) == [6, 6]
    assert CrtBasis((3, 5)).unpacked_lengths([4, 9]) == [4, 4, 9, 9]


def test_vec_round_trip():
    params = params_with_stats(8)
    ct = encrypt(vec_pack([[1, 2], [3, 4]], (2, 2)), params)
    a, b = vec_unpack(ct, (2, 2))
    assert np.array_equal(decrypt(a), [1, 2, 0, 0, 0, 0, 0, 0])
    assert np.array_equal(decrypt(b), [3, 4, 0, 0, 0, 0, 0, 0])
    assert a.level == ct.level - 1 and b.level == ct.level - 1


def test_vec_unpack_single_message_rotation_step_zero():
    params = params_with_stats(8)
    ct = encrypt([9, 9, 9], params)
    (only,) = vec_unpack(ct, (3,))
    assert np.array_equal(decrypt(only)[:3], [9, 9, 9])
    assert params.stats.rotations == 1  # the identity step still goes through the batch


def test_vec_unpack_rotation_budget():
    params = params_with_stats(64)
    sizes = (5, 7, 3, 9)
    rng = np.random.default_rng(0)
    vectors = [rng.normal(size=s) for s in sizes]
    ct = encrypt(vec_pack(vectors, sizes), params)
    outs = vec_unpack(ct, sizes)
    assert params.stats.rotations == len(sizes)
    for v, out in zip(vectors, outs):
        got = decrypt(out)
        assert np.max(np.abs(got[: len(v)].real - v)) <= 1e-12
        assert np.max(np.abs(got[len(v):])) == 0.0


# ---------------------------------------------------------------------------
# ImgConcat
# ---------------------------------------------------------------------------


def test_img_pack_scalar_example():
    assert img_pack([1.0], [2.0])[0] == 1 + 2j


def test_img_pack_zero_imaginary():
    out = img_pack([1.0, 2.0], [0.0, 0.0])
    assert np.array_equal(out, [1.0 + 0j, 2.0 + 0j])


def test_img_unpack_scalar_example():
    params = params_with_stats(4)
    ct = encrypt([1 + 2j], params)
    a, b = img_unpack(ct, 1, 1)
    assert decrypt(a)[0] == pytest.approx(1.0)
    assert decrypt(b)[0] == pytest.approx(2.0)
    assert a.level == ct.level - 1 and b.level == ct.level - 1
    assert params.stats.conjugations == 1


def test_img_unpack_pure_real():
    params = params_with_stats(4)
    a, b = img_unpack(encrypt([3.0, 4.0], params), 2, 2)
    assert np.allclose(decrypt(a)[:2].real, [3, 4])
    assert np.max(np.abs(decrypt(b))) <= 1e-12


def test_img_round_trip_random():
    params = SimParams(n=16)
    rng = np.random.default_rng(2)
    for _ in range(100):
        av, bv = rng.normal(size=10), rng.normal(size=6)
        ct = encrypt(img_pack(av, bv), params)
        a, b = img_unpack(ct, 10, 6)
        assert np.max(np.abs(decrypt(a)[:10] - av)) <= 1e-12
        assert np.max(np.abs(decrypt(b)[:6] - bv)) <= 1e-12


@pytest.mark.parametrize("sigma,dtype", [(0.0, np.float64), (1e-9, np.complex128)])
def test_img_unpack_halves_are_real_slots_only_with_the_noise_off(sigma, dtype):
    # the masks leave no imaginary part, so the exact products narrow; noisy ones cannot
    rng = np.random.default_rng(4)
    params = SimParams(n=16, noise_stddev=sigma, seed=2)
    av, bv = rng.normal(size=10), rng.normal(size=6)
    for half, want in zip(img_unpack(encrypt(img_pack(av, bv), params), 10, 6), (av, bv)):
        assert half.slots.dtype == dtype
        assert np.max(np.abs(decrypt(half)[: want.size] - want)) <= 1e-7


# ---------------------------------------------------------------------------
# BitStack
# ---------------------------------------------------------------------------


def test_bitstack_pack_example():
    layout = BitStackLayout((4, 4))
    out = bitstack_pack([[3], [2]], layout)
    assert out[0] == 11  # 3 + 2*4


def test_bitstack_pack_zeros():
    layout = BitStackLayout((8, 8, 8))
    assert np.array_equal(bitstack_pack([[0], [0], [0]], layout), [0])


def test_bitstack_pack_matches_shift_oracle():
    layout = BitStackLayout((4, 4, 4))
    rng = np.random.default_rng(3)
    vals = [rng.integers(0, 4, 1000) for _ in range(3)]
    packed = bitstack_pack(vals, layout)
    oracle = vals[0] | (vals[1] << 2) | (vals[2] << 4)
    assert np.array_equal(packed, oracle)
    # and the shift/mask decode recovers each layer
    assert np.array_equal(packed & 3, vals[0])
    assert np.array_equal((packed >> 2) & 3, vals[1])
    assert np.array_equal((packed >> 4) & 3, vals[2])


def test_bitstack_pack_range_violation_names_element():
    layout = BitStackLayout((4, 4))
    with pytest.raises(ValueError, match="layer 1 element 2"):
        bitstack_pack([[0, 1, 2], [1, 0, 4]], layout)


def test_bitstack_single_layer_unpack_is_identity():
    params = SimParams(n=8)
    layout = BitStackLayout((4,))
    ct = encrypt([1, 2, 3], params)
    (out,) = bitstack_unpack(ct, layout)
    assert out is ct


def test_bitstack_unpack_missing_plans_rejected():
    ct = encrypt([1], SimParams(n=8))
    with pytest.raises(ValueError, match="plan"):
        bitstack_unpack(ct, BitStackLayout((4, 4)))


def test_bitstack_plan_specs_intervals():
    # layer i covers the residual range after stripping earlier layers
    assert bitstack_plan_specs([4, 4, 4]) == [(4, 63), (4, 15)]
    assert bitstack_plan_specs([16, 16]) == [(16, 255)]


def test_bitstack_layout_plan_mismatch_rejected():
    wrong = (fit_modp(4, 15, 45, 100.0), fit_modp(4, 15, 45, 100.0))
    with pytest.raises(ValueError, match="layer needs"):
        BitStackLayout((4, 4, 4), wrong)


def bitstack_fixture(D, radix=4, layers=3, batch=512, n=512):
    params = SimParams(n=n)
    rng = np.random.default_rng(D)
    data = [rng.integers(0, radix, batch) for _ in range(layers)]
    plans = tuple(fit_modp(p, B, D, 100.0) for p, B in bitstack_plan_specs([radix] * layers))
    layout = BitStackLayout((radix,) * layers, plans)
    ct = encrypt(bitstack_pack(data, layout), params)
    outs = bitstack_unpack(ct, layout)
    errors = [float(np.mean(np.abs(decrypt(o)[:batch].real - t))) for o, t in zip(outs, data)]
    return data, outs, errors


def test_bitstack_two_layer_16bit_errors():
    _, _, errors = bitstack_fixture(400, radix=16, layers=2)
    assert errors[0] <= 1e-3  # reference run: 5.16e-4
    assert errors[1] <= 1e-4  # reference run: 3.22e-5


def test_bitstack_three_layer_depth_ledger():
    _, outs90, errs90 = bitstack_fixture(90)
    assert [o.level for o in outs90] == [16, 7, 7]
    _, outs210, errs210 = bitstack_fixture(210)
    assert [o.level for o in outs210] == [15, 5, 5]
    for errs, bounds in ((errs90, (1e-4, 1e-2, 1e-3)), (errs210, (1e-4, 1e-3, 1e-4))):
        for err, bound in zip(errs, bounds):
            assert err <= bound
    # serial unpacking accumulates: middle layer above the final one
    assert errs90[1] >= errs90[2]
    assert errs210[1] >= errs210[2]


def test_bitstack_unpack_survives_mild_noise():
    # with per-multiplication noise at realistic approximation levels the
    # integer decode still succeeds, and the run is seed-reproducible
    def run():
        params = SimParams(n=256, noise_stddev=1e-7, seed=11)
        rng = np.random.default_rng(0)
        data = [rng.integers(0, 4, 256) for _ in range(3)]
        plans = tuple(fit_modp(p, B, 90, 100.0)
                      for p, B in bitstack_plan_specs([4, 4, 4]))
        layout = BitStackLayout((4, 4, 4), plans)
        ct = encrypt(bitstack_pack(data, layout), params)
        return data, bitstack_unpack(ct, layout)

    data, outs = run()
    for truth, out in zip(data, outs):
        got = decrypt(out)[:256].real
        assert np.array_equal(np.rint(got), truth)
        assert np.mean(np.abs(got - truth)) > 1e-9  # noise really was injected
    _, outs_again = run()
    for a, b in zip(outs, outs_again):
        assert np.array_equal(a.slots, b.slots)


# ---------------------------------------------------------------------------
# CrtStack
# ---------------------------------------------------------------------------


def brute_force_crt(residues, moduli):
    P = int(np.prod(moduli))
    for x in range(P):
        if all(x % p == r for r, p in zip(residues, moduli)):
            return x
    raise AssertionError("no CRT solution found")


def test_crt_pack_brute_force_example():
    basis = CrtBasis((4, 5, 7))
    assert brute_force_crt([1, 2, 3], [4, 5, 7]) == 17
    assert crt_pack([[1], [2], [3]], basis)[0] == 17


def test_crt_pack_zeros():
    assert crt_pack([[0], [0], [0]], CrtBasis((4, 5, 7)))[0] == 0


def test_crt_pack_definitional_property():
    basis = CrtBasis((4, 5, 7))
    rng = np.random.default_rng(4)
    vals = [rng.integers(0, p, 500) for p in (4, 5, 7)]
    packed = crt_pack(vals, basis)
    assert np.all(packed < basis.P) and np.all(packed >= 0)
    for v, p in zip(vals, (4, 5, 7)):
        assert np.array_equal(packed % p, v)


@pytest.mark.parametrize("moduli", [(255, 256, 257), (3, 5, 7, 11, 13, 16, 17)])
def test_crt_pack_reduces_once_to_the_integers_of_a_reduction_per_term(moduli):
    # P = 16776960 sits just below the 2^24 guard; the second basis has seven
    # terms.  All residues at p - 1 make every term its largest, and the one
    # reduction of their sum must give what a reduction after each term gave.
    basis = CrtBasis(moduli)
    rng = np.random.default_rng(len(moduli))
    vals = [np.r_[p - 1, rng.integers(0, p, 99)] for p in moduli]
    per_term = np.zeros(100, dtype=np.int64)
    for v, b in zip(vals, basis.recombinants):
        per_term = (per_term + v * b) % basis.P
    packed = crt_pack(vals, basis)
    assert packed.dtype == np.int64 and np.array_equal(packed, per_term)
    assert packed[0] == basis.P - 1  # -1 modulo every modulus
    exact = [sum(int(v[i]) * b for v, b in zip(vals, basis.recombinants)) % basis.P
             for i in range(100)]
    assert packed.tolist() == exact


def test_crt_recombinants_inverse_property():
    basis = CrtBasis((9, 10))
    for p, b in zip(basis.moduli, basis.recombinants):
        P_i = basis.P // p
        assert (b - P_i * pow(P_i, -1, p)) % basis.P == 0
        assert b % p == 1


def test_crt_range_violation():
    with pytest.raises(ValueError, match="layer 1 element 0"):
        crt_pack([[1], [5]], CrtBasis((4, 5)))
    with pytest.raises(ValueError, match="expected 2 layers, got 1"):
        crt_pack([[1]], CrtBasis((4, 5)))


@pytest.mark.parametrize("pack,stage", [(crt_pack, CrtBasis((3, 5))),
                                        (bitstack_pack, BitStackLayout((3, 5)))])
@pytest.mark.parametrize("value", [1.5, float("nan")])
def test_stacking_rejects_non_integer_values(pack, stage, value):
    # the int64 cast would truncate a fraction and turn a NaN into garbage
    with pytest.raises(ValueError, match="layer 1 element 2 out of range"):
        pack([[1.0, 2.0, 0.0], [0.0, 1.0, value]], stage)


@pytest.mark.parametrize("pack,stage", [(crt_pack, CrtBasis((3, 5))),
                                        (bitstack_pack, BitStackLayout((3, 5)))])
def test_stacking_accepts_integral_floats(pack, stage):
    ints = [[1, 2, 0, 1], [4, 0, 3, 2]]
    got = pack([np.asarray(v, dtype=float) for v in ints], stage)
    assert got.dtype == np.int64 and np.array_equal(got, pack(ints, stage))


def test_crt_basis_validation():
    with pytest.raises(ValueError, match="coprime"):
        CrtBasis((4, 6))
    with pytest.raises(CapacityError):
        CrtBasis((1 << 13, (1 << 12) + 1))
    with pytest.raises(ValueError, match="moduli must all be at least 2"):
        CrtBasis((1, 3))
    # BitStackLayout checks its radices and its range the same way
    with pytest.raises(ValueError, match="radices must all be at least 2"):
        BitStackLayout((1, 4))
    with pytest.raises(CapacityError, match="stacked range exceeds the exact-double guard"):
        BitStackLayout((1 << 12, 1 << 13))


def test_stages_with_plans_compare_without_raising():
    # Plans compare by identity: memoised fits make one key's stages equal, and
    # an equal-valued copy of a plan makes a different, not an ambiguous, stage.
    assert cli._crt_basis() == cli._crt_basis()
    plans = tuple(fit_modp(p, B, 45, 100.0) for p, B in bitstack_plan_specs((4, 4)))
    assert BitStackLayout((4, 4), plans) == BitStackLayout((4, 4), plans)
    copies = tuple(plan_from_dict(plan_to_dict(plan)) for plan in plans)
    assert BitStackLayout((4, 4), plans) != BitStackLayout((4, 4), copies)
    assert hash(BitStackLayout((4, 4), plans)) == hash(BitStackLayout((4, 4), plans))


def test_crt_unpack_acceptance_shape():
    params = SimParams(n=512)
    rng = np.random.default_rng(5)
    data = [rng.integers(0, p, 512) for p in (4, 5, 7)]
    plans = tuple(fit_modp(p, 139, 210, 100.0) for p in (4, 5, 7))
    basis = CrtBasis((4, 5, 7), plans)
    ct = encrypt(crt_pack(data, basis), params)
    outs = crt_unpack(ct, basis)
    for truth, out in zip(data, outs):
        assert np.mean(np.abs(decrypt(out)[:512].real - truth)) <= 1e-5
    # all layers start from the same input, so depth is identical
    assert [o.level for o in outs] == [15, 15, 15]
    # One domain map and one power basis serve the three plans: 76 ct x ct,
    # where a map and a basis per plan spent 102 (and 570 plain, 717 adds).
    stats = params.stats
    assert (stats.ct_mults, stats.plain_mults, stats.adds) == (76, 568, 663)


def test_crt_unpack_noise_reproducible():
    # Every layer draws from the one noise stream in a fixed order, so equal
    # seeds give bit-identical layers.
    rng = np.random.default_rng(6)
    data = [rng.integers(0, p, 64) for p in (3, 5)]
    plans = tuple(fit_modp(p, 14, 30, 100.0) for p in (3, 5))
    basis = CrtBasis((3, 5), plans)

    def run(seed):
        params = SimParams(n=64, noise_stddev=1e-9, seed=seed)
        return crt_unpack(encrypt(crt_pack(data, basis), params), basis)

    first, second = run(21), run(21)
    for a, b in zip(first, second):
        assert np.array_equal(a.slots, b.slots) and a.level == b.level
    # the noise is on: another seed moves every layer
    for a, b in zip(first, run(22)):
        assert not np.array_equal(a.slots, b.slots)


def test_crt_single_modulus_identity():
    params = SimParams(n=8)
    plan = fit_modp(7, 6, 12, 10.0)
    basis = CrtBasis((7,), (plan,))
    ct = encrypt([0, 1, 2, 3, 4, 5, 6], params)
    (out,) = crt_unpack(ct, basis)
    got = decrypt(out)[:7].real
    assert np.max(np.abs(got - np.arange(7))) <= 10 * max(plan.residual, 1e-12)


def test_crt_layer_independence():
    basis = CrtBasis((4, 5, 7))
    rng = np.random.default_rng(7)
    vals = [rng.integers(0, p, 32) for p in (4, 5, 7)]
    packed = crt_pack(vals, basis)
    bumped_vals = [v.copy() for v in vals]
    bumped_vals[1] = (bumped_vals[1] + 1) % 5
    bumped = crt_pack(bumped_vals, basis)
    assert np.array_equal(packed % 4, bumped % 4)
    assert np.array_equal(packed % 7, bumped % 7)
    assert not np.array_equal(packed % 5, bumped % 5)


# ---------------------------------------------------------------------------
# Pipelines
# ---------------------------------------------------------------------------


def fig_layout(vec_len, D=150):
    """Six vectors -> concat to 4 -> CrtStack (9, 10) to 2 -> ImgPair to 1."""
    P = 90
    plans = tuple(fit_modp(p, P - 1, D) for p in (9, 10))  # auto-suggested delta
    return (
        ConcatStage(((vec_len, vec_len), (vec_len, vec_len), (vec_len,), (vec_len,))),
        CrtBasis((9, 10), plans),
        ImgPairStage(2 * vec_len, vec_len),
    )


def test_pipeline_fig_combination_round_trip():
    params = SimParams(n=32)
    layout = fig_layout(4)
    rng = np.random.default_rng(8)
    data = [rng.integers(0, 9, 4) for _ in range(6)]
    packed = pipeline_pack(data, layout)
    assert len(packed) == 1 and np.iscomplexobj(packed[0])
    outs = pipeline_unpack([encrypt(v, params) for v in packed], layout)
    assert len(outs) == 6
    for truth, out in zip(data, outs):
        assert np.max(np.abs(decrypt(out)[:4].real - truth)) <= 1e-5


def test_pipeline_empty_is_identity():
    layout = ()
    data = [np.arange(3.0)]
    assert np.array_equal(pipeline_pack(data, layout)[0], data[0])
    params = SimParams(n=8)
    ct = encrypt([1, 2], params)
    assert pipeline_unpack([ct], layout) == [ct]


def test_pipeline_repeats_multi_group_layout():
    # Twice the vectors the concat groups cover: the groups repeat in order,
    # through the CRT and pairing stages, and back.
    layout = fig_layout(4)
    rng = np.random.default_rng(13)
    data = [rng.integers(0, 9, 4) for _ in range(12)]
    packed = pipeline_pack(data, layout)
    assert len(packed) == 2
    outs = pipeline_unpack([encrypt(v, SimParams(n=32)) for v in packed], layout)
    assert len(outs) == 12
    for truth, out in zip(data, outs):
        assert np.max(np.abs(decrypt(out)[:4].real - truth)) <= 1e-5


def test_concat_count_off_the_cycle_raises():
    # two groups cycle every 3 vectors when packing and every 2 ciphertexts
    # when unpacking
    stage = ConcatStage(((4, 2), (3,)))
    with pytest.raises(ValueError, match="repeat every 3 vectors, got 4"):
        stage.pack([np.zeros(4), np.zeros(2), np.zeros(3), np.zeros(4)])
    # unpack raises when it is called, not when its first output is drawn
    with pytest.raises(ValueError, match="repeat every 2 ciphertexts, got 3"):
        stage.unpack([encrypt(np.zeros(4), SimParams(n=8))] * 3)


def test_unpack_stream_runs_earlier_stages_at_call_and_the_last_as_drawn():
    layout = fig_layout(4)
    params = params_with_stats(32)
    rng = np.random.default_rng(21)
    data = [rng.integers(0, 9, 4) for _ in range(6)]
    cts = [encrypt(v, params) for v in pipeline_pack(data, layout)]
    stream = unpack_stream(cts, layout)
    # ImgPair and CRT have run in full; the concat stage has rotated nothing.
    assert params.stats.conjugations == 1 and params.stats.rotations == 0
    first = next(stream)
    assert params.stats.rotations == 2  # the first group, (4, 4), alone
    rest = list(stream)
    assert params.stats.rotations == 6 and len(rest) == 5
    for truth, out in zip(data, [first, *rest]):
        assert np.max(np.abs(out.slots[:4].real - truth)) <= 1e-5


def _stream_case(name):
    """(layout, data, n) of a layout the stream tests unpack."""
    rng = np.random.default_rng(23)
    if name == "combine":
        return (cli.combine2_layout(4096),
                [rng.integers(0, 4, cli.COMBINE_LEN) for _ in range(12)], 4096)
    if name == "fig":
        return fig_layout(4), [rng.integers(0, 9, 4) for _ in range(6)], 32
    if name == "bitstack":
        radices = (4, 4, 4)
        plans = tuple(fit_modp(p, B, 90, 100.0) for p, B in bitstack_plan_specs(radices))
        return ((BitStackLayout(radices, plans),),
                [rng.integers(0, 4, 16) for _ in radices], 16)
    basis = cli._crt_basis()
    return (basis,), [rng.integers(0, p, 16) for p in basis.moduli], 16


@pytest.mark.parametrize("sigma", [0.0, 1e-9])
@pytest.mark.parametrize("name", ["combine", "fig", "bitstack", "crt"])
def test_cli_unpack_matches_pipeline_unpack_then_trims(name, sigma):
    # The CLI draws each output of the last stage, trims it and drops it;
    # that gives the bytes, levels and op counts of the whole list trimmed.
    layout, data, n = _stream_case(name)
    cfg = cli.RunConfig(sim=SimParams(n=n, noise_stddev=sigma, seed=1))
    packed = pipeline_pack(data, layout)
    recovered, res = cli._unpack(cfg, packed, layout)
    params = replace(cfg.sim, stats=OpStats())
    outs = pipeline_unpack([encrypt(v, params) for v in packed], layout)
    assert [ct.slots[: len(v)].real.tobytes() for ct, v in zip(outs, data)] == \
        [v.tobytes() for v in recovered]
    assert len(outs) == len(recovered) == len(data)
    assert res["levels"] == [ct.level for ct in outs]
    assert res["stats"] == params.stats  # every OpStats field


def test_cli_unpack_never_holds_every_full_slot_output():
    n = 2 ** 13
    layout = cli.combine2_layout(n)
    rng = np.random.default_rng(24)
    data = [rng.integers(0, 4, cli.COMBINE_LEN) for _ in range(cli.COMBINE_VECTORS)]
    packed = pipeline_pack(data, layout)
    cfg = cli.RunConfig(sim=SimParams(n=n))
    outs = pipeline_unpack([encrypt(v, cfg.sim) for v in packed], layout)  # compiles the plans
    full = sum(ct.slots.nbytes for ct in outs)
    assert len(outs) == cli.COMBINE_VECTORS
    del outs
    tracemalloc.start()
    try:
        _, res = cli._unpack(cfg, packed, layout, data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(res["max_errors"]) <= 1e-4
    assert peak < full, (peak, full)


class _HalvedImgPair(ImgPairStage):
    """An ImgPair stage whose unpack yields only the first half of each pair."""

    def unpack(self, cts):
        return (img_unpack(ct, self.n1, self.n2)[0] for ct in cts)


class _DoubledImgPair(ImgPairStage):
    """An ImgPair stage whose unpack yields each pair twice."""

    def unpack(self, cts):
        return (v for ct in cts for v in 2 * img_unpack(ct, self.n1, self.n2))


@pytest.mark.parametrize("stage_type", [_HalvedImgPair, _DoubledImgPair])
def test_cli_unpack_rejects_a_stage_yielding_other_than_its_lengths(stage_type):
    # unpacked_lengths promises two outputs per pair; fewer or more raise
    # rather than being cut to the shorter of the two.
    stage = stage_type(3, 3)
    packed = stage.pack([np.arange(3.0), np.arange(3.0)])
    with pytest.raises(ValueError, match="zip"):
        cli._unpack(cli.RunConfig(sim=SimParams(n=4)), packed, (stage,))


def test_pipeline_shape_mismatch_errors():
    layout = (ConcatStage(((2, 2),)),)
    with pytest.raises(ValueError):
        pipeline_pack([np.zeros(2)], layout)  # group wants two vectors
    with pytest.raises(ValueError, match="vector 1 has length 3, layout expects 2"):
        pipeline_pack([np.zeros(2), np.zeros(3)], layout)
    with pytest.raises(ValueError, match="expected 2 vectors, got 1"):
        vec_pack([np.zeros(2)], (2, 2))  # a concat stage always passes a whole group
    stack = (CrtBasis((4, 5)),)
    with pytest.raises(ValueError):
        pipeline_pack([np.zeros(4), np.zeros(5)], stack)  # unequal lengths
    img = (ImgPairStage(3, 3),)
    with pytest.raises(ValueError):
        pipeline_pack([np.zeros(3)], img)  # odd count
    with pytest.raises(ValueError, match=r"expects lengths \(3, 3\), got \(3, 2\)"):
        pipeline_pack([np.zeros(3), np.zeros(2)], img)


def test_layout_json_round_trip(tmp_path):
    layout = fig_layout(4, D=150)
    path = tmp_path / "layout.json"
    save_layout(layout, path)
    loaded = load_layout(path)
    params = SimParams(n=32)
    rng = np.random.default_rng(9)
    data = [rng.integers(0, 9, 4) for _ in range(6)]
    packed_a = pipeline_pack(data, layout)
    packed_b = pipeline_pack(data, loaded)
    assert np.array_equal(packed_a[0], packed_b[0])
    outs = pipeline_unpack([encrypt(packed_b[0], params)], loaded)
    for truth, out in zip(data, outs):
        assert np.max(np.abs(decrypt(out)[:4].real - truth)) <= 1e-5


def test_layout_json_template_form(tmp_path):
    import json
    plan = fit_modp(3, 14, 30, 100.0)
    plan2 = fit_modp(5, 14, 30, 100.0)
    layout = (
        ConcatStage(((4, 4),)),
        CrtBasis((3, 5), (plan, plan2)),
    )
    path = tmp_path / "layout.json"
    save_layout(layout, path)
    doc = json.loads(path.read_text())
    assert doc["stages"][0] == {"kind": "concat", "groups": [[4, 4]]}
    assert doc["stages"][1]["kind"] == "crt"
    loaded = load_layout(path)
    rng = np.random.default_rng(10)
    data = [rng.integers(0, 3, 4) for _ in range(4)]
    packed = pipeline_pack(data, loaded)
    assert len(packed) == 1
    params = SimParams(n=16)
    outs = pipeline_unpack([encrypt(packed[0], params)], loaded)
    assert len(outs) == 4
    for truth, out in zip(data, outs):
        assert np.max(np.abs(decrypt(out)[:4].real - truth)) <= 1e-4


@pytest.mark.parametrize("radices,spelling", [
    ((4, 4, 4), {"radices": [4, 4, 4]}),  # power-of-two radices save as radices too
    ((3, 5), {"radices": [3, 5]}),
])
def test_layout_json_bitstack_round_trip(tmp_path, radices, spelling):
    import json
    plans = tuple(fit_modp(p, B, 90, 100.0) for p, B in bitstack_plan_specs(radices))
    layout = (BitStackLayout(radices, plans),)
    rng = np.random.default_rng(11)
    data = [rng.integers(0, r, 8) for r in radices]
    path = tmp_path / "layout.json"
    save_layout(layout, path)
    files = [f"layout-stage0-layer{i}.plan.json" for i in range(len(plans))]
    doc = {"stages": [{"kind": "bitstack", "plan_files": files, **spelling}]}
    assert path.read_text() == json.dumps(doc, indent=2) + "\n"
    loaded = load_layout(path)
    assert loaded[0].radices == radices
    packed = pipeline_pack(data, loaded)
    assert np.array_equal(packed[0], pipeline_pack(data, layout)[0])
    outs = pipeline_unpack([encrypt(packed[0], SimParams(n=16))], loaded)
    for truth, out in zip(data, outs):
        assert np.max(np.abs(decrypt(out)[:8].real - truth)) <= 1e-4


def test_layout_json_plan_files_only_for_stages_that_fit_plans(tmp_path):
    import json
    # Only crt and bitstack entries read plan files, so a concat entry naming
    # a missing one loads.  The crt entry lists its plan files after its
    # moduli and the bitstack entry an empty list, as files written before
    # "plan_files" moved behind "kind" do; both still load.
    plans = (fit_modp(3, 14, 30, 100.0), fit_modp(5, 14, 30, 100.0))
    for name, plan in zip(("p3.json", "p5.json"), plans):
        save_plan(plan, tmp_path / name)
    path = tmp_path / "layout.json"
    path.write_text(json.dumps({"stages": [
        {"kind": "concat", "groups": [[2, 2]], "plan_files": ["nope.json"]},
        {"kind": "crt", "moduli": [3, 5], "plan_files": ["p3.json", "p5.json"]},
        {"kind": "bitstack", "plan_files": [], "radices": [16]}]}))
    loaded = load_layout(path)
    data = [[1, 2], [0, 1], [4, 0], [3, 2]]
    packed = pipeline_pack(data, loaded)
    built = (ConcatStage(((2, 2),)), CrtBasis((3, 5), plans), BitStackLayout((16,)))
    assert [v.tolist() for v in packed] == [[4, 5, 3, 7]]
    assert np.array_equal(packed[0], pipeline_pack(data, built)[0])
    assert all(np.array_equal(a.series.coeffs, b.series.coeffs)
               for a, b in zip(loaded[1].plans, plans))
    # Saving writes plan_files for the crt entry only, right after its kind.
    save_layout(loaded, tmp_path / "saved.json")
    stages = json.loads((tmp_path / "saved.json").read_text())["stages"]
    assert stages[0] == {"kind": "concat", "groups": [[2, 2]]}
    assert list(stages[1].items()) == [
        ("kind", "crt"),
        ("plan_files", ["saved-stage1-layer0.plan.json", "saved-stage1-layer1.plan.json"]),
        ("moduli", [3, 5])]
    assert stages[2] == {"kind": "bitstack", "radices": [16]}
