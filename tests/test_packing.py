import numpy as np
import pytest

from modpack.fitting import fit_modp
from modpack.hesim import OpStats, SimParams, decrypt, encrypt
from modpack.packing import (BitStackLayout, CapacityError, ConcatStage,
                             CrtBasis, ImgPairStage, PackLayout, bitstack_pack,
                             bitstack_plan_specs, bitstack_unpack, crt_pack,
                             crt_unpack, img_pack, img_unpack, load_layout,
                             pipeline_pack, pipeline_unpack, repack_repeat,
                             save_layout, vec_pack, vec_unpack)


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
        ConcatStage(template=(4, 0))
    with pytest.raises(ValueError, match="needs sizes"):
        ConcatStage(groups=((),))


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
    assert params.stats.rotate_batches == 1
    assert params.stats.rotations == 1  # the identity step still goes through the batch


def test_vec_unpack_rotation_budget():
    params = params_with_stats(64)
    sizes = (5, 7, 3, 9)
    rng = np.random.default_rng(0)
    vectors = [rng.normal(size=s) for s in sizes]
    ct = encrypt(vec_pack(vectors, sizes), params)
    outs = vec_unpack(ct, sizes)
    assert params.stats.rotate_batches == 1
    assert params.stats.rotations == len(sizes)
    for v, out in zip(vectors, outs):
        got = decrypt(out)
        assert np.max(np.abs(got[: len(v)].real - v)) <= 1e-12
        assert np.max(np.abs(got[len(v):])) == 0.0


def test_repack_repeat_basic():
    params = params_with_stats(8)
    ct = encrypt([7, 8], params)
    out = repack_repeat(ct, 2, 3)
    assert np.array_equal(decrypt(out), [7, 8, 7, 8, 7, 8, 0, 0])
    assert out.level == ct.level  # additions and rotations only


def test_repack_repeat_identity():
    params = params_with_stats(8)
    ct = encrypt([1, 2, 3], params)
    assert repack_repeat(ct, 3, 1) is ct


def test_repack_repeat_matches_tiling_and_rotation_budget():
    params = params_with_stats(32)
    rng = np.random.default_rng(1)
    x = rng.normal(size=3)
    ct = encrypt(x, params)
    r = 5
    out = repack_repeat(ct, 3, r)
    want = np.zeros(32)
    want[: 3 * r] = np.tile(x, r)
    assert np.max(np.abs(decrypt(out).real - want)) <= 1e-12
    assert params.stats.rotations <= 2 * int(np.floor(np.log2(r))) + 1


def test_repack_repeat_capacity_guard():
    ct = encrypt([1, 2], SimParams(n=8))
    with pytest.raises(CapacityError):
        repack_repeat(ct, 2, 5)


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


# ---------------------------------------------------------------------------
# BitStack
# ---------------------------------------------------------------------------


def test_bitstack_pack_example():
    layout = BitStackLayout.from_bit_widths([2, 2])
    out = bitstack_pack([[3], [2]], layout)
    assert out[0] == 11  # 3 + 2*4


def test_bitstack_pack_zeros():
    layout = BitStackLayout.from_bit_widths([3, 3, 3])
    assert np.array_equal(bitstack_pack([[0], [0], [0]], layout), [0])


def test_bitstack_pack_matches_shift_oracle():
    layout = BitStackLayout.from_bit_widths([2, 2, 2])
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
    layout = BitStackLayout.from_bit_widths([2, 2])
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


def test_crt_recombinants_inverse_property():
    basis = CrtBasis((9, 10))
    for p, b in zip(basis.moduli, basis.recombinants):
        P_i = basis.P // p
        assert (b - P_i * pow(P_i, -1, p)) % basis.P == 0
        assert b % p == 1


def test_crt_range_violation():
    with pytest.raises(ValueError, match="layer 1 element 0"):
        crt_pack([[1], [5]], CrtBasis((4, 5)))


def test_crt_basis_validation():
    with pytest.raises(ValueError, match="coprime"):
        CrtBasis((4, 6))
    with pytest.raises(CapacityError):
        CrtBasis((1 << 13, (1 << 12) + 1))


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
        assert out.level >= 14
    # all layers start from the same input, so depth is identical
    assert len({o.level for o in outs}) == 1


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
    return PackLayout((
        ConcatStage(groups=((vec_len, vec_len), (vec_len, vec_len), (vec_len,), (vec_len,))),
        CrtBasis((9, 10), plans),
        ImgPairStage(2 * vec_len, vec_len),
    ))


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
    layout = PackLayout(())
    data = [np.arange(3.0)]
    assert np.array_equal(pipeline_pack(data, layout)[0], data[0])
    params = SimParams(n=8)
    ct = encrypt([1, 2], params)
    assert pipeline_unpack([ct], layout) == [ct]


def test_pipeline_shape_mismatch_errors():
    layout = PackLayout((ConcatStage(groups=((2, 2),)),))
    with pytest.raises(ValueError):
        pipeline_pack([np.zeros(2)], layout)  # group wants two vectors
    stack = PackLayout((CrtBasis((4, 5)),))
    with pytest.raises(ValueError):
        pipeline_pack([np.zeros(4), np.zeros(5)], stack)  # unequal lengths
    img = PackLayout((ImgPairStage(3, 3),))
    with pytest.raises(ValueError):
        pipeline_pack([np.zeros(3)], img)  # odd count


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


def test_layout_json_custom_plan_dir(tmp_path):
    layout = fig_layout(4, D=150)
    path = tmp_path / "layout.json"
    save_layout(layout, path, plan_dir=tmp_path / "plans")
    assert (tmp_path / "plans").is_dir()
    loaded = load_layout(path)
    stack = loaded.stages[1]
    assert np.array_equal(stack.plans[0].series.coeffs,
                          layout.stages[1].plans[0].series.coeffs)


def test_layout_json_template_form(tmp_path):
    import json
    plan = fit_modp(3, 14, 30, 100.0)
    plan2 = fit_modp(5, 14, 30, 100.0)
    layout = PackLayout((
        ConcatStage(template=(4, 4)),
        CrtBasis((3, 5), (plan, plan2)),
    ))
    path = tmp_path / "layout.json"
    save_layout(layout, path)
    doc = json.loads(path.read_text())
    assert doc["stages"][0] == {"kind": "concat", "sizes": [4, 4]}
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
    ((4, 4, 4), {"bit_widths": [2, 2, 2]}),  # power-of-two radices save as widths
    ((3, 5), {"radices": [3, 5]}),
])
def test_layout_json_bitstack_round_trip(tmp_path, radices, spelling):
    import json
    plans = tuple(fit_modp(p, B, 90, 100.0) for p, B in bitstack_plan_specs(radices))
    layout = PackLayout((BitStackLayout(radices, plans),))
    rng = np.random.default_rng(11)
    data = [rng.integers(0, r, 8) for r in radices]
    path = tmp_path / "layout.json"
    save_layout(layout, path)
    files = [f"layout-stage0-layer{i}.plan.json" for i in range(len(plans))]
    doc = {"stages": [{"kind": "bitstack", "plan_files": files, **spelling}]}
    assert path.read_text() == json.dumps(doc, indent=2) + "\n"
    loaded = load_layout(path)
    assert loaded.stages[0].radices == radices
    packed = pipeline_pack(data, loaded)
    assert np.array_equal(packed[0], pipeline_pack(data, layout)[0])
    outs = pipeline_unpack([encrypt(packed[0], SimParams(n=16))], loaded)
    for truth, out in zip(data, outs):
        assert np.max(np.abs(decrypt(out)[:8].real - truth)) <= 1e-4
