import numpy as np
import pytest

from modpack.fitting import fit_modp
from modpack.hesim import SimParams, decrypt, encrypt
from modpack.roundshare import (ReconstructNode, ShareSet, build_comp_plan,
                                ceil_he, comp_step, floor_he, round_he,
                                share_plan, shares_to_ct, shares_to_ct_tree)

PARAMS = SimParams(n=64)


def enc(values):
    return encrypt(np.asarray(values, dtype=float), PARAMS)


def dec(ct, count):
    return decrypt(ct)[:count].real


# ---------------------------------------------------------------------------
# Floor / comparison / Ceil / Round
# ---------------------------------------------------------------------------


def test_floor_examples():
    plan = fit_modp(4, 29, 45, 100.0)
    out = dec(floor_he(enc([13.0, 12.0]), 4, plan), 2)
    assert out == pytest.approx([3.0, 3.0], abs=1e-6)


def test_floor_mean_error_over_interval():
    plan = fit_modp(5, 29, 40, 100.0)
    xs = np.arange(30, dtype=float)
    got = dec(floor_he(enc(xs), 5, plan), 30)
    err = np.abs(got - np.floor(xs / 5))
    assert err.mean() <= 1e-7  # reference experiments report ~1e-9


def test_floor_spends_evaluation_depth_plus_one():
    plan = fit_modp(5, 29, 40, 100.0)
    ct = enc(np.arange(30.0))
    out = floor_he(ct, 5, plan)
    consumed = ct.level - out.level
    assert consumed == int(np.ceil(np.log2(40))) + 2


def test_floor_plan_modulus_checked():
    plan = fit_modp(4, 29, 45, 100.0)
    with pytest.raises(ValueError):
        floor_he(enc([1.0]), 5, plan)


def test_comp_step_threshold_half():
    plan = build_comp_plan(0.5, 4)
    out = dec(comp_step(enc([0.0, 1.0, 2.0, 3.0]), 4, plan), 4)
    assert out == pytest.approx([0, 1, 1, 1], abs=1e-6)


def test_comp_step_enumerated_threshold():
    # indicator r > 2.25 over r = 0..4, i.e. r >= 3
    plan = build_comp_plan(5 / 2 - 0.25, 5)
    out = dec(comp_step(enc(np.arange(5.0)), 5, plan), 5)
    want = [1.0 if r >= 3 else 0.0 for r in range(5)]
    assert out == pytest.approx(want, abs=1e-6)


def test_comp_step_all_zero_input():
    plan = build_comp_plan(0.5, 4)
    out = dec(comp_step(enc(np.zeros(8)), 4, plan), 8)
    assert np.max(np.abs(out)) <= 1e-6


def test_comp_step_tolerates_mod_residual():
    # inputs perturbed by a few residuals' worth still snap to the step
    mod_plan = fit_modp(4, 29, 45, 100.0)
    comp_plan = build_comp_plan(0.5, 4)
    wobble = 10 * max(mod_plan.residual, 1e-12)
    xs = np.array([0.0, 1.0, 2.0, 3.0]) + wobble
    out = dec(comp_step(enc(xs), 4, comp_plan), 4)
    assert out == pytest.approx([0, 1, 1, 1], abs=1e-4)


def test_comp_plan_rejects_integer_threshold():
    with pytest.raises(ValueError):
        build_comp_plan(1.0, 4)


def test_ceil_examples():
    plan = fit_modp(4, 29, 45, 100.0)
    comp = build_comp_plan(0.5, 4)
    out = dec(ceil_he(enc([13.0, 12.0]), 4, plan, comp), 2)
    assert out == pytest.approx([4.0, 3.0], abs=1e-5)


def test_ceil_whole_interval():
    plan = fit_modp(6, 29, 45, 100.0)
    comp = build_comp_plan(0.5, 6)
    xs = np.arange(30, dtype=float)
    got = dec(ceil_he(enc(xs), 6, plan, comp), 30)
    assert np.max(np.abs(got - np.ceil(xs / 6))) <= 1e-5


def test_round_examples():
    plan = fit_modp(5, 29, 45, 100.0)
    comp = build_comp_plan(5 / 2 - 0.25, 5)
    out = dec(round_he(enc([13.0, 12.0]), 5, plan, comp), 2)
    assert out == pytest.approx([3.0, 2.0], abs=1e-5)


def test_round_half_up_whole_interval():
    p = 4
    plan = fit_modp(p, 29, 45, 100.0)
    comp = build_comp_plan(p / 2 - 0.25, p)
    xs = np.arange(30, dtype=float)
    got = dec(round_he(enc(xs), p, plan, comp), 30)
    want = np.floor(xs / p + 0.5)  # half-up: r = p/2 rounds away from zero
    assert np.max(np.abs(got - want)) <= 1e-5


def test_rounding_coherence():
    p = 7
    plan = fit_modp(p, 29, 50, 100.0)
    comp_c = build_comp_plan(0.5, p)
    comp_r = build_comp_plan(p / 2 - 0.25, p)
    xs = np.arange(30, dtype=float)
    fl = np.rint(dec(floor_he(enc(xs), p, plan), 30))
    ce = np.rint(dec(ceil_he(enc(xs), p, plan, comp_c), 30))
    ro = np.rint(dec(round_he(enc(xs), p, plan, comp_r), 30))
    assert np.all(fl <= ro) and np.all(ro <= ce)
    assert set(np.unique(ce - fl)) <= {0.0, 1.0}


def test_comp_term_vanishes_on_exact_multiples():
    p = 6
    plan = fit_modp(p, 29, 50, 100.0)
    comp_c = build_comp_plan(0.5, p)
    multiples = np.array([0.0, 6.0, 12.0, 18.0, 24.0])
    remainder = decrypt(comp_step(enc(np.mod(multiples, p)), p, comp_c))[:5].real
    assert np.max(np.abs(remainder)) <= 10 * max(plan.residual, 1e-9)


# ---------------------------------------------------------------------------
# Secret shares
# ---------------------------------------------------------------------------


def test_shareset_validation_and_secret():
    s = ShareSet(16, (np.array([3, 10]), np.array([5, 12])))
    assert np.array_equal(s.secret(), [8, 6])
    with pytest.raises(ValueError):
        ShareSet(16, (np.array([16]),))


def test_shares_examples():
    plan = share_plan(16, 3)
    cts = [enc([v]) for v in (3.0, 5.0, 7.0)]
    assert dec(shares_to_ct(cts, plan), 1)[0] == pytest.approx(15.0, abs=1e-6)
    plan2 = share_plan(16, 2)
    cts2 = [enc([10.0]), enc([12.0])]
    assert dec(shares_to_ct(cts2, plan2), 1)[0] == pytest.approx(6.0, abs=1e-6)


def test_share_plan_degrees_follow_party_count():
    for parties, degree in zip(range(3, 9), (96, 128, 160, 192, 224, 256)):
        plan = share_plan(16, parties)
        assert plan.D == degree
        assert plan.B == parties * 15


def test_shares_four_party_error():
    rng = np.random.default_rng(0)
    shares = ShareSet(16, tuple(rng.integers(0, 16, 64) for _ in range(4)))
    plan = share_plan(16, 4)
    out = shares_to_ct([encrypt(s, PARAMS) for s in shares.shares], plan)
    err = np.abs(dec(out, 64) - shares.secret())
    assert err.mean() <= 1e-6  # reference experiments report ~1e-8


def test_shares_interval_overflow_rejected():
    plan = share_plan(16, 2)
    cts = [enc([1.0])] * 3
    with pytest.raises(ValueError):
        shares_to_ct(cts, plan)


def test_tree_reconstruction_error_and_ordering():
    rng = np.random.default_rng(1)
    shares = ShareSet(16, tuple(rng.integers(0, 16, 64) for _ in range(8)))
    cts = [encrypt(s, PARAMS) for s in shares.shares]
    direct_plan = share_plan(16, 8)
    direct = dec(shares_to_ct(cts, direct_plan), 64)
    child = share_plan(16, 4, D=128)
    root = fit_modp(16, 30, 128)
    node = ReconstructNode((ReconstructNode(tuple(range(4)), child),
                            ReconstructNode(tuple(range(4, 8)), child)), root)
    tree = dec(shares_to_ct_tree(cts, node), 64)
    truth = shares.secret()
    direct_err = np.abs(direct - truth).mean()
    tree_err = np.abs(tree - truth).mean()
    assert tree_err <= 1e-6
    assert tree_err > direct_err  # extra mod hops accumulate error
    assert np.array_equal(np.rint(tree) % 16, truth)


def test_degenerate_tree_matches_direct_bit_for_bit():
    rng = np.random.default_rng(2)
    shares = tuple(rng.integers(0, 16, 32) for _ in range(5))
    cts = [encrypt(s, PARAMS) for s in shares]
    plan = share_plan(16, 5)
    a = shares_to_ct(cts, plan)
    b = shares_to_ct_tree(cts, ReconstructNode(tuple(range(5)), plan))
    assert np.array_equal(a.slots, b.slots)
    assert a.level == b.level


def test_two_party_split_tree():
    shares = (np.array([9, 1]), np.array([11, 2]))
    cts = [enc(s) for s in shares]
    leaf_plan = share_plan(16, 1, D=40)
    root = fit_modp(16, 30, 128)
    node = ReconstructNode((ReconstructNode((0,), leaf_plan),
                            ReconstructNode((1,), leaf_plan)), root)
    got = dec(shares_to_ct_tree(cts, node), 2)
    assert got == pytest.approx([4.0, 3.0], abs=1e-5)


def test_tree_and_direct_decode_to_the_same_secret():
    rng = np.random.default_rng(4)
    shares = ShareSet(16, tuple(rng.integers(0, 16, 48) for _ in range(8)))
    cts = [encrypt(s, PARAMS) for s in shares.shares]
    direct = dec(shares_to_ct(cts, share_plan(16, 8)), 48)
    child = share_plan(16, 4, D=128)
    node = ReconstructNode((ReconstructNode(tuple(range(4)), child),
                            ReconstructNode(tuple(range(4, 8)), child)),
                           fit_modp(16, 30, 128))
    tree = dec(shares_to_ct_tree(cts, node), 48)
    assert np.array_equal(np.rint(direct) % 16, np.rint(tree) % 16)


def test_tree_must_partition_parties():
    cts = [enc([1.0])] * 3
    plan = share_plan(16, 3)
    bad = ReconstructNode((0, 1), plan)
    with pytest.raises(ValueError):
        shares_to_ct_tree(cts, bad)


def test_bulk_random_sharesets_decode_exactly():
    # 500 sharesets per party count, batched through the slots
    rng = np.random.default_rng(3)
    params = SimParams(n=512)
    for parties in range(3, 9):
        shares = ShareSet(16, tuple(rng.integers(0, 16, 500) for _ in range(parties)))
        plan = share_plan(16, parties)
        out = shares_to_ct([encrypt(s, params) for s in shares.shares], plan)
        got = decrypt(out)[:500].real
        assert np.array_equal(np.rint(got) % 16, shares.secret())


def test_tree_node_interval_overflow_rejected():
    # Three Z_16 shares sum to at most 45, beyond a two-party plan's [0, 30].
    cts = [enc([15.0])] * 3
    two_party = share_plan(16, 2)
    with pytest.raises(ValueError, match="cannot hold a 3-party sum"):
        shares_to_ct_tree(cts, ReconstructNode((0, 1, 2), two_party))
    # The same check runs at every node, not only at the root.
    leaf = share_plan(16, 1, D=40)
    root = ReconstructNode((ReconstructNode((0,), leaf), ReconstructNode((1, 2), leaf)),
                           fit_modp(16, 30, 128))
    with pytest.raises(ValueError, match="cannot hold a 2-party sum"):
        shares_to_ct_tree(cts, root)


def test_tree_node_without_children_rejected():
    cts = [enc([3.0])]
    plan = share_plan(16, 2)
    node = ReconstructNode((0, ReconstructNode((), plan)), plan)
    with pytest.raises(ValueError, match="has no children"):
        shares_to_ct_tree(cts, node)
