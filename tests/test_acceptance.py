"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines.  Wall-clock is printed for orientation, never asserted.
"""

import time

import numpy as np

from modpack import cli
from modpack.cheb import ChebSeries, clenshaw
from modpack.fitting import fit_modp
from modpack.hesim import SimParams, conjugate, decrypt, encrypt, rotate
from modpack.packing import (BitStackLayout, CrtBasis, bitstack_pack,
                             bitstack_plan_specs, bitstack_unpack, crt_pack,
                             crt_unpack, img_pack, img_unpack, vec_pack,
                             vec_unpack)
from modpack.psev import eval_ps, plan_schedule

FULL = cli.RunConfig(sim=SimParams(n=2 ** 15, max_level=25), seed=0)
SMALL = cli.RunConfig(sim=SimParams(n=512, max_level=25), seed=0)


def check(idx, name, ok, detail, started):
    wall = time.perf_counter() - started
    line = f"[criterion {idx}] {'PASS' if ok else 'FAIL'} {name}: {detail} (wall {wall:.1f}s)"
    print(line)
    assert ok, line


BOUNDS = cli.BOUNDS


def test_bounds_registry_is_pinned():
    # The criteria below read their bounds from cli.BOUNDS; pinning the
    # registry keeps a loosened bound from passing them.
    assert cli.BOUNDS == {
        "modp4_mean": {35: 1e-3, 40: 1e-5, 45: 1e-6, 50: 1e-6},
        "modp5_mean": {35: 1e-3, 40: 1e-5, 45: 1e-6, 50: 1e-6},
        "floor_mean": 1e-7,
        "bitstack90_mean": (1e-4, 1e-2, 1e-3),
        "bitstack210_mean": (1e-4, 1e-3, 1e-4),
        "bitstack16_mean": (1e-3, 1e-4),
        "crtstack_mean": 1e-5,
        "crtstack_level_min": 14,
        "bitstack90_levels": (16, 7, 7),
        "bitstack210_levels": (15, 5, 5),
        "crtstack_levels": (15, 15, 15),
        "depth_tolerance": 1,
        "combine2_max_err": 1e-4,
        "combine2_level_min": 12,
        "shares_mean": 1e-6,
    }


def test_criterion_1_modp4_means():
    started = time.perf_counter()
    bounds = BOUNDS["modp4_mean"]
    means = cli.modp_mean_errors(4)
    ok = all(means[D] <= bounds[D] for D in bounds)
    detail = " ".join(f"D{D}={means[D]:.2e}<={bounds[D]:.0e}" for D in sorted(means))
    check(1, "ModP(x,4) over [0,29]", ok, detail, started)


def test_criterion_2_modp5_means():
    started = time.perf_counter()
    bounds = BOUNDS["modp5_mean"]
    means = cli.modp_mean_errors(5)
    ok = all(means[D] <= bounds[D] for D in bounds)
    detail = " ".join(f"D{D}={means[D]:.2e}<={bounds[D]:.0e}" for D in sorted(means))
    check(2, "ModP(x,5) over [0,29]", ok, detail, started)


def test_criterion_3_floor_means():
    started = time.perf_counter()
    means = cli.floor_mean_errors(degrees=(40, 45, 50))
    worst = max(means.values())
    ok = worst <= BOUNDS["floor_mean"]
    check(3, "Floor over [0,29], p in 4..9, degree >= 40", ok,
          f"worst mean {worst:.2e} <= {BOUNDS['floor_mean']:.0e}", started)


def test_criterion_4_bitstack_layers():
    started = time.perf_counter()
    details, ok = [], True
    tol = BOUNDS["depth_tolerance"]
    for D in (90, 210):
        err_bounds, lvl_want = BOUNDS[f"bitstack{D}_mean"], BOUNDS[f"bitstack{D}_levels"]
        res = cli.run_bitstack(FULL, D)
        for i in range(3):
            ok &= res["errors"][i] <= err_bounds[i]
            ok &= abs(res["levels"][i] - lvl_want[i]) <= tol
        details.append(f"D{D} errors={['%.1e' % e for e in res['errors']]} "
                       f"levels={res['levels']}~{list(lvl_want)}+-{tol}")
    check(4, "BitStack 3-layer Z4 at n=2^15", ok, "; ".join(details), started)


def test_criterion_5_crtstack_layers():
    started = time.perf_counter()
    res = cli.run_crtstack(FULL)
    err_bound, lvl_min = BOUNDS["crtstack_mean"], BOUNDS["crtstack_level_min"]
    ok = all(e <= err_bound for e in res["errors"]) and all(l >= lvl_min for l in res["levels"])
    check(5, "CrtStack (4,5,7) degree 210", ok,
          f"errors={['%.1e' % e for e in res['errors']]}<={err_bound:.0e} "
          f"levels={res['levels']}>={lvl_min}", started)


def test_criterion_6_combine2_end_to_end():
    started = time.perf_counter()
    res = cli.run_combine2(FULL)
    counts = res["counts"]
    err_bound, lvl_min = BOUNDS["combine2_max_err"], BOUNDS["combine2_level_min"]
    ok = res["max_err"] <= err_bound
    # Stage ciphertext counts pinned by the slot-capacity arithmetic
    # (2^15 // 2000 = 16 vectors per ciphertext): 6 after concat, 2 after
    # the value-dimension stacking, 1 once paired into complex slots.
    ok &= (counts["concat"], counts["crt"], counts["final"]) == (6, 2, 1)
    ok &= res["min_level"] >= lvl_min
    check(6, "Combine 2 (96 x 2000 Z4)", ok,
          f"max_err={res['max_err']:.2e}<={err_bound:.0e} counts={counts} "
          f"level={res['min_level']}>={lvl_min}", started)


def test_criterion_7_share_conversion():
    started = time.perf_counter()
    details, ok = [], True
    direct8 = None
    bound = BOUNDS["shares_mean"]
    for parties, degree in zip(range(3, 9), (96, 128, 160, 192, 224, 256)):
        res = cli.run_shares(FULL, parties)
        ok &= res["error"] <= bound and res["degree"] == degree
        if parties == 8:
            direct8 = res["error"]
        details.append(f"n{parties}:{res['error']:.1e}")
    tree = cli.run_shares(FULL, 8, tree_split=4)
    ok &= tree["error"] <= bound and tree["error"] > direct8
    details.append(f"8*:{tree['error']:.1e}>direct {direct8:.1e}")
    check(7, "Secret shares over Z16, parties 3..8 (+ tree)", ok, " ".join(details), started)


def test_criterion_8_property_suites():
    started = time.perf_counter()
    ok = True
    notes = []

    # Clenshaw vs Paterson-Stockmeyer over 1000 random (series, point) pairs
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        D = int(rng.integers(1, 257))
        coeffs = rng.uniform(-1, 1, D + 1)
        t = float(rng.uniform(-1, 1))
        got = eval_ps(ChebSeries(coeffs, 1.0), t, plan_schedule(D))
        worst = max(worst, abs(got - clenshaw(coeffs, t)))
    ok &= worst <= 1e-8
    notes.append(f"ps-vs-clenshaw worst {worst:.1e}")

    # CRT pack against brute force over every input for moduli (3, 4, 5)
    moduli = (3, 4, 5)
    combos = [(a, b, c) for a in range(3) for b in range(4) for c in range(5)]
    layers = [np.array([combo[i] for combo in combos]) for i in range(3)]
    basis = CrtBasis(moduli, tuple(fit_modp(p, 59, 120, 100.0) for p in moduli))
    packed = crt_pack(layers, basis)
    for slot, combo in enumerate(combos):
        x = next(v for v in range(60) if all(v % p == r for p, r in zip(moduli, combo)))
        ok &= int(packed[slot]) == x
    params = SimParams(n=64)
    outs = crt_unpack(encrypt(packed, params), basis)
    for truth, out in zip(layers, outs):
        ok &= bool(np.array_equal(np.rint(decrypt(out)[:60].real), truth))
    notes.append("crt brute-force (3,4,5) exhaustive")

    # rotation / conjugation group laws
    v = rng.normal(size=64) + 1j * rng.normal(size=64)
    ct = encrypt(v, params)
    for _ in range(25):
        i, j = (int(x) for x in rng.integers(-100, 100, 2))
        ok &= bool(np.array_equal(rotate(rotate(ct, i), j).slots, rotate(ct, (i + j) % 64).slots))
    ok &= bool(np.array_equal(conjugate(conjugate(ct)).slots, ct.slots))
    notes.append("rotation/conjugation laws")

    # round trips per scheme
    sizes = (5, 9, 3)
    vectors = [rng.normal(size=s) for s in sizes]
    for got, want in zip(vec_unpack(encrypt(vec_pack(vectors, sizes), params), sizes), vectors):
        ok &= np.max(np.abs(decrypt(got)[: want.size].real - want)) <= 1e-12
    av, bv = rng.normal(size=20), rng.normal(size=12)
    ra, rb = img_unpack(encrypt(img_pack(av, bv), params), 20, 12)
    ok &= np.max(np.abs(decrypt(ra)[:20] - av)) <= 1e-12
    ok &= np.max(np.abs(decrypt(rb)[:12] - bv)) <= 1e-12
    bs_layout = BitStackLayout((4, 4, 4), tuple(
        fit_modp(p, B, 90, 100.0) for p, B in bitstack_plan_specs([4, 4, 4])))
    data = [rng.integers(0, 4, 60) for _ in range(3)]
    for got, want in zip(bitstack_unpack(encrypt(bitstack_pack(data, bs_layout), params),
                                         bs_layout), data):
        ok &= bool(np.array_equal(np.rint(decrypt(got)[:60].real), want))
    notes.append("round trips (vec/img/bitstack/crt)")

    # level-ledger determinism: same configuration, fresh run, same levels
    lvl_a = cli.run_bitstack(SMALL, 90)["levels"]
    lvl_b = cli.run_bitstack(SMALL, 90)["levels"]
    crt_a = cli.run_crtstack(SMALL)["levels"]
    crt_b = cli.run_crtstack(SMALL)["levels"]
    ok &= lvl_a == lvl_b and crt_a == crt_b
    notes.append(f"level ledger deterministic {lvl_a}/{crt_a}")

    check(8, "Property suites", ok, "; ".join(notes), started)


def test_criterion_9_no_timing_or_traffic_assertions():
    started = time.perf_counter()
    # Bounds registry: error/level/count metrics only.
    banned = {"wall", "time", "clock", "traffic", "bytes", "mb", "seconds"}
    bad_keys = [k for k in cli.BOUNDS if banned & set(k.lower().split("_"))]
    # Source scan: no assert statement may touch wall-clock or traffic figures.
    import inspect

    source = inspect.getsource(cli)
    bad_lines = [
        line.strip()
        for line in source.splitlines()
        if line.strip().startswith("assert ")
        and any(b in line.lower() for b in ("wall", "traffic", "clock"))
    ]
    informational = "never asserted" in source
    ok = not bad_keys and not bad_lines and informational
    check(9, "Timing/traffic reported but never asserted", ok,
          f"bound keys clean={not bad_keys}, source clean={not bad_lines}, "
          f"informational labels present={informational}", started)
