import gc
import math
import tracemalloc

import numpy as np
import pytest

from modpack import psev
from modpack.cheb import ChebSeries, cheb_T, clenshaw, map_to_unit
from modpack.hesim import (LevelExhaustedError, OpStats, SimParams, SlotCiphertext, _charge,
                           _finish, decrypt, encrypt)
from modpack.psev import (DegreeOverflowError, PsSchedule, _degree, _div_by_T,
                          compute_power_basis, eval_plan, eval_plans, eval_ps,
                          mul_by_int_additively, plan_schedule)
from modpack.fitting import ModPlan, fit_modp, plan_from_dict, plan_to_dict


def unit_series(coeffs):
    return ChebSeries(coeffs, 1.0)


def eval_at(coeffs, ts, sched):
    """eval_ps at the points ts, one per slot of a noise-off ciphertext: exact arithmetic."""
    ts = np.atleast_1d(ts)
    ct = encrypt(ts, SimParams(n=1 << (ts.size - 1).bit_length()))
    return decrypt(eval_ps(unit_series(coeffs), ct, sched))[: ts.size].real


@pytest.mark.parametrize("D,k,m", [(210, 10, 5), (1, 1, 1), (45, 5, 4)])
def test_plan_schedule_pinned_cases(D, k, m):
    sched = plan_schedule(D)
    assert (sched.k, sched.m) == (k, m)


def test_plan_schedule_capacity_covers_degree():
    for D in range(1, 600, 7):
        sched = plan_schedule(D)
        assert sched.capacity >= D
        assert sched.k == max(1, round(np.sqrt(D / 2)))


def basis_of(u, sched):
    """compute_power_basis's steps run on u: baby steps T_1..T_k, giant steps T_k..T_{k*2^(m-1)}."""
    k, m = sched.k, sched.m
    rows = list(range(1, k + 1)) + list(range(k + 2, k + m + 1))
    outs = psev._execute(u, compute_power_basis(sched, 1)
                         + [("out", i, row, None) for i, row in enumerate(rows)], 1 + k + m)
    return outs[:k], outs[k - 1:]


def test_power_basis_plaintext_values():
    # one noise-off slot: exact arithmetic on the plaintext 0.5
    sched = PsSchedule(k=3, m=2)
    bs, gs = basis_of(encrypt([0.5], SimParams(n=1)), sched)
    assert [decrypt(t)[0].real for t in bs] == pytest.approx([0.5, -0.5, -1.0])
    assert gs[0] is bs[sched.k - 1]  # both are T_k(u)
    # T_j sits ceil(log2 j) levels below u, and each step counts once
    assert [t.level for t in bs + gs[1:]] == [25, 24, 23, 22]
    assert (bs[0].params.stats.ct_mults, bs[0].params.stats.adds) == (3, 6)


def recording_matmul(monkeypatch):
    """Each np.matmul call's second operand, out and a copy of that operand, as the call runs on."""
    calls = []
    matmul = np.matmul

    def recording(a, b, *args, **kwargs):
        calls.append((b, kwargs.get("out"), b.copy()))
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", recording)
    return calls


@pytest.mark.parametrize("sigma", [0.0, 1e-9])
@pytest.mark.parametrize("kind", ["real", "complex_zero_imag", "complex"])
@pytest.mark.parametrize("k", [1, 4])
def test_power_basis_block_is_the_leaf_operand(monkeypatch, k, kind, sigma):
    # The leaf product reads a region's first k+1 rows of the one buffer in
    # place: u (a copy), T_2..T_k as the basis steps left them, and ones.
    # The buffer is complex with the noise on or a complex u, else real; a
    # real value in a complex row lies in its real part, the imaginary part
    # zeroed, as in a stack of the basis values.  At width 2, a real
    # noise-off evaluation runs 4 blocks of 2 slots, else one block of all
    # 8; at k = 1 every leaf is a constant, and no leaf product runs.  u is
    # only read.
    ts = np.linspace(-1, 1, 8)
    message = {"real": ts, "complex_zero_imag": ts + 0j, "complex": ts * np.exp(0.3j) * 0.9}[kind]
    sched = PsSchedule(k=k, m=2)
    bs, _ = basis_of(encrypt(message, SimParams(n=8, noise_stddev=sigma, seed=2)), sched)
    stack = np.array([t.slots for t in bs] + [np.ones(8)])
    u = encrypt(message, SimParams(n=8, noise_stddev=sigma, seed=2))
    monkeypatch.setattr(psev, "BLOCK_SLOTS", 2)
    calls = recording_matmul(monkeypatch)
    eval_ps(unit_series(np.random.default_rng(k).uniform(-1, 1, sched.capacity + 1)), u, sched)
    wide = sigma > 0 or kind != "real"
    assert len(calls) == (0 if k == 1 else 1 if wide else 4)
    for i, (operand, out, values) in enumerate(calls):
        assert operand.base is out.base is not None  # rows of the one buffer
        rows = values.view(complex) if wide else values
        w = rows.shape[1]
        assert rows.shape == (k + 1, w) and rows.dtype == (complex if wide else float)
        assert rows.tobytes() == stack[:, i * w : (i + 1) * w].astype(rows.dtype).tobytes()
    assert np.array_equal(u.slots, message)


def test_power_basis_on_simulator_matches_oracle():
    params = SimParams(n=16)
    u_vals = np.linspace(-1, 1, 16)
    u = encrypt(u_vals, params)
    sched = PsSchedule(k=10, m=5)
    bs, gs = basis_of(u, sched)
    for i, element in enumerate(bs, start=1):
        assert np.max(np.abs(decrypt(element).real - cheb_T(i, u_vals))) <= 1e-9
    for j, element in enumerate(gs):
        n = 10 * 2 ** j
        assert np.max(np.abs(decrypt(element).real - cheb_T(n, u_vals))) <= 1e-9


def test_eval_ps_matches_clenshaw_degree7():
    rng = np.random.default_rng(0)
    coeffs = rng.uniform(-1, 1, 8)
    ts = rng.uniform(-1, 1, 50)
    assert np.max(np.abs(eval_at(coeffs, ts, plan_schedule(7)) - clenshaw(coeffs, ts))) <= 1e-10


def test_eval_ps_constant_costs_no_multiplications():
    stats = OpStats()
    params = SimParams(n=8, stats=stats)
    u = encrypt(np.linspace(-1, 1, 8), params)
    out = eval_ps(unit_series([4.0]), u, plan_schedule(1))
    assert np.max(np.abs(decrypt(out).real - 4.0)) <= 1e-12
    assert stats.mults == 0
    assert out.level == u.level


def test_eval_ps_degree210_level_budget():
    params = SimParams(n=8, max_level=25)
    rng = np.random.default_rng(1)
    coeffs = rng.uniform(-1, 1, 211)
    u = encrypt(rng.uniform(-1, 1, 8), params)
    out = eval_ps(unit_series(coeffs), u, plan_schedule(210))
    consumed = 25 - out.level
    # the reference pipeline spends 10 levels on a degree-210 mod
    # evaluation; one of those is the domain map, which eval_ps leaves to
    # the caller, so the raw evaluation spends 9
    assert consumed <= 11
    assert consumed == 9


def test_eval_plan_degree210_spends_ten_levels():
    stats = OpStats()
    plan = fit_modp(4, 139, 210, 100.0)
    params = SimParams(n=8, max_level=25, stats=stats)
    ct = encrypt(np.arange(8.0), params)
    out = eval_plan(ct, plan)
    assert ct.level - out.level == 10  # map + evaluation tree
    # exact proxies of one CRT-layer plan: ct x ct mults, plaintext mults, adds
    assert (stats.ct_mults, stats.plain_mults, stats.adds) == (34, 190, 239)


@pytest.mark.parametrize("D,cost", [
    (35, (7, 16, 27, 52)), (45, (7, 16, 36, 61)), (90, (8, 23, 78, 113)),
    (128, (8, 27, 112, 152)), (139, (9, 30, 122, 166)), (210, (9, 34, 189, 238)),
    (400, (10, 47, 372, 439)),
])
def test_eval_ps_exact_cost_per_degree(D, cost):
    # (levels, ct x ct mults, plaintext mults, adds) of a dense series: a
    # count that moves is a change of the evaluator, not of the data
    stats = OpStats()
    coeffs = np.random.default_rng(D).uniform(-1, 1, D + 1)
    u = encrypt(np.array([-1.0, 0.3, 1.0]), SimParams(n=4, max_level=12, stats=stats))
    out = eval_ps(unit_series(coeffs), u, plan_schedule(D))
    assert (12 - out.level, stats.ct_mults, stats.plain_mults, stats.adds) == cost


@pytest.mark.parametrize("D", [35, 45, 90, 128, 139, 210, 400])
@pytest.mark.parametrize("sigma", [0.0, 1e-9])
def test_eval_ps_same_on_real_and_complex_slots(D, sigma):
    # float64 slots are a storage choice: a real input stored as complex
    # gives the same real parts, levels and counts, and with noise on the
    # same bytes for the same seed.
    rng = np.random.default_rng(D)
    series = unit_series(rng.uniform(-1, 1, D + 1))
    xs = rng.uniform(-1, 1, 16)
    outs = []
    for message in (xs, xs.astype(complex)):
        stats = OpStats()
        params = SimParams(n=16, max_level=12, noise_stddev=sigma, seed=5, stats=stats)
        out = eval_ps(series, encrypt(message, params), plan_schedule(D))
        outs.append((decrypt(out), out.level, stats))
    (real, real_level, real_stats), (cplx, cplx_level, cplx_stats) = outs
    assert real_level == cplx_level and real_stats == cplx_stats
    if sigma:
        assert real.tobytes() == cplx.tobytes()
    else:
        assert real.real.tobytes() == cplx.real.tobytes()


# Every degree a table or a benchmark workload evaluates, plus a stride.
LEDGER_DEGREES = sorted(set(range(8, 19)) | set(range(35, 51)) | {90}
                        | set(range(96, 257)) | {400} | set(range(1, 601, 23)))
PATTERNS = ["random", "lead_minus_one", "even"]


def _ledger_series(D, pattern, rng):
    c = rng.uniform(-0.5, 0.5, D + 1)
    c[D] = 0.5
    if pattern == "lead_minus_one":
        c[D] = -0.5  # -1 once the plan's delta of 2 is folded in
    elif pattern == "even" and D > 1:
        c[1::2] = 0.0  # at odd D the series degree is D - 1
    return c


@pytest.mark.parametrize("pattern", PATTERNS)
def test_eval_plan_level_ledger(pattern):
    # eval_plan spends exactly ceil(log2 D) + 2 levels (map + tree) and agrees
    # with the Clenshaw oracle.  The patterns share the degrees between them
    # and all three take D=35, far below the top giant step k*2^(m-1) = 64.
    rng = np.random.default_rng(7)
    B = 8.0
    xs = np.array([0.0, 1.3, 5.5, 8.0])
    for D in LEDGER_DEGREES[PATTERNS.index(pattern) :: 3] + [35]:
        c = _ledger_series(D, pattern, rng)
        plan = ModPlan(None, B, D, 2.0, 0.0, ChebSeries(c, B))
        out = eval_plan(encrypt(xs, SimParams(n=4, max_level=12)), plan)
        assert 12 - out.level == math.ceil(math.log2(D)) + 2, D
        want = 2.0 * clenshaw(c, 2.0 * xs / B - 1.0)
        assert np.max(np.abs(decrypt(out).real - want)) <= 1e-10, D


def test_level_consumption_is_value_independent():
    params = SimParams(n=8, max_level=25)
    rng = np.random.default_rng(2)
    sched = plan_schedule(90)
    coeffs = rng.uniform(-1, 1, 91)
    levels = set()
    for _ in range(3):
        u = encrypt(rng.uniform(-1, 1, 8), params)
        levels.add(eval_ps(unit_series(coeffs), u, sched).level)
    assert len(levels) == 1


def test_eval_plan_extra_scale_is_linear_at_equal_cost():
    # The scale rides in the leaf coefficients: eval_plan(x, plan, s) is
    # s * eval_plan(x, plan) at the same levels and the same op counts.
    plan = fit_modp(5, 29, 63, 100.0)
    xs = np.arange(30, dtype=float)
    runs = []
    for s in (1.0, 7.5):
        params = SimParams(n=32, max_level=12)
        out = eval_plan(encrypt(xs, params), plan, extra_scale=s)
        runs.append((decrypt(out).real, out.level, params.stats))
    (plain, level, stats), (scaled, level_s, stats_s) = runs
    assert np.max(np.abs(scaled - 7.5 * plain)) <= 1e-9
    assert level_s == level == 12 - (math.ceil(math.log2(63)) + 2)
    assert stats_s == stats


def test_degree_overflow_rejected():
    sched = PsSchedule(k=2, m=2)  # capacity 6
    with pytest.raises(DegreeOverflowError):
        eval_at(np.ones(8), 0.5, sched)


def test_schedule_takes_whole_floats_and_rejects_fractions():
    # k=3.0 used to fail inside numpy at evaluation; k=2.5 had capacity 17.5
    sched = PsSchedule(3.0, 3)
    assert (sched.k, sched.m) == (3, 3) and type(sched.k) is int
    assert np.allclose(eval_at(np.full(8, 0.1), 0.5, sched),
                       eval_at(np.full(8, 0.1), 0.5, PsSchedule(3, 3)))
    with pytest.raises(ValueError, match="k must be a whole number, got 2.5"):
        PsSchedule(2.5, 3)
    for k, m in ((0, 3), (3, 0)):
        with pytest.raises(ValueError, match="k and m must be positive"):
            PsSchedule(k, m)
    with pytest.raises(ValueError, match="degree must be at least 1, got 0"):
        plan_schedule(0)


def test_mul_by_int_additively():
    params = SimParams(n=4)
    ct = encrypt([3.0], params)
    out = mul_by_int_additively(ct, 4)
    assert decrypt(out)[0].real == 12.0
    assert out.level == ct.level
    same = mul_by_int_additively(ct, 1)
    assert np.array_equal(same.slots, ct.slots)
    big = mul_by_int_additively(encrypt([1.0], params), 1 << 10)
    assert big.level == params.max_level
    with pytest.raises(ValueError):
        mul_by_int_additively(ct, 1 << 25)
    with pytest.raises(ValueError, match="multiplier must be a positive integer"):
        mul_by_int_additively(ct, 0)


def test_mul_by_int_additively_takes_whole_numbers_of_any_type():
    ct = encrypt([3.0], SimParams(n=4))
    assert decrypt(mul_by_int_additively(ct, np.int64(5)))[0].real == 15.0
    assert decrypt(mul_by_int_additively(ct, 4.0))[0].real == 12.0
    for bad in (2.5, np.float64(0.5), float("nan")):
        with pytest.raises(ValueError, match="multiplier must be a whole number"):
            mul_by_int_additively(ct, bad)


def test_eval_plan_leaves_no_reference_cycles():
    # The evaluator's recursion holds no closures, so an evaluation's power
    # basis and stacked baby steps are freed by reference counting alone.
    plan = fit_modp(4, 29, 45, 100.0)
    ct = encrypt(np.arange(30.0), SimParams(n=64))
    gc.collect()
    gc.disable()
    try:
        eval_plan(ct, plan)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_eval_plan_applies_map_and_delta():
    plan = fit_modp(4, 29, 45, 100.0)
    xs = np.arange(30, dtype=float)
    ct = encrypt(xs, SimParams(n=32))
    got = decrypt(eval_plan(ct, plan))[:30].real
    assert np.max(np.abs(got - np.mod(xs, 4))) <= 1e-6
    half = decrypt(eval_plan(ct, plan, extra_scale=0.5))[:30].real
    assert np.max(np.abs(2 * half - got)) <= 1e-9


def test_eval_ps_handles_unscaled_coefficients():
    # coefficients well outside [-1, 1] still evaluate correctly
    rng = np.random.default_rng(5)
    coeffs = rng.uniform(-40, 40, 61)
    ts = rng.uniform(-1, 1, 20)
    assert np.max(np.abs(eval_at(coeffs, ts, plan_schedule(60)) - clenshaw(coeffs, ts))) <= 1e-8


def test_eval_ps_negative_leading_coefficient_at_capacity():
    # a coefficient of -1 at exactly the schedule capacity: the first
    # division by T_{k*2^(m-1)} leaves a full-degree quotient
    sched = PsSchedule(k=2, m=2)  # capacity 6
    coeffs = np.zeros(7)
    coeffs[6] = -1.0
    coeffs[3] = 0.25
    ts = np.array([-0.83, 0.12, 0.97])
    assert np.max(np.abs(eval_at(coeffs, ts, sched) - clenshaw(coeffs, ts))) <= 1e-10


def test_oracle_equivalence_sample():
    # the acceptance suite runs the full 1000-pair sweep
    rng = np.random.default_rng(4)
    for _ in range(200):
        D = int(rng.integers(1, 257))
        coeffs = rng.uniform(-1, 1, D + 1)
        t = float(rng.uniform(-1, 1))
        assert abs(eval_at(coeffs, t, plan_schedule(D))[0] - clenshaw(coeffs, t)) <= 1e-8


def _reference_eval_ps(coeffs, u, sched):
    """The evaluator with a per-term operator leaf: each baby step times its
    coefficient, summed term by term, over the operators' power basis."""
    if _degree(coeffs) == 0:
        return (u - u) + float(coeffs[0])
    bs, gs = _operator_basis(u, sched)
    g = np.zeros(sched.capacity + 1)
    g[: coeffs.size] = coeffs

    def rec(ff, d):
        if d < sched.k:
            acc = None
            for i in range(1, d + 1):
                if ff[i] != 0.0:
                    term = bs[i - 1] * float(ff[i])
                    acc = term if acc is None else acc + term
            if acc is None:
                return (u - u) + float(ff[0])
            return acc + float(ff[0]) if ff[0] != 0.0 else acc
        j = 0
        while sched.k * (1 << (j + 1)) <= d:
            j += 1
        q, r = _div_by_T(ff, sched.k * (1 << j))
        out = rec(q, _degree(q)) * gs[j]
        if np.any(r != 0.0):
            out = out + rec(r, _degree(r))
        return out

    return rec(g, sched.capacity)


LEAF_PATTERNS = ["random", "lead_minus_one", "even", "zero_run"]


def _leaf_series(D, pattern, rng):
    c = rng.uniform(-1, 1, D + 1)
    if pattern == "lead_minus_one":
        c[D] = -1.0
    elif pattern == "even":
        c[1::2] = 0.0
    elif pattern == "zero_run":
        lo = int(rng.integers(0, D + 1))
        c[lo : lo + max(1, D // 2)] = 0.0  # whole leaves and quotients vanish
        c[D] = 1.0
    return c


def _run(fn, poly, xs, sched, level, sigma=0.0):
    """fn(poly, u, sched) on u holding xs, and its OpStats; poly is a series or its coefficients."""
    params = SimParams(n=xs.size, max_level=level, noise_stddev=sigma, seed=3)
    return fn(poly, encrypt(xs, params), sched), params.stats


def _div_by_T_loop(f, N):
    """The term-by-term Chebyshev long division that psev's masked slice replaces."""
    f = f.copy()
    d = _degree(f)
    q = np.zeros(max(d - N, 0) + 1)
    for i in range(d, N, -1):
        ci = f[i]
        if ci != 0.0:
            q[i - N] += 2.0 * ci
            f[abs(i - 2 * N)] -= ci
            f[i] = 0.0
    q[0] += f[N]
    f[N] = 0.0
    return q, f[:N]


def _oracle_sweep(pattern):
    """Every degree 1..600 of a leaf pattern, each series built and compiled once.

    The compile, on the series' first evaluation, checks each division it
    makes against _div_by_T_loop: the dividend's degree is below twice the
    divisor's, which the masked slice relies on, and q and r are the loop's
    bytes.  The oracle (Clenshaw and the per-term reference) is computed
    once per degree, and each evaluation path's runs are checked against
    it: an evaluation path joins the sweep as one more run here.  Returns
    the number of divisions checked.
    """
    divide, compile_, width_default = psev._div_by_T, psev._compile, psev.BLOCK_SLOTS
    divisions, compiles = [], []

    def checked_divide(f, N):
        assert _degree(f) < 2 * N, (_degree(f), N)
        q, r = divide(f, N)
        want_q, want_r = _div_by_T_loop(f, N)
        assert q.tobytes() == want_q.tobytes() and r.tobytes() == want_r.tobytes(), N
        divisions.append(N)
        return q, r

    def counted_compile(series, sched):
        compiles.append(sched)
        return compile_(series, sched)

    rng = np.random.default_rng(LEAF_PATTERNS.index(pattern))
    xs = np.array([-1.0, -0.37, 0.5, 1.0])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(psev, "_div_by_T", checked_divide)
        mp.setattr(psev, "_compile", counted_compile)
        for D in range(1, 601):
            c = _leaf_series(D, pattern, rng)
            series = unit_series(c)
            sched = plan_schedule(D)
            # The oracle, once per degree: Clenshaw, with a bound relative to
            # the largest possible value (|sum_i c_i T_i| <= sum|c|), and the
            # per-term reference.
            truth, bound = clenshaw(c, xs), 1e-12 * np.abs(c).sum()
            want, want_stats = _run(_reference_eval_ps, c, xs, sched, 12)
            # eval_ps: the stacked-product leaf gives the per-term operator
            # leaf's values, OpStats and levels, and spends exactly the tree's
            # ceil(log2 D) + 1 levels (none for a constant series, even at
            # D=1); with noise on it spends the same counts and levels.
            exact, stats = _run(eval_ps, series, xs, sched, 12)
            assert np.max(np.abs(exact.slots - truth)) <= bound, D
            assert stats == want_stats and exact.level == want.level, D
            assert np.max(np.abs(exact.slots - want.slots)) <= 1e-12, D
            depth = math.ceil(math.log2(D)) + 1 if _degree(c) else 0
            assert 12 - exact.level == depth, D
            noisy, noisy_stats = _run(eval_ps, series, xs, sched, 12, sigma=1e-6)
            assert noisy_stats == stats and noisy.level == exact.level, D
            # Column blocks: 4 blocks of 1 slot, and 3 slots then 1, spend the
            # one-block run's OpStats and levels and give its values to
            # rounding.  BLAS picks its kernels by shape (a one-column block
            # goes to gemv), so the bytes are pinned at the default width only.
            for width in (1, 3):
                mp.setattr(psev, "BLOCK_SLOTS", width)
                blocked, blocked_stats = _run(eval_ps, series, xs, sched, 12)
                assert blocked_stats == stats and blocked.level == exact.level, (D, width)
                assert np.max(np.abs(blocked.slots - exact.slots)) <= 1e-14 * np.abs(c).sum(), D
            mp.setattr(psev, "BLOCK_SLOTS", width_default)
            if depth:
                with pytest.raises(LevelExhaustedError):
                    _run(eval_ps, series, xs, sched, depth - 1)
    assert len(compiles) == 600
    return len(divisions)


@pytest.fixture(scope="module")
def oracle_sweep():
    """_oracle_sweep, run at most once per pattern for the module's tests."""
    done = {}

    def sweep(pattern):
        if pattern not in done:
            done[pattern] = _oracle_sweep(pattern)
        return done[pattern]

    return sweep


@pytest.mark.parametrize("pattern", LEAF_PATTERNS)
def test_lincomb_leaf_matches_per_term_reference(oracle_sweep, pattern):
    # Every degree 1..600 agrees with Clenshaw and the per-term reference.
    oracle_sweep(pattern)


def test_div_by_T_is_the_term_by_term_division(oracle_sweep):
    # A -0.0 term updates nothing, as in the loop: q keeps +0.0, r its -0.0.
    f = np.array([0.5, 1.0, -0.0, 0.25, -0.0, 1.0])
    for got, want in zip(_div_by_T(f, 3), _div_by_T_loop(f, 3)):
        assert got.tobytes() == want.tobytes()
    # the sweeps check every division that compiling degrees 1..600 makes
    assert sum(oracle_sweep(pattern) for pattern in LEAF_PATTERNS) > 50_000


def fresh_plan(p=5, B=29, D=63):
    """A plan object no evaluation has compiled yet (fit_modp's plans are shared)."""
    return plan_from_dict(plan_to_dict(fit_modp(p, B, D, 100.0)))


def counting_compile(monkeypatch):
    calls = []
    compile_ = psev._compile

    def counted(series, sched):
        calls.append(series)
        return compile_(series, sched)

    monkeypatch.setattr(psev, "_compile", counted)
    return calls


@pytest.mark.parametrize("sigma", [0.0, 1e-9])
def test_eval_plan_compiles_once_and_reruns_bit_identically(monkeypatch, sigma):
    calls = counting_compile(monkeypatch)
    plan = fresh_plan()
    xs = np.arange(30, dtype=float)
    runs = []
    for _ in range(2):  # a cold run, then a warm one with the same noise seed
        params = SimParams(n=32, max_level=12, noise_stddev=sigma, seed=11, stats=OpStats())
        out = eval_plan(encrypt(xs, params), plan)
        runs.append((decrypt(out).tobytes(), out.level, params.stats))
    assert len(calls) == 1
    assert runs[0] == runs[1]


def test_eval_plan_keeps_one_program_per_extra_scale(monkeypatch):
    # floor_he evaluates its plan at extra_scale 1/p; the rest at 1.0
    calls = counting_compile(monkeypatch)
    plan = fresh_plan(p=4, D=45)
    xs = np.arange(30, dtype=float)
    outs = {}
    for s in (1.0, 1.0 / 4, 1.0, 1.0 / 4):
        outs[s] = decrypt(eval_plan(encrypt(xs, SimParams(n=32)), plan, extra_scale=s))[:30].real
    assert len(calls) == 2 and calls[0] is not calls[1]
    assert np.max(np.abs(outs[1.0] - np.mod(xs, 4))) <= 1e-6
    assert np.max(np.abs(outs[1.0 / 4] - np.mod(xs, 4) / 4)) <= 1e-6


def test_compiled_programs_die_with_their_plan():
    plan = fresh_plan()
    eval_plan(encrypt(np.arange(30.0), SimParams(n=32)), plan)
    gc.collect()
    live = len(psev._MEMO)
    del plan
    gc.collect()
    assert len(psev._MEMO) == live - 2  # the plan's scaled series and that series' program


def test_eval_plan_rejects_non_finite_extra_scale():
    ct = encrypt(np.arange(30.0), SimParams(n=32))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="extra_scale must be finite"):
            eval_plan(ct, fresh_plan(), extra_scale=bad)


def shared_b_plans():
    """Plans on B=14: D=30 runs schedule (4,4) and D=40 schedule (4,5)."""
    return [fit_modp(p, 14, D, 100.0) for D in (30, 40) for p in (2, 3, 5)]


def _plans_run(plans, xs, sigma=0.0, seed=0, scale=1.0):
    stats = OpStats()
    params = SimParams(n=xs.size, max_level=12, noise_stddev=sigma, seed=seed, stats=stats)
    return eval_plans(encrypt(xs, params), plans, scale), stats


def test_eval_plans_share_map_and_basis_and_match_each_plan_alone():
    # Random groups of equal and of mixed degrees: each output is bit for
    # bit eval_plan of its plan alone, at its level, and agrees with
    # Clenshaw; the group spends one map and one basis per schedule, where
    # its plans alone spend one each.
    rng = np.random.default_rng(9)
    plans = shared_b_plans()
    xs = np.linspace(0.0, 14.0, 16)
    groups = [plans[:3], plans[3:], [plans[0], plans[4]]]
    groups += [[plans[i] for i in rng.choice(6, size=int(rng.integers(1, 5)))] for _ in range(4)]
    for group in groups:
        scale = float(rng.choice([1.0, 0.5]))
        outs, stats = _plans_run(group, xs, scale=scale)
        alone = [_plans_run([plan], xs, scale=scale) for plan in group]
        for plan, out, ((want,), _) in zip(group, outs, alone, strict=True):
            assert out.slots.tobytes() == want.slots.tobytes() and out.level == want.level
            ref = scale * plan.delta * clenshaw(plan.series.coeffs, map_to_unit(xs, 14))
            assert np.max(np.abs(out.slots - ref)) <= 1e-8
        # A basis of schedule (k, m) costs k - 1 + m - 1 ct x ct; a map, one
        # plaintext multiplication.
        scheds = [plan_schedule(plan.D) for plan in group]
        shared = sum((scheds.count(s) - 1) * (s.k + s.m - 2) for s in set(scheds))
        assert sum(st.ct_mults for _, st in alone) - stats.ct_mults == shared
        assert sum(st.plain_mults for _, st in alone) - stats.plain_mults == len(group) - 1


def test_eval_plans_noise_on_is_reproducible():
    plans = shared_b_plans()
    group = [plans[1], plans[5]]
    xs = np.linspace(0.0, 14.0, 16)
    first, second = (_plans_run(group, xs, sigma=1e-9, seed=4)[0] for _ in range(2))
    for a, b in zip(first, second, strict=True):
        assert a.slots.tobytes() == b.slots.tobytes() and a.level == b.level


def test_eval_plans_rejects_an_empty_group_and_mixed_intervals():
    ct = encrypt(np.arange(15.0), SimParams(n=16))
    with pytest.raises(ValueError, match="at least one plan"):
        eval_plans(ct, [])
    with pytest.raises(ValueError, match=r"not \[0, 14\] and \[0, 29\]"):
        eval_plans(ct, [shared_b_plans()[0], fit_modp(4, 29, 45, 100.0)])


def _operator_basis(u, sched):
    """The power basis built by the operators alone: a fresh array per op."""
    bs = [u]
    for j in range(2, sched.k + 1):
        prod = bs[(j + 1) // 2 - 1] * bs[j // 2 - 1]
        two = prod + prod
        bs.append((two - 1.0) if j % 2 == 0 else (two - u))
    gs = [bs[-1]]
    for _ in range(1, sched.m):
        prod = gs[-1] * gs[-1]
        gs.append(prod + prod - 1.0)
    return bs, gs


def _operator_leaves(bs, C):
    """The leaves as one product over a copied stack of the baby steps and ones, each built when taken.

    A leaf of t nonzero terms costs t plaintext multiplications at the
    lowest level among them and t - 1 additions, plus one for a nonzero
    constant (C's last column), and draws one noise vector of variance
    t*sigma^2: hesim's two halves, as the per-term operators would spend.
    """
    params = bs[0].params
    stack = np.array([t.slots for t in bs] + [np.ones(params.n)])
    product = ((C @ stack.view(float)).view(complex) if np.iscomplexobj(stack)
               else C @ stack)
    for coeffs, row in zip(C, product):
        nonzero = np.flatnonzero(coeffs[:-1])
        t = nonzero.size
        level = _charge(params, min(bs[i].level for i in nonzero), "plain_mults", t,
                        t - (coeffs[-1] == 0.0))
        yield SlotCiphertext(_finish(params, row, t), level, params)


def _operator_walk(walk, u, gs, leaves):
    """A compiled walk run by the operators, taking each leaf from `leaves` in turn."""
    stack = []
    for op, a in walk:
        if op == "leaf":
            stack.append(next(leaves))
        elif op == "mul":
            stack.append(stack.pop() * gs[a])
        elif op == "add":
            r = stack.pop()
            stack.append(stack.pop() + r)
        else:
            stack.append((u - u) + a)
    return stack.pop()


def _operator_eval_ps(series, u, sched, bases=None):
    """eval_ps by the operators: operator basis (one per schedule in `bases`), per-op walk,
    leaves from one copied stack."""
    walk, C, _ = psev._compile(series, sched)
    if C is None:
        return (u - u) + walk
    bases = {} if bases is None else bases
    if sched not in bases:
        bases[sched] = _operator_basis(u, sched)
    bs, gs = bases[sched]
    return _operator_walk(walk, u, gs, _operator_leaves(bs, C))


def _operator_eval_plans(x, plans, scale=1.0):
    u = x * (2.0 / plans[0].B) - 1.0
    bases = {}
    return [_operator_eval_ps(ChebSeries(plan.series.coeffs * (plan.delta * scale), plan.B), u,
                              plan_schedule(plan.D), bases) for plan in plans]


def _ran(outs, params):
    return [(out.slots.tobytes(), out.slots.dtype, out.level) for out in outs], params.stats


# Every plan degree a table evaluates: modp/floor 35-50, bitstack 90 and
# 210, crtstack/combine 96-256 (128 and the 210 triple among them), 400.
TABLE_DEGREES = sorted(set(range(35, 51)) | {90} | set(range(96, 257)) | {400})


@pytest.mark.parametrize("sigma", [0.0, 1e-9])
@pytest.mark.parametrize("kind", ["real", "complex_zero_imag", "complex"])
def test_in_place_evaluator_is_the_operator_evaluator_bit_for_bit(kind, sigma):
    # eval_plan at every table degree (random series), eval_plans of the CRT
    # triple on one basis, of a group that mixes constant plans with fitted
    # ones, and of the triple at extra_scale 0 (every plan a constant), give
    # the operator evaluator's slot bytes, dtypes, levels and OpStats, noise
    # draws included; no output is a view of the program's buffer.  A
    # complex x runs as one complex block, whose rows hold the real values
    # of a narrowed map (complex_zero_imag) in their real parts.
    rng = np.random.default_rng(25)
    B = 139
    xs = rng.uniform(0, B, 64)
    xs = {"real": xs, "complex_zero_imag": xs + 0j, "complex": xs * np.exp(0.01j)}[kind]
    triple = [fit_modp(p, B, 210, 100.0) for p in (4, 5, 7)]
    constant = [ModPlan(None, B, D, 2.0, 0.0, ChebSeries(np.eye(D + 1)[0] * -0.375, B))
                for D in (210, 3)]
    cases = [([ModPlan(None, B, D, 2.0, 0.0, ChebSeries(_ledger_series(D, "random", rng), B))], 1.0)
             for D in TABLE_DEGREES]
    cases += [(triple, 1.0), ([constant[0], triple[0], constant[1], triple[1]], 1.0), (triple, 0.0)]
    for group, scale in cases:
        runs = []
        for evaluate in (eval_plans, _operator_eval_plans):
            params = SimParams(n=64, max_level=12, noise_stddev=sigma, seed=1, stats=OpStats())
            outs = evaluate(encrypt(xs, params), group, scale)
            assert all(out.slots.base is None for out in outs)
            runs.append(_ran(outs, params))
        assert runs[0] == runs[1], ([plan.D for plan in group], scale)


@pytest.mark.parametrize("sigma", [0.0, 1e-9])
@pytest.mark.parametrize("kind", ["real", "complex_zero_imag", "complex"])
@pytest.mark.parametrize("D", [3, 7, 35, 210])
def test_in_place_eval_ps_matches_operators_on_every_slot_dtype(D, kind, sigma):
    # eval_ps straight on u: a complex u whose products narrow to float64
    # mixes the steps' dtypes, a noisy real u has complex steps, and D=3
    # has one baby step (u alone).
    rng = np.random.default_rng(D)
    series = unit_series(rng.uniform(-1, 1, D + 1))
    ts = rng.uniform(-1, 1, 16)
    message = {"real": ts, "complex_zero_imag": ts + 0j,
               "complex": ts * np.exp(0.3j) * 0.9}[kind]
    runs = []
    for evaluate in (eval_ps, _operator_eval_ps):
        params = SimParams(n=16, max_level=12, noise_stddev=sigma, seed=3, stats=OpStats())
        runs.append(_ran([evaluate(series, encrypt(message, params), plan_schedule(D))], params))
    assert runs[0] == runs[1]


def test_in_place_evaluator_writes_only_its_own_buffers():
    # Two rounds of eval_ps of the CRT triple's series on one u, and of
    # eval_plans of its plans on one x: the inputs are never written, the
    # rounds agree, and every output is an array of its own, not a view of
    # the program's buffer.
    plans = [fit_modp(p, 139, 210, 100.0) for p in (4, 5, 7)]
    series = [ChebSeries(plan.series.coeffs * plan.delta, plan.B) for plan in plans]
    sched = plan_schedule(210)
    u = encrypt(np.linspace(-1, 1, 64), SimParams(n=64, max_level=12))
    x = encrypt(np.arange(64.0) % 140, SimParams(n=64, max_level=12))
    inputs = [u.slots.tobytes(), x.slots.tobytes()]
    first, second = ([eval_ps(s, u, sched) for s in series] + eval_plans(x, plans)
                     for _ in range(2))
    assert [u.slots.tobytes(), x.slots.tobytes()] == inputs
    assert [o.slots.tobytes() for o in first] == [o.slots.tobytes() for o in second]
    assert all(out.slots.base is None for out in first + second)


def test_eval_plan_live_peak_stays_below_a_full_width_basis_block():
    # The (16, 255, 400) plan at n=2^15 with the noise off, on a warm second
    # call: the program runs its map, basis, leaves and walk in 4096-slot
    # blocks of one buffer, so its tracemalloc peak (which repeats exactly)
    # stays below the 3.75 MiB that a full-width (k+1, n) basis block of its
    # k = 14 baby steps alone would take.
    plan = fit_modp(16, 255, 400, 100.0)
    x = encrypt(np.random.default_rng(31).uniform(0, 255, 2**15), SimParams(n=2**15))
    eval_plan(x, plan)
    tracemalloc.start()
    try:
        eval_plan(x, plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (14 + 1) * 2**15 * 8


def test_column_blocks_give_the_full_width_bytes_at_n_2_15(monkeypatch):
    # At n=2^15 a real noise-off evaluation runs 8 blocks of 4096 slots; each
    # table plan (the D=210 triple on [0, 139], (16, 255, 400), (4, 63, 90))
    # gives the bytes, levels and OpStats of one full-width block.  A noise-on
    # and a complex noise-off input run as one block at either width.
    rng = np.random.default_rng(30)
    groups = [[fit_modp(p, 139, 210, 100.0) for p in (4, 5, 7)], [fit_modp(16, 255, 400, 100.0)],
              [fit_modp(4, 63, 90, 100.0)]]
    cases = []
    for group in groups:
        xs = rng.uniform(0, group[0].B, 2**15)
        cases += [(group, xs, 0.0, len(group) * 8), (group, xs * np.exp(0.2j), 0.0, len(group)),
                  (group, xs, 1e-9, len(group))]
    operands = recording_matmul(monkeypatch)
    runs = []
    for width in (psev.BLOCK_SLOTS, 2**15):
        monkeypatch.setattr(psev, "BLOCK_SLOTS", width)
        for group, xs, sigma, blocks in cases:
            operands.clear()
            params = SimParams(n=2**15, max_level=12, noise_stddev=sigma, seed=4, stats=OpStats())
            runs.append(_ran(eval_plans(encrypt(xs, params), group), params))
            assert len(operands) == (blocks if width < 2**15 else len(group))
    assert runs[: len(cases)] == runs[len(cases) :]
