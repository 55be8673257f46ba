import json
import math
import tracemalloc

import numpy as np
import pytest

from modpack import fitting
from modpack.cheb import ChebSeries, cheb_T, eval_clenshaw, map_to_unit
from modpack.fitting import (ModPlan, RankDeficientError, StepSpec,
                             build_system, default_delta, fit_modp, fit_step,
                             load_plan, plan_from_dict, plan_to_dict, save_plan,
                             solve_min_norm, suggest_delta)


def modp_spec(p, B, D):
    return StepSpec(tuple((i, float(i % p)) for i in range(B + 1)), B, D)


def test_build_system_endpoint_rows():
    # T_i(-1) = (-1)^i and T_i(1) = 1
    spec = StepSpec(((0, 0.0), (29, float(29 % 9))), 29, 8)
    A, y = build_system(spec)
    assert np.allclose(A[0], [(-1.0) ** i for i in range(9)])
    assert np.allclose(A[1], np.ones(9))
    assert list(y) == [0.0, 2.0]


def test_build_system_shape():
    A, y = build_system(modp_spec(9, 29, 35))
    assert A.shape == (30, 36)
    assert y.shape == (30,)


def test_build_system_rows_match_cheb_oracle():
    spec = modp_spec(4, 29, 40)
    A, _ = build_system(spec)
    for j in (0, 7, 29):
        t = map_to_unit(j, 29)
        row = [cheb_T(i, t) for i in range(41)]
        assert np.max(np.abs(A[j] - row)) <= 1e-12


def test_solve_identity():
    y = np.array([3.0, -1.0, 2.0])
    assert np.allclose(solve_min_norm(np.eye(3), y), y)


def test_solve_single_row_splits_evenly():
    alpha = solve_min_norm(np.array([[1.0, 1.0]]), np.array([2.0]))
    assert np.allclose(alpha, [1.0, 1.0])


def test_solve_min_norm_against_nullspace_perturbations():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(10, 20))
    y = rng.normal(size=10)
    alpha = solve_min_norm(A, y)
    assert np.max(np.abs(A @ alpha - y)) <= 1e-8
    _, _, vt = np.linalg.svd(A)
    null = vt[10:]  # rows spanning the nullspace
    norm = np.linalg.norm(alpha)
    for _ in range(1000):
        v = null.T @ rng.normal(size=10)
        assert norm <= np.linalg.norm(alpha + v) + 1e-12


def test_rank_deficiency_detected():
    A = np.ones((2, 5))  # duplicate sample rows
    with pytest.raises(RankDeficientError):
        solve_min_norm(A, np.array([1.0, 2.0]))
    A[0, 0] = np.nan  # a Cholesky factorization of a NaN Gram matrix does not fail
    with pytest.raises(RankDeficientError):
        solve_min_norm(A, np.array([1.0, 2.0]))


def test_near_singular_fit_rejected():
    # D barely above B: the Gram matrix is numerically singular (cond ~7e16).
    with pytest.raises(RankDeficientError):
        fit_modp(16, 112, 128)


# B -> the smallest degree whose fit solves, found by bisection (the same
# for every modulus: the sample matrix depends on B and D alone).
SMALLEST_FEASIBLE_D = {29: 33, 63: 83, 139: 197, 255: 373, 511: 769, 1023: 1563}


@pytest.mark.parametrize("B, D", SMALLEST_FEASIBLE_D.items())
def test_rejected_fit_names_the_feasibility_rule(B, D):
    assert fit_modp(4, B, D).residual <= fitting.SOLVE_RESID_LIMIT
    rule = math.ceil(math.pi * B / 2)
    assert D <= rule  # the rule is sufficient, not necessary: lower degrees are still tried
    with pytest.raises(RankDeficientError,
                       match=rf"B={B}, D={D - 1} .* D >= ceil\(pi\*B/2\) = {rule} "):
        fit_modp(4, B, D - 1)


def test_rejected_step_fit_names_the_feasibility_rule():
    with pytest.raises(RankDeficientError, match=r"B=29, D=32 .* = 46 was feasible"):
        fit_step(modp_spec(4, 29, 32))


@pytest.mark.parametrize("p,ref", [(4, 2.761e-8), (5, 2.657e-8)])
def test_fit_modp_mean_error(p, ref):
    plan = fit_modp(p, 29, 45, 100.0)
    xs = np.arange(30, dtype=float)
    err = np.abs(plan.delta * eval_clenshaw(plan.series, xs) - np.mod(xs, p))
    assert err.mean() <= 1e-6  # reference experiments report ~3e-8


def test_fit_modp_identity_when_p_exceeds_interval():
    plan = fit_modp(31, 29, 35, 1000.0)
    xs = np.arange(30, dtype=float)
    got = plan.delta * eval_clenshaw(plan.series, xs)
    assert np.max(np.abs(got - xs)) <= 1e-6


def test_fit_records_max_residual():
    plan = fit_modp(4, 29, 45, 100.0)
    xs = np.arange(30, dtype=float)
    err = np.abs(plan.delta * eval_clenshaw(plan.series, xs) - np.mod(xs, 4))
    assert plan.residual == pytest.approx(err.max(), rel=1e-9)


def test_fit_modp_requires_underdetermined_system():
    with pytest.raises(ValueError):
        fit_modp(4, 29, 29, 100.0)


def test_scaled_coefficients_below_one():
    plan = fit_modp(5, 29, 35, 1000.0)
    assert np.max(np.abs(plan.series.coeffs)) < 1.0
    with pytest.raises(ValueError):
        fit_modp(5, 29, 35, 1e-6)  # delta far too small
    with pytest.raises(ValueError, match="alpha must be non-empty"):
        suggest_delta([])  # no coefficients to scale


def test_auto_delta_is_power_of_ten_with_headroom():
    plan = fit_modp(5, 29, 45)
    assert plan.delta in {10.0 ** k for k in range(10)}
    assert np.max(np.abs(plan.series.coeffs)) <= 0.5


@pytest.mark.parametrize("top,want", [(37.0, 100.0), (0.3, 1.0), (499.0, 1000.0)])
def test_suggest_delta(top, want):
    assert suggest_delta([top, -top / 2]) == want


def test_default_delta_rule():
    assert default_delta(35) == 1000.0
    assert default_delta(40) == 100.0


def test_fit_step_indicator():
    samples = tuple((r, 0.0 if r < 3 else 1.0) for r in range(5))
    plan = fit_step(StepSpec(samples, 4, 12), 1.0)
    xs = np.arange(5, dtype=float)
    got = plan.delta * eval_clenshaw(plan.series, xs)
    want = np.array([0.0, 0.0, 0.0, 1.0, 1.0])
    assert np.max(np.abs(got - want)) <= 1e-6


def test_fit_step_constant_target():
    samples = tuple((i, 7.0) for i in range(4))
    plan = fit_step(StepSpec(samples, 3, 3), 10.0)
    assert plan.series.coeffs[0] == pytest.approx(0.7, abs=1e-9)
    assert np.max(np.abs(plan.series.coeffs[1:])) <= 1e-9
    # an underdetermined fit still evaluates to the constant at the samples
    loose = fit_step(StepSpec(samples, 3, 6), 10.0)
    xs = np.arange(4, dtype=float)
    assert np.max(np.abs(loose.delta * eval_clenshaw(loose.series, xs) - 7.0)) <= 1e-9


def test_fit_step_reproduces_fit_modp_bit_for_bit():
    spec = modp_spec(4, 29, 45)
    a = fit_step(spec, 100.0)
    b = fit_modp(4, 29, 45, 100.0)
    assert np.array_equal(a.series.coeffs, b.series.coeffs)
    assert a.delta == b.delta and a.residual == b.residual
    assert a.p is None and b.p == 4


def test_step_spec_validation():
    with pytest.raises(ValueError):
        StepSpec(((0, 1.0), (0, 2.0)), 5, 10)  # duplicate abscissa
    with pytest.raises(ValueError):
        StepSpec(((0, 1.0), (9, 2.0)), 5, 10)  # outside interval
    with pytest.raises(ValueError):
        StepSpec(((0, 1.0), (1, 2.0), (2, 0.0)), 5, 1)  # degree too small
    with pytest.raises(ValueError, match="sample abscissa must be a whole number, got 0.6"):
        StepSpec(((0.6, 1.0), (1.4, 0.0)), 3, 4)  # used to truncate to abscissae 0 and 1


def test_step_spec_takes_whole_floats_and_rejects_fractions():
    # D=45.0 used to die inside numpy's chebvander ("deg must be an integer")
    plan = fit_step(modp_spec(4, 29, 45.0))
    assert (plan.B, plan.D) == (29, 45) and type(plan.D) is int
    assert np.array_equal(plan.series.coeffs, fit_modp(4, 29, 45).series.coeffs)
    # B=29.5 used to fit a plan with B == 29.5 that load_plan then rejected
    with pytest.raises(ValueError, match="B must be a whole number, got 29.5"):
        StepSpec(tuple((i, float(i % 4)) for i in range(30)), 29.5, 45)


def test_step_plan_round_trips_through_a_plan_file(tmp_path):
    plan = fit_step(StepSpec(tuple((i, float(i % 4)) for i in range(30)), 29.0, 45.0))
    assert (type(plan.B), type(plan.D)) == (int, int)
    save_plan(plan, tmp_path / "step.json")
    loaded = load_plan(tmp_path / "step.json")
    assert (loaded.p, loaded.B, loaded.D) == (None, 29, 45)
    assert np.array_equal(loaded.series.coeffs, plan.series.coeffs)
    assert loaded.delta == plan.delta and loaded.residual == plan.residual


def test_plan_casts_its_own_fields():
    fit = fit_modp(4, 29, 45)
    plan = ModPlan("4", 29.0, 45.0, 100, fit.residual, fit.series)
    assert (plan.p, plan.B, plan.D, plan.delta) == (4, 29, 45, 100.0)
    assert [type(v) for v in (plan.p, plan.B, plan.D, plan.delta)] == [int, int, int, float]


@pytest.mark.parametrize("p,B,upper,message", [
    (4.5, 29, 29.0, "p must be a whole number, got 4.5"),
    (4, 29.5, 29.5, "B must be a whole number, got 29.5"),
    # The Clenshaw reference used to read 0, 0.283, 1.145, 0.468 at x = 0..3
    # while eval_plan, mapping over [0, B], decoded 0, 1, 2, 3.
    (4, 29, 60.0, r"series interval \[0, 60.0\] is not the plan interval \[0, 29\]"),
])
def test_plan_rejects_fractional_counts_and_a_series_over_another_interval(p, B, upper, message):
    fit = fit_modp(4, 29, 45)
    with pytest.raises(ValueError, match=message):
        ModPlan(p, B, 45, fit.delta, fit.residual, ChebSeries(fit.series.coeffs, upper))


def test_serialization_round_trip(tmp_path):
    plan = fit_modp(5, 29, 45, 100.0)
    path = tmp_path / "plan.json"
    save_plan(plan, path)
    loaded = load_plan(path)
    assert np.array_equal(loaded.series.coeffs, plan.series.coeffs)
    assert (loaded.p, loaded.B, loaded.D) == (plan.p, plan.B, plan.D)
    assert loaded.delta == plan.delta and loaded.residual == plan.residual
    doc = json.loads(path.read_text())
    assert set(doc) == {"p", "B", "D", "delta", "residual", "coeffs"}


@pytest.mark.parametrize("p,B,D,name", [(4.5, 29, 45, "p"), (4, 29.5, 45, "B"),
                                         (4, 29, 45.5, "D")])
def test_fit_modp_rejects_fractional_arguments(p, B, D, name):
    # 4.5 used to fit "x mod 4.5" into a plan that load_plan rejects; 29.5 died in range()
    with pytest.raises(ValueError, match=f"{name} must be a whole number"):
        fit_modp(p, B, D, 100.0)


def test_fit_modp_takes_whole_floats_as_integers(tmp_path):
    plan = fit_modp(4.0, 29.0, 45.0, 100.0)
    assert (plan.p, plan.B, plan.D) == (4, 29, 45)
    assert all(type(v) is int for v in (plan.p, plan.B, plan.D))
    assert np.array_equal(plan.series.coeffs, fit_modp(4, 29, 45, 100.0).series.coeffs)
    save_plan(plan, tmp_path / "plan.json")
    assert load_plan(tmp_path / "plan.json").p == 4


@pytest.mark.parametrize("field,value,message", [
    ("D", 60, "D=60 does not match the series degree 30"),
    ("delta", -100.0, "delta must be positive"),
    ("delta", 0.0, "delta must be positive"),
    ("delta", float("inf"), "delta must be positive and finite"),
])
def test_plan_rejects_inconsistent_degree_or_delta(field, value, message):
    doc = {**plan_to_dict(fit_modp(3, 14, 30, 100.0)), field: value}
    with pytest.raises(ValueError, match=message):
        plan_from_dict(doc)


def test_plan_rejects_nan_coefficient():
    # max|c| >= 1 is False for NaN, so a magnitude check alone cannot reject it
    doc = plan_to_dict(fit_modp(3, 14, 30, 100.0))
    doc["coeffs"][3] = float("nan")
    with pytest.raises(ValueError, match="scaled coefficients must be finite"):
        plan_from_dict(doc)


def test_determinism_bit_identical():
    a = fit_modp(7, 29, 50, 100.0)
    b = fit_modp(7, 29, 50, 100.0)
    assert json.dumps(plan_to_dict(a)) == json.dumps(plan_to_dict(b))


def test_coefficient_magnitude_trend():
    # Unscaled minimum-norm coefficients shrink from degree 35 to degree 80.
    def max_alpha(D):
        A, y = build_system(modp_spec(5, 29, D))
        return np.max(np.abs(solve_min_norm(A, y)))

    assert max_alpha(80) <= max_alpha(35)


def test_integer_point_residual_bound_for_acceptance_triples():
    for p, B, D in [(4, 29, 45), (5, 29, 50), (4, 63, 90), (4, 139, 210),
                    (16, 255, 400), (16, 120, 256)]:
        plan = fit_modp(p, B, D, 100.0)
        assert plan.residual <= 1e-4


def test_fit_memo_takes_one_key_for_whole_floats_and_ints():
    plan = fit_modp(4, 29, 35)
    assert fit_modp(4.0, 29.0, 35) is plan
    assert fit_modp(np.int64(4), 29, 35.0, None) is plan
    assert fit_modp(4, 29, 35, 1000.0) is fit_modp(4.0, 29, 35, 1000.0) is not plan


def test_fitted_plans_are_read_only_values():
    plan = fit_modp(4, 29, 45, 100.0)
    with pytest.raises(ValueError, match="read-only"):
        plan.series.coeffs[0] = 0.5
    copy = plan_from_dict(plan_to_dict(plan))
    assert plan == plan and hash(plan) == hash(plan)
    assert plan != copy  # identity equality: no array truth value is asked for
    assert len({plan, copy, fit_modp(4, 29, 45, 100.0)}) == 2


@pytest.mark.parametrize("p,B,D,delta,error", [
    (4, 29, 29, 100.0, ValueError),  # D <= B
    (4.5, 29, 45, 100.0, ValueError),
    (4, 29, 45, float("nan"), ValueError),
    (16, 127, 128, None, RankDeficientError),
])
def test_fit_memo_raises_for_a_rejected_key_on_every_call(p, B, D, delta, error):
    for _ in range(3):
        with pytest.raises(error):
            fit_modp(p, B, D, delta)


def test_fit_memo_is_bounded():
    size = fitting._fit_modp.cache_info().maxsize
    assert 39 <= size <= 1024  # at least one pass over the tables; never unbounded
    for D in range(3, size + 8):
        fit_modp(2, 1, D, 1.0)
    assert fitting._fit_modp.cache_info().currsize == size


def test_fit_refuses_an_oversized_system_before_building_it():
    # The limit admits B=2047, D=4094, the largest fit measured to solve;
    # B=4095, D=4096 needs a 4096 x 4097 float64 matrix, just over it.
    assert 2048 * 4095 * 8 <= fitting.MAX_SAMPLE_BYTES < 4096 * 4097 * 8
    spec = StepSpec(tuple((i, 0.0) for i in range(4096)), 4095, 4096)
    tracemalloc.start()
    try:
        for fit in (lambda: fit_modp(4, 4095, 4096), lambda: fit_step(spec)):
            with pytest.raises(ValueError, match=f"B=4095, D=4096 .* {4096 * 4097 * 8} bytes"):
                fit()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # nothing near the matrix's 134 MB was allocated
