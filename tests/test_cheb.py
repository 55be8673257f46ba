import numpy as np
import pytest

from modpack.cheb import (ChebSeries, DomainError, cheb_T, clenshaw,
                          eval_clenshaw, map_to_unit)

GRID = np.linspace(-1.0, 1.0, 2001)  # 1e-3 spacing


def test_T0_is_one():
    assert cheb_T(0, 0.3) == 1.0


def test_T1_is_identity():
    assert cheb_T(1, 0.3) == 0.3


def test_trig_definition_oracle():
    # T_n(x) = cos(n * arccos x)
    assert cheb_T(5, 0.7) == pytest.approx(np.cos(5 * np.arccos(0.7)), abs=1e-12)


def test_recurrence_matches_trig_on_grid():
    for n in range(65):
        ref = np.cos(n * np.arccos(GRID))
        assert np.max(np.abs(cheb_T(n, GRID) - ref)) <= 1e-10


def test_product_identity():
    # 2 T_m T_n = T_{m+n} + T_{|m-n|}
    rng = np.random.default_rng(0)
    pairs = [(m, n) for m in range(9) for n in range(9)]
    pairs += [tuple(rng.integers(0, 65, 2)) for _ in range(50)]
    for m, n in pairs:
        lhs = 2 * cheb_T(int(m), GRID) * cheb_T(int(n), GRID)
        rhs = cheb_T(int(m) + int(n), GRID) + cheb_T(abs(int(m) - int(n)), GRID)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_clamp_tolerance():
    assert cheb_T(3, 1.0 + 5e-13) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        cheb_T(3, 1.0 + 1e-9)


def test_negative_order_rejected():
    with pytest.raises(ValueError):
        cheb_T(-1, 0.5)


def test_map_to_unit_endpoints():
    assert map_to_unit(0, 29) == -1.0
    assert map_to_unit(29, 29) == 1.0
    assert map_to_unit(14.5, 29) == 0.0


def test_map_to_unit_domain_error():
    with pytest.raises(DomainError):
        map_to_unit(-0.1, 29)
    with pytest.raises(DomainError):
        map_to_unit(29.1, 29)
    # within slack is fine
    map_to_unit(29 + 1e-10, 29)
    for B in (0, -1):
        with pytest.raises(ValueError, match=f"interval upper bound must be positive, got {B}"):
            map_to_unit(0.0, B)


def test_constant_series():
    s = ChebSeries([5.0], 3.0)
    assert eval_clenshaw(s, 0.0) == 5.0
    assert eval_clenshaw(s, 2.7) == 5.0


def test_t1_series_at_endpoint():
    s = ChebSeries([0.0, 1.0], 2.0)
    assert eval_clenshaw(s, 2.0) == pytest.approx(1.0)


def test_clenshaw_matches_term_sum():
    rng = np.random.default_rng(1)
    coeffs = rng.uniform(-1, 1, 21)
    xs = rng.uniform(0, 7.0, 100)
    s = ChebSeries(coeffs, 7.0)
    t = map_to_unit(xs, 7.0)
    direct = sum(c * cheb_T(i, t) for i, c in enumerate(coeffs))
    assert np.max(np.abs(eval_clenshaw(s, xs) - direct)) <= 1e-11


def test_clenshaw_high_degree():
    rng = np.random.default_rng(2)
    coeffs = rng.uniform(-1, 1, 513)
    ts = rng.uniform(-1, 1, 50)
    direct = sum(c * cheb_T(i, ts) for i, c in enumerate(coeffs))
    assert np.max(np.abs(clenshaw(coeffs, ts) - direct)) <= 1e-11


def test_eval_clenshaw_of_many_series_is_each_series_bit_for_bit():
    # Series of differing degree, a constant and one with trailing zeros, at
    # points from t = -1 to t = 1: each row is the series' own call.
    rng = np.random.default_rng(6)
    B = 29.0
    series = [ChebSeries(rng.uniform(-1, 1, d + 1), B) for d in (50, 0, 1, 7, 35)]
    series.append(ChebSeries(np.r_[rng.uniform(-1, 1, 10), np.zeros(5)], B))
    xs = np.r_[0.0, rng.uniform(0, B, 30), B / 2, B]
    got = eval_clenshaw(series, xs)
    assert got.shape == (len(series), xs.size)
    for row, s in zip(got, series):
        assert row.tobytes() == eval_clenshaw(s, xs).tobytes()
    at_one = eval_clenshaw(series, 3.5)
    assert at_one.tolist() == [eval_clenshaw(s, 3.5) for s in series]
    with pytest.raises(ValueError, match="need one domain"):
        eval_clenshaw([series[0], ChebSeries([1.0], 7.0)], xs)


def test_series_validation():
    with pytest.raises(ValueError):
        ChebSeries([], 1.0)
    with pytest.raises(ValueError):
        ChebSeries([1.0], 0.0)
    assert ChebSeries([1.0, 2.0, 3.0], 4.0).degree == 2


def test_series_rejects_an_infinite_interval():
    # eval_clenshaw used to map every x to -1 and return the series' value there
    with pytest.raises(ValueError, match="domain_upper must be positive and finite, got inf"):
        ChebSeries([1.0, 2.0], np.inf)


def test_series_owns_read_only_coefficients():
    a = np.array([0.1, 0.2, 0.3])
    s = ChebSeries(a, 1.0)
    a[0] = 5.0  # the caller's array is not the series' array
    assert s.coeffs[0] == 0.1
    with pytest.raises(ValueError, match="read-only"):
        s.coeffs[0] = 5.0
    assert s.coeffs[0] == 0.1


def test_series_compares_and_hashes_by_identity():
    a, b = ChebSeries([0.1, 0.2], 1.0), ChebSeries([0.1, 0.2], 1.0)
    assert a == a and a != b
    assert len({a, b, a}) == 2
