"""Integer-point least-squares fitting of mod and step functions.

The target values are prescribed only at integers 0..B; the polynomial
degree D exceeds the number of sample points, so the linear system is
underdetermined and we take the minimum-l2-norm coefficient vector.
Coefficients are then divided by a scaling factor delta so every stored
coefficient stays below 1 in magnitude.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .cheb import ChebSeries, _number, eval_clenshaw, map_to_unit

# Acceptable worst-case equation residual for a successful solve.
SOLVE_RESID_LIMIT = 1e-8
# Automatic delta choice when the caller does not pin one.
DELTA_HEADROOM = 0.5
# Largest float64 sample matrix a fit may build: 128 MiB, about twice the
# 67 MB of B=2047, D=4094, the largest fit measured to solve.
MAX_SAMPLE_BYTES = 1 << 27


class RankDeficientError(ValueError):
    """The sample matrix lost full row rank (degree too small or duplicate points)."""


def _whole(value, name: str) -> int:
    """int(value), or a TypeError/ValueError naming `name` where int() would reject or truncate."""
    error = ValueError
    try:
        whole = int(value)  # a whole-number string such as "7" converts
        if whole == value or isinstance(value, str):
            return whole
    except (ValueError, OverflowError):  # NaN, infinity, "7.5"
        pass
    except TypeError:  # None, a list
        error = TypeError
    raise error(f"{name} must be a whole number, got {value!r}")


@dataclass(frozen=True)
class StepSpec:
    """Integer sample points (x, y) on [0, B] to be matched by a degree-D fit."""

    samples: tuple
    B: int
    D: int

    def __post_init__(self):
        object.__setattr__(self, "B", _whole(self.B, "B"))
        object.__setattr__(self, "D", _whole(self.D, "D"))
        samples = tuple((_whole(x, "sample abscissa"), float(y)) for x, y in self.samples)
        xs = [x for x, _ in samples]
        if len(set(xs)) != len(xs):
            raise ValueError("sample abscissae must be distinct")
        if any(x < 0 or x > self.B for x in xs):
            raise ValueError(f"sample abscissae must lie in [0, {self.B}]")
        if self.D < len(samples) - 1:
            raise ValueError("degree too small for the number of samples")
        object.__setattr__(self, "samples", samples)


@dataclass(frozen=True, eq=False)
class ModPlan:
    """A fitted, scaled approximation ready for homomorphic evaluation.

    delta * eval_clenshaw(series, i) reproduces the target value at every
    sample point i up to `residual`.  D is the series degree, B its
    interval bound, delta is finite and positive, and every coefficient is
    finite and below 1 in magnitude.  For mod fits `p` is the modulus; step fits carry p = None.
    A plan is an immutable value that compares and hashes by identity, so
    one plan may be shared by every caller of its fit key.
    """

    p: int | None
    B: int
    D: int
    delta: float
    residual: float
    series: ChebSeries

    def __post_init__(self):
        for name in ("B", "D") if self.p is None else ("p", "B", "D"):
            object.__setattr__(self, name, _whole(getattr(self, name), name))
        for name in ("delta", "residual"):
            object.__setattr__(self, name, _number(getattr(self, name), name))
        if self.series.domain_upper != self.B:
            raise ValueError(f"series interval [0, {self.series.domain_upper}] is not the plan "
                             f"interval [0, {self.B}]")
        if self.D != self.series.degree:
            raise ValueError(f"D={self.D} does not match the series degree {self.series.degree}")
        if not 0 < self.delta < np.inf:
            raise ValueError(f"delta must be positive and finite, got {self.delta}")
        if not np.all(np.abs(self.series.coeffs) < 1.0):  # also rejects NaN
            raise ValueError("scaled coefficients must be finite and below 1; increase delta")


def _refuse_oversized(rows: int, B: int, D: int):
    """A ValueError, before anything is built, if the rows x (D+1) sample matrix is too large."""
    size = rows * (D + 1) * 8
    if size > MAX_SAMPLE_BYTES:
        raise ValueError(f"the fit of B={B}, D={D} would build a {rows} x {D + 1} sample "
                         f"matrix of {size} bytes, over the {MAX_SAMPLE_BYTES}-byte limit")


def build_system(spec: StepSpec):
    """Sample matrix A[j, i] = T_i(map(x_j)) and target vector y for a StepSpec."""
    xs = np.array([x for x, _ in spec.samples], dtype=float)
    y = np.array([v for _, v in spec.samples], dtype=float)
    t = map_to_unit(xs, spec.B)
    A = np.polynomial.chebyshev.chebvander(t, spec.D)
    return A, y


def solve_min_norm(A, y):
    """Minimum-l2-norm solution of the underdetermined system A a = y.

    Uses the full-row-rank identity a = A^T (A A^T)^{-1} y; the Gram matrix
    is small and the Chebyshev basis keeps it well conditioned.  A Cholesky
    factorization of the Gram matrix, far cheaper than a condition number,
    rejects systems that lost full row rank; the residual check catches the
    rest.
    """
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    G = A @ A.T
    try:
        np.linalg.cholesky(G)
    except np.linalg.LinAlgError as exc:
        raise RankDeficientError(
            f"the {G.shape[0]}x{G.shape[0]} Gram matrix of the sample rows is not positive "
            "definite; increase the degree or remove duplicate sample points"
        ) from exc
    alpha = A.T @ np.linalg.solve(G, y)
    resid = np.max(np.abs(A @ alpha - y)) if y.size else 0.0
    if not resid <= SOLVE_RESID_LIMIT:  # also rejects a NaN residual
        raise RankDeficientError(f"solver residual {resid:.3e} exceeds {SOLVE_RESID_LIMIT:.0e}")
    return alpha


def suggest_delta(alpha) -> float:
    """Smallest power of ten delta with max|alpha_i| / delta <= DELTA_HEADROOM."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.size == 0:
        raise ValueError("alpha must be non-empty")
    top = np.max(np.abs(alpha))
    delta = 1.0
    while top / delta > DELTA_HEADROOM:
        delta *= 10.0
    return delta


def default_delta(D: int) -> float:
    """Scaling factor used by the error-table runs: 1000 at degree 35, else 100."""
    return 1000.0 if D == 35 else 100.0


def _fit(spec: StepSpec, delta: float | None, p: int | None) -> ModPlan:
    A, y = build_system(spec)
    try:
        alpha = solve_min_norm(A, y)
    except RankDeficientError as exc:
        # The rule is measured, not proven, and lower degrees can fit too
        # (the tables fit D=35 at B=29), so it only explains a rejection.
        raise RankDeficientError(
            f"the fit of B={spec.B}, D={spec.D} failed: {exc}; D >= ceil(pi*B/2) = "
            f"{math.ceil(math.pi * spec.B / 2)} was feasible for every B measured up to 2047"
        ) from None
    if delta is None:
        delta = suggest_delta(alpha)
    if not 0 < delta < np.inf:
        raise ValueError(f"delta must be positive and finite, got {delta}")
    series = ChebSeries(alpha / delta, spec.B)
    xs = np.array([x for x, _ in spec.samples], dtype=float)
    residual = np.max(np.abs(delta * eval_clenshaw(series, xs) - y))
    return ModPlan(p=p, B=spec.B, D=spec.D, delta=delta, residual=residual, series=series)


def fit_step(spec: StepSpec, delta: float | None = None) -> ModPlan:
    """Fit an arbitrary integer-point step function; returns a ModPlan-shaped artifact."""
    _refuse_oversized(len(spec.samples), spec.B, spec.D)
    return _fit(spec, delta, p=None)


def fit_modp(p: int, B: int, D: int, delta: float | None = None) -> ModPlan:
    """Fit x mod p at the integers 0..B with a degree-D scaled Chebyshev series.

    delta=None picks the smallest power of ten keeping coefficients below
    DELTA_HEADROOM.  p, B and D must be whole numbers (4.0 is taken as 4).
    A system whose sample matrix exceeds MAX_SAMPLE_BYTES is refused first;
    one that cannot be solved raises a RankDeficientError naming the
    measured feasibility rule D >= ceil(pi*B/2).
    A plan is a pure function of (p, B, D, delta), so fits are memoised:
    a repeated key returns the plan fitted first, and a rejected key raises
    on every call.
    """
    return _fit_modp(_whole(p, "p"), _whole(B, "B"), _whole(D, "D"), delta)


@lru_cache(maxsize=128)  # one pass over the tables fits 39 distinct keys
def _fit_modp(p: int, B: int, D: int, delta: float | None) -> ModPlan:
    if p < 2:
        raise ValueError(f"modulus must be at least 2, got {p}")
    if D <= B:
        raise ValueError(f"degree must exceed the interval bound (D={D}, B={B})")
    _refuse_oversized(B + 1, B, D)
    samples = tuple((i, float(i % p)) for i in range(B + 1))
    return _fit(StepSpec(samples=samples, B=B, D=D), delta, p=p)


def plan_to_dict(plan: ModPlan) -> dict:
    return {
        "p": plan.p,
        "B": plan.B,
        "D": plan.D,
        "delta": plan.delta,
        "residual": plan.residual,
        "coeffs": plan.series.coeffs.tolist(),
    }


def plan_from_dict(d: dict) -> ModPlan:
    return ModPlan(d["p"], d["B"], d["D"], d["delta"], d["residual"],
                   ChebSeries(np.array(d["coeffs"], dtype=float), d["B"]))


def save_plan(plan: ModPlan, path):
    Path(path).write_text(json.dumps(plan_to_dict(plan)) + "\n")


def load_plan(path) -> ModPlan:
    """The plan of a JSON file; a missing or malformed field raises a ValueError naming it."""
    try:
        return plan_from_dict(json.loads(Path(path).read_text()))
    except KeyError as exc:
        raise ValueError(f"plan file {path} has no {exc} field") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"plan file {path}: {exc}") from exc
