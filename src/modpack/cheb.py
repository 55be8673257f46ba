"""First-kind Chebyshev basis: recurrences, domain mapping, Clenshaw evaluation.

All functions here operate on plaintext reals and serve as the reference
path for everything evaluated homomorphically elsewhere in the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Inputs this far outside [-1, 1] are clamped; anything worse is rejected.
UNIT_CLAMP_TOL = 1e-12
# Slack allowed when checking membership in a source domain [0, B].
DOMAIN_SLACK = 1e-9


class DomainError(ValueError):
    """Raised when an evaluation point lies outside the supported interval."""


def _number(value, name: str) -> float:
    """float(value), or float()'s error type with a message naming `name` and the value."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError) as exc:  # None, [1], "abc", 10**400
        raise type(exc)(f"{name} must be a number, got {value!r}") from None


@dataclass(frozen=True, eq=False)
class ChebSeries:
    """A finite Chebyshev expansion sum_i coeffs[i] * T_i over [0, domain_upper].

    Evaluation maps the source interval [0, domain_upper] onto [-1, 1]
    before applying the basis.  The series owns a read-only copy of its
    coefficients, and compares and hashes by identity, so evaluators may
    key compiled forms on it.
    """

    coeffs: np.ndarray
    domain_upper: float

    def __post_init__(self):
        coeffs = np.array(self.coeffs, dtype=float, ndmin=1)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise ValueError("coeffs must be a non-empty 1-d sequence")
        object.__setattr__(self, "domain_upper", _number(self.domain_upper, "domain_upper"))
        if not 0 < self.domain_upper < np.inf:
            raise ValueError(f"domain_upper must be positive and finite, got {self.domain_upper}")
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1


def _clamp_unit(x):
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > 1.0 + UNIT_CLAMP_TOL):
        bad = np.max(np.abs(x))
        raise DomainError(f"argument magnitude {bad} exceeds 1 beyond clamp tolerance")
    return np.clip(x, -1.0, 1.0)


def cheb_T(n: int, x):
    """T_n(x) for x in [-1, 1], by the three-term recurrence.

    Accepts scalars or arrays.  Points within 1e-12 of the interval are
    clamped; anything further out raises DomainError.
    """
    if n < 0:
        raise ValueError(f"order must be non-negative, got {n}")
    x = _clamp_unit(x)
    if n == 0:
        return np.ones_like(x) if x.ndim else 1.0
    prev = np.ones_like(x)
    cur = x.copy()
    for _ in range(n - 1):
        prev, cur = cur, 2.0 * x * cur - prev
    return cur if cur.ndim else float(cur)


def map_to_unit(x, B: float):
    """Affine map of [0, B] onto [-1, 1]: x -> 2x/B - 1."""
    if not B > 0:
        raise ValueError(f"interval upper bound must be positive, got {B}")
    xa = np.asarray(x, dtype=float)
    if np.any(xa < -DOMAIN_SLACK) or np.any(xa > B + DOMAIN_SLACK):
        raise DomainError(f"point outside [0, {B}]")
    out = 2.0 * xa / B - 1.0
    return out if out.ndim else float(out)


def clenshaw(coeffs, t):
    """Backward (Clenshaw) recurrence for sum_i coeffs[i] * T_i(t), t in [-1, 1].

    A 2-d coeffs holds one series per row and gives one row of values per
    series, all from one recurrence.  A row's zeros beyond its degree leave
    b1 and b2 exactly 0 until its leading coefficient, so each row is bit
    for bit the recurrence of its own coefficients.
    """
    c = np.asarray(coeffs, dtype=float)
    t = np.asarray(t, dtype=float)
    if c.ndim == 2:
        c = c.T.reshape(c.shape[::-1] + (1,) * t.ndim)  # c[k] is column k, against every t
    b1 = np.zeros(np.broadcast_shapes(c.shape[1:], t.shape))
    b2 = np.zeros_like(b1)
    for k in range(c.shape[0] - 1, 0, -1):
        b1, b2 = c[k] + 2.0 * t * b1 - b2, b1
    out = c[0] + t * b1 - b2
    return out if out.ndim else float(out)


def eval_clenshaw(series, x):
    """Evaluate a ChebSeries at source-domain points x in [0, domain_upper].

    A sequence of series on one domain is evaluated in one recurrence over
    their zero-padded coefficient rows: row r is bit for bit
    eval_clenshaw(series[r], x).
    """
    if isinstance(series, ChebSeries):
        return clenshaw(series.coeffs, map_to_unit(x, series.domain_upper))
    domains = {s.domain_upper for s in series}
    if len(domains) != 1:
        raise ValueError(f"series evaluated together need one domain, got {sorted(domains)}")
    rows = np.zeros((len(series), max(s.coeffs.size for s in series)))
    for row, s in zip(rows, series):
        row[: s.coeffs.size] = s.coeffs
    return clenshaw(rows, map_to_unit(x, domains.pop()))
