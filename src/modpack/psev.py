"""Paterson-Stockmeyer evaluation of Chebyshev series on simulated ciphertexts.

The evaluated value is a hesim.SlotCiphertext.  The domain map, the power
basis and the giant-step tree build their values with hesim.mul_add (a
constant node with the operators), which counts, levels and draws noise
as the operators would, bit for bit.
An evaluation runs in two passes: a coefficient pass does the divisions
and collects every leaf sum_i c_i T_i(u) as a row of coefficients, and
one hesim.lincomb computes all the rows as one matrix product over the
stacked baby steps; the ciphertext walk over the tree then takes each
leaf at its place, where it counts and levels as its per-term operators
would and draws its noise, one draw of variance t*sigma^2 for a t-term
leaf.  For plaintext values, encrypt them with the noise off: the
simulator is then exact complex arithmetic.

Buffers.  compute_power_basis allocates one (k+1, n) block per schedule
and returns it with the basis: row 0 a copy of u, the baby steps T_2..T_k
written into the rows between, and the last row ones, so eval_ps hands
the block to the leaf product as its operand without a copy.  Each giant
step and the map get one fresh buffer.  The walk writes each node's
product and sum over the buffer of its quotient's value: a row of the
leaf product or a fresh array, both the evaluation's own; a result left
in a row is copied out.  The caller's ciphertexts and a shared basis are
only read.

The coefficient pass, a pure function of the immutable series and the
schedule, runs once per series; a plan is scaled once per extra scale.
Plans on one input share their work below the programs: eval_plans maps
the input once and builds one power basis per distinct schedule, and each
plan runs its own leaf product and walk over them, as a CRT unpack's
residue layers do.  With the noise on, the shared map and basis carry
noise common to every output, as they would on a real backend.

Depth schedule.  The series is decomposed by repeated Chebyshev-basis
long division against the precomputed powers T_{k*2^j}, resting on the
product identity 2*T_a*T_b = T_{a+b} + T_{|a-b|}.  The first division is
always by the last giant step T_{k*2^(m-1)}, so the depth depends only on
the schedule, a function of the degree D alone: with the capacity
k*(2^m - 1) reaching the next power of two at or above D, it is exactly
ceil(log2 D) + 2 (one level for the caller's domain map, the rest for the
tree), independent of slot values.  A plan's scale rides in the series
coefficients, which the leaf plaintext multiplications apply at no level.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, replace

import numpy as np

from .cheb import ChebSeries
from .fitting import ModPlan, _whole
from .hesim import SlotCiphertext, lincomb, mul_add

# Cap on repeated-addition exponents; packing layers stay far below this.
POW2_ADD_LIMIT = 24
# Values computed once per live plan or series: {owner: {key: value}}.
_MEMO = weakref.WeakKeyDictionary()


class DegreeOverflowError(ValueError):
    """The series degree exceeds the schedule capacity k*(2^m - 1)."""


@dataclass(frozen=True)
class PsSchedule:
    """Baby-step count k and giant-step count m; any scale lives in the series."""

    k: int
    m: int

    def __post_init__(self):
        object.__setattr__(self, "k", _whole(self.k, "k"))
        object.__setattr__(self, "m", _whole(self.m, "m"))
        if self.k < 1 or self.m < 1:
            raise ValueError("k and m must be positive")

    @property
    def capacity(self) -> int:
        return self.k * ((1 << self.m) - 1)


def plan_schedule(D: int) -> PsSchedule:
    """Choose k ~ sqrt(D/2) and the smallest m whose capacity covers D.

    m is sized so k*(2^m - 1) reaches the next power of two at or above D,
    which pins the consumed depth to ceil(log2 D) + 2 for every degree and
    reproduces the depth ledger of the unpacking pipelines.
    """
    if D < 1:
        raise ValueError(f"degree must be at least 1, got {D}")
    k = max(1, round(math.sqrt(D / 2.0)))
    target = 1 << math.ceil(math.log2(D))
    m = 1
    while k * ((1 << m) - 1) < target:
        m += 1
    return PsSchedule(k=k, m=m)


def compute_power_basis(u: SlotCiphertext, sched: PsSchedule):
    """Chebyshev powers of u: bs = (T_1..T_k), gs = (T_k, T_2k, ..., T_{k*2^(m-1)}), and a block.

    The (k+1, n) block holds a copy of u, the baby steps T_2..T_k and a row
    of ones, so it is hesim.lincomb's operand as it stands; its dtype is
    the one lincomb would pick, complex with the noise on and k > 1, else
    u's.  Every baby step comes, in ascending order, from the balanced
    split of the product identity T_j = 2*T_ceil(j/2)*T_floor(j/2) - T_(j mod 2);
    a giant step T_2n is the doubling 2*T_n^2 - 1.  The multiplication dag
    stays at log depth, and the consumption is read off the returned
    elements' level fields.  Each step is one hesim.mul_add, a baby step
    T_j over row j-1 of the block and a giant step over a fresh buffer.
    """
    noisy = u.params.noise_stddev > 0 and sched.k > 1
    block = np.empty((sched.k + 1, u.params.n), complex if noisy else u.slots.dtype)
    block[0] = u.slots
    block[-1] = 1.0
    bs = [u]
    for j in range(2, sched.k + 1):
        row = block[j - 1]
        t = mul_add(bs[(j + 1) // 2 - 1], bs[j // 2 - 1], 1.0 if j % 2 == 0 else u,
                    double=True, subtract=True, out=row)
        if t.slots is not row:
            row[...] = t.slots  # a fresh result, its dtype held by the block's
        bs.append(t)
    gs = [bs[-1]]
    for _ in range(1, sched.m):
        gs.append(mul_add(gs[-1], gs[-1], 1.0, double=True, subtract=True))
    return bs, gs, block


def _degree(c: np.ndarray) -> int:
    nz = np.nonzero(c)[0]
    return int(nz[-1]) if nz.size else 0


def _div_by_T(f: np.ndarray, N: int):
    """Chebyshev-basis long division f = q*T_N + r via 2*T_a*T_N = T_{a+N} + T_{|a-N|}.

    f's degree d must be below 2N.  _split ensures it: it divides by the
    largest giant step N at most its d (the capacity at the top, which
    bounds the degree), and so d < 2N.  Each term c_i T_i with N < i <= d
    then gives q its 2*c_i at i-N and r its -c_i at 2N-i < N: no update
    lands on another's source, and no two on one target, so one masked
    slice divides term by term.  Only nonzero terms update, so a -0.0
    coefficient leaves r as it is.
    """
    f = f.copy()
    d = _degree(f)
    q = np.zeros(max(d - N, 0) + 1)
    i = np.arange(N + 1, d + 1)
    i = i[f[i] != 0.0]
    q[i - N] = 2.0 * f[i]
    f[2 * N - i] -= f[i]
    q[0] += f[N]
    return q, f[:N]


def eval_ps(series: ChebSeries, u, sched: PsSchedule, bases=None):
    """Evaluate sum_i c_i T_i(u) on the ciphertext u, whose slots must live in [-1, 1].

    The series' source domain is the caller's concern: map x into u first
    (that mapping costs the one extra level).  The series is compiled for
    sched on its first evaluation; later ones only run the program.
    Evaluations on one u that pass one dict `bases` share its power basis
    per schedule: each computes into the dict only the basis it lacks.
    """
    tree, C = _memo(series, sched, lambda: _compile(series, sched))
    if C is None:
        # Constant polynomial: a zero ciphertext plus a constant, no mults.
        return (u - u) + tree
    bases = {} if bases is None else bases
    if sched not in bases:
        bases[sched] = compute_power_basis(u, sched)
    bs, gs, block = bases[sched]
    out = _walk(tree, u, gs, lincomb(bs, C[:, 1:], C[:, 0], block))
    # a result left in a row of the leaf product must not keep the product alive
    return out if out.slots.base is None else replace(out, slots=out.slots.copy())


def _memo(owner, key, make):
    """make(), computed once per (owner, key) and kept for as long as owner lives."""
    memo = _MEMO.setdefault(owner, {})
    if key not in memo:
        memo[key] = make()
    return memo[key]


def _compile(series: ChebSeries, sched: PsSchedule):
    """The program of a series: its division tree and leaf matrix (None for a constant)."""
    coeffs = series.coeffs
    if coeffs.size - 1 > sched.capacity:
        raise DegreeOverflowError(
            f"series degree {coeffs.size - 1} exceeds schedule capacity {sched.capacity}"
        )
    if _degree(coeffs) == 0:
        return float(coeffs[0]), None
    g = np.zeros(sched.capacity + 1)
    g[: coeffs.size] = coeffs
    rows = []
    # At the capacity the first division is by gs[m-1], also when D < k*2^(m-1):
    # the zero quotient times gs[m-1] then spends the schedule's top level.
    tree = _split(g, sched.capacity, sched.k, rows)
    C = np.zeros((len(rows), sched.k + 1))  # column 0 holds the leaves' constants
    for i, row in enumerate(rows):
        C[i, : row.size] = row
    C.flags.writeable = False
    return tree, C


def _split(ff: np.ndarray, d: int, k: int, rows: list):
    """Coefficient pass: the division tree of ff, of exact degree d (the capacity at the top).

    A node is a float c_0 (a constant); None (a leaf, d < k, whose
    coefficients c_0..c_d are appended to rows); or (j, q, r) for
    q*T_{k*2^j} + r, divided by the largest giant step <= d, with r left
    out when it vanishes.  Leaves are appended in the order _walk meets them.
    """
    if d == 0:
        return float(ff[0])
    if d < k:
        rows.append(ff[: d + 1])
        return None
    j = 0
    while k * (1 << (j + 1)) <= d:
        j += 1
    q, r = _div_by_T(ff, k * (1 << j))
    node = (j, _split(q, _degree(q), k, rows))
    return node + (_split(r, _degree(r), k, rows),) if np.any(r != 0.0) else node


def _walk(node, u, gs, leaves):
    """The ciphertext pass over a _split tree, taking each leaf from `leaves` in turn.

    Every value the walk makes lives in a buffer this evaluation owns (a row
    of the leaf product, or a fresh array), so each node writes q*T_{k*2^j},
    then + r, over q's buffer; u and the giant steps are only read.
    """
    if node is None:
        return next(leaves)
    if isinstance(node, float):
        return (u - u) + node
    q = _walk(node[1], u, gs, leaves)
    out = mul_add(q, gs[node[0]], out=q.slots)
    return mul_add(out, c=_walk(node[2], u, gs, leaves)) if len(node) == 3 else out


def mul_by_int_additively(e, c: int):
    """e * c for a whole number c >= 1 by double-and-add; no multiplicative levels."""
    c = _whole(c, "multiplier")
    if c < 1:
        raise ValueError("multiplier must be a positive integer")
    if c.bit_length() - 1 > POW2_ADD_LIMIT:
        raise ValueError(f"multiplier {c} exceeds the repeated-addition guard")
    acc = None
    for bit in bin(c)[2:]:
        if acc is not None:
            acc = acc + acc
        if bit == "1":
            acc = e if acc is None else acc + e
    return acc


def eval_plans(x, plans, extra_scale: float = 1.0) -> list:
    """Apply a sequence of fitted plans on one interval [0, B] to the ciphertext x, in plan order.

    Maps u = 2x/B - 1 once (one level) and builds one power basis of u per
    distinct schedule; each plan then evaluates its series, coefficients
    scaled by delta * extra_scale, with its own leaf product and walk: the
    leaves' plaintext multiplications apply the scale, so it never costs an
    extra level.  Each finite extra_scale of a plan is scaled and compiled
    once.  With the noise off, each output is bit for bit what the plan
    gives alone.
    """
    if not plans:
        raise ValueError("eval_plans needs at least one plan")
    if not math.isfinite(extra_scale):
        raise ValueError(f"extra_scale must be finite, got {extra_scale}")
    B = plans[0].B
    for plan in plans:
        if plan.B != B:
            raise ValueError(f"plans on one input need one interval, "
                             f"not [0, {B}] and [0, {plan.B}]")
    u = mul_add(x, 2.0 / B, 1.0, subtract=True)
    bases = {}
    outs = []
    for plan in plans:
        series = _memo(plan, extra_scale, lambda: ChebSeries(
            plan.series.coeffs * (plan.delta * extra_scale), plan.B))
        outs.append(eval_ps(series, u, plan_schedule(plan.D), bases))
    return outs


def eval_plan(x, plan: ModPlan, extra_scale: float = 1.0):
    """Apply a fitted plan to the ciphertext x over its interval [0, B]: eval_plans of one."""
    return eval_plans(x, (plan,), extra_scale)[0]
