"""Paterson-Stockmeyer evaluation of Chebyshev series on simulated ciphertexts.

The evaluated value is a hesim.SlotCiphertext.  The domain map and the
power basis build their values with hesim.mul_add (a constant node with
the operators), which counts, levels and draws noise as the operators
would, bit for bit.  A series is compiled into a walk program: the
coefficient pass does the divisions, collects every leaf sum_i c_i T_i(u)
as a row of a coefficient matrix C, and lists the walk's steps in the
operators' order: a leaf, a constant, a product by a giant step, a sum.
An evaluation runs the program twice.  The level pass charges each step
(hesim._charge) before any arithmetic, so levels, OpStats and
LevelExhaustedError come once per step, as from the operators: a t-term
leaf is t plaintext multiplications at its top baby step's level, plus
its additions.  The arithmetic pass computes the values, and
hesim._finish draws the noise where the operators would: a leaf's, one
draw of variance t*sigma^2, when it is taken, and a node's after its
product.  For plaintext values, encrypt them with the noise off: the
simulator is then exact complex arithmetic.

Buffers.  compute_power_basis allocates one (k+1, n) block per schedule
and returns it with the basis: row 0 a copy of u, the baby steps T_2..T_k
written into the rows between, and the last row ones.  Each giant step
and the map get one fresh buffer.  The arithmetic pass runs one column
block of BLOCK_SLOTS slots at a time over one reused (leaves, BLOCK_SLOTS)
buffer: C times the block's columns of the basis block (a view, never a
copy) fills the leaf rows, the walk writes each node's product and sum
over its quotient's row (or a fresh array for a constant), and the value
is copied into the one output array.  So a block's leaves, basis and
giant steps stay in L2, and no full-width leaf product exists.  With the
noise on, or a complex basis block, the pass is one block as wide as the
slots, so each noise draw and each narrowing of a complex value covers
the whole value.  Values agree to rounding at any width; at BLOCK_SLOTS,
OpenBLAS gives the full-width product's bytes (the tests pin this at
n=2^15), while narrower blocks can round differently, since BLAS picks
its kernel by shape.  The caller's ciphertexts and a shared basis are
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
from dataclasses import dataclass

import numpy as np

from .cheb import ChebSeries
from .fitting import ModPlan, _whole
from .hesim import SlotCiphertext, _charge, _finish, mul_add

# Cap on repeated-addition exponents; packing layers stay far below this.
POW2_ADD_LIMIT = 24
# Slots per column block of a real noise-off evaluation: a float64 row of
# 32 KiB, so a D=400 block's 29 leaf rows, 15 basis rows and giant steps
# (about 1.5 MiB) stay within a 2 MiB L2.
BLOCK_SLOTS = 4096
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
    of ones, so the leaf product reads its columns as they stand; its dtype
    is complex with the noise on and k > 1 (the leaves then take their noise
    in place), else u's.  Every baby step comes, in ascending order, from the balanced
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
    walk, C, leaves = _memo(series, sched, lambda: _compile(series, sched))
    if C is None:
        # Constant polynomial: a zero ciphertext plus a constant, no mults.
        return (u - u) + walk
    bases = {} if bases is None else bases
    if sched not in bases:
        bases[sched] = compute_power_basis(u, sched)
    bs, gs, block = bases[sched]
    level = _settle(walk, leaves, u, bs, gs)
    params = u.params
    n = params.n
    # a real noise-off block makes real giant steps, its rows' products
    w = min(BLOCK_SLOTS, n) if params.noise_stddev == 0 and block.dtype == float else n
    rows = np.empty((len(leaves), w), block.dtype)
    out = None
    for s in range(0, n, w):
        e = min(s + w, n)
        np.matmul(C, _floats(block[:, s:e]), out=_floats(rows[:, : e - s]))
        value = _run(walk, leaves, rows[:, : e - s], u.slots[s:e],
                     [g.slots[s:e] for g in gs], params)
        if out is None:
            out = np.empty(n, value.dtype)
        out[s:e] = value
    return SlotCiphertext(out, level, params)


def _floats(a: np.ndarray) -> np.ndarray:
    """a, or a complex a's interleaved real and imaginary parts: a complex
    leaf product runs as a real product over them."""
    return a.view(float) if a.dtype == complex else a


def _memo(owner, key, make):
    """make(), computed once per (owner, key) and kept for as long as owner lives."""
    memo = _MEMO.setdefault(owner, {})
    if key not in memo:
        memo[key] = make()
    return memo[key]


def _compile(series: ChebSeries, sched: PsSchedule):
    """The program of a series: its walk, leaf matrix C and leaves (a constant and None, None).

    C's row i is leaf i's coefficients of u, T_2..T_k and its constant, so
    C times the basis block's columns gives the leaves' values: BLAS sums
    each row's terms in order, its constant last.  Leaf i is described by
    (t, adds, top): its t nonzero terms, the t - 1 additions between them
    plus one for a nonzero constant, and bs[top], its highest baby step.
    """
    coeffs = series.coeffs
    if coeffs.size - 1 > sched.capacity:
        raise DegreeOverflowError(
            f"series degree {coeffs.size - 1} exceeds schedule capacity {sched.capacity}"
        )
    if _degree(coeffs) == 0:
        return float(coeffs[0]), None, None
    g = np.zeros(sched.capacity + 1)
    g[: coeffs.size] = coeffs
    rows, walk = [], []
    # At the capacity the first division is by gs[m-1], also when D < k*2^(m-1):
    # the zero quotient times gs[m-1] then spends the schedule's top level.
    _split(g, sched.capacity, sched.k, rows, walk)
    C = np.zeros((len(rows), sched.k + 1))
    leaves = []
    for i, row in enumerate(rows):
        C[i, : row.size - 1] = row[1:]
        C[i, -1] = row[0]
        t = int(np.count_nonzero(row[1:]))
        leaves.append((t, t - int(row[0] == 0.0), row.size - 2))
    C.flags.writeable = False
    return walk, C, leaves


def _split(ff: np.ndarray, d: int, k: int, rows: list, walk: list):
    """Coefficient pass: the walk of ff, of exact degree d (the capacity at the top).

    ff is ("const", c_0) if d = 0; a leaf ("leaf", i) if d < k, whose
    coefficients c_0..c_d are appended to rows as row i; else q*T_{k*2^j} + r,
    divided by the largest giant step <= d: q's walk, ("mul", j), then r's
    walk and ("add", None) unless r vanishes.
    """
    if d == 0:
        walk.append(("const", float(ff[0])))
    elif d < k:
        walk.append(("leaf", len(rows)))
        rows.append(ff[: d + 1])
    else:
        j = 0
        while k * (1 << (j + 1)) <= d:
            j += 1
        q, r = _div_by_T(ff, k * (1 << j))
        _split(q, _degree(q), k, rows, walk)
        walk.append(("mul", j))
        if np.any(r != 0.0):
            _split(r, _degree(r), k, rows, walk)
            walk.append(("add", None))


def _settle(walk, leaves, u, bs, gs) -> int:
    """The level pass: each op of the walk charged in order as its operators are; the result's level.

    A leaf sits at its highest baby step's level, the lowest of its terms'
    (T_j sits ceil(log2 j) levels below u); a constant at u's, as u - u plus
    it.  Counts and levels are spent once per op, whatever the block count.
    """
    params, levels = u.params, []
    for op, a in walk:
        if op == "leaf":
            t, adds, top = leaves[a]
            levels.append(_charge(params, bs[top].level, "plain_mults", t, adds))
        elif op == "mul":
            levels.append(_charge(params, min(levels.pop(), gs[a].level), "ct_mults"))
        elif op == "add":
            r = levels.pop()
            levels.append(_charge(params, min(levels.pop(), r), None, adds=1))
        else:
            levels.append(_charge(params, u.level, None, adds=2))
    return levels.pop()


def _run(walk, leaves, rows, u, gs, params) -> np.ndarray:
    """The arithmetic pass over one column block: the walk's value in it.

    rows holds the block's leaf values, u and gs the block's slots of u and
    of the giant steps.  Every value lives in a buffer this evaluation owns
    (a leaf row or a fresh array), so a node writes q*T_{k*2^j}, then + r,
    over q's buffer where its dtype holds the result, as hesim.mul_add does.
    """
    stack = []
    for op, a in walk:
        if op == "leaf":
            stack.append(_finish(params, rows[a], leaves[a][0]))
        elif op == "mul":
            q, g = stack.pop(), gs[a]
            fits = np.result_type(q, g) == q.dtype
            stack.append(_finish(params, np.multiply(q, g, out=q if fits else None)))
        elif op == "add":
            r, q = stack.pop(), stack.pop()
            fits = np.result_type(q, r) == q.dtype
            stack.append(np.add(q, r, out=q if fits else None))
        else:
            stack.append((u - u) + a)
    return stack.pop()


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
