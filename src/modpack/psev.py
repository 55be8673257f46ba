"""Paterson-Stockmeyer evaluation of Chebyshev series on simulated ciphertexts.

Each eval_plans call runs one program: the domain map, the baby and giant
steps of each schedule, and each plan's leaf product and walk, as steps
over the rows of one buffer, in the operators' order.  A series is
compiled once: the coefficient pass does the divisions, collects every
leaf sum_i c_i T_i(u) as a row of a coefficient matrix C, and lists the
walk (a leaf, a constant, a product by a giant step, a sum), which _place
turns into steps.  The level pass (_settle) charges every step
(hesim._charge) before any arithmetic, so levels, OpStats and
LevelExhaustedError come once per step, as from the operators: a t-term
leaf is t plaintext multiplications at its top baby step's level, plus
its additions.  The arithmetic pass (_execute) computes the values, and
hesim._finish draws each product's noise where the operators would: a
leaf's, one draw of variance t*sigma^2, when it is taken.  For plaintext
values, encrypt them with the noise off: the simulator is then exact.

Rows.  Row 0 holds u; each schedule has a region of u's copy, T_2..T_k,
ones and the giant steps past T_k; a plan's leaves and constants take the
last rows.  The leaf product reads a region's first k+1 rows in place,
and the walk writes each node over its quotient's row.  A noise-off
program runs one column block of BLOCK_SLOTS slots at a time through the
buffer, allocated once per call, so a block's steps stay in L2 and no
full-width intermediate exists; each plan's value is copied into its own
output.  With the noise on it is one block as wide as the slots, so each
noise draw covers a whole value.  The buffer has one dtype, the one the
operators' values would all end in: complex for a complex input, or with
the noise on for a program that multiplies, else float64.  Values agree to
rounding at any width; at BLOCK_SLOTS, OpenBLAS gives the full-width
product's bytes (the tests pin this at n=2^15).  The caller's ciphertexts
are only read.

Plans on one input share the map and each schedule's basis, built just
before the first plan that uses it; with the noise on, these carry noise
common to every output, as on a real backend.  eval_ps is the same
program on u, without the map.

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
from .hesim import SlotCiphertext, _charge, _finish

# Cap on repeated-addition exponents; packing layers stay far below this.
POW2_ADD_LIMIT = 24
# Slots per column block of a noise-off evaluation: a float64 row of
# 32 KiB, so a D=400 block's map, 20 basis rows and about 30 leaf rows
# (about 1.6 MiB) stay within a 2 MiB L2.
BLOCK_SLOTS = 4096
# Values computed once per live plan or series: {owner: {key: value}}.
_MEMO = weakref.WeakKeyDictionary()
# The arithmetic of the program's product, sum and difference steps.
_UFUNCS = {"mul": np.multiply, "add": np.add, "sub": np.subtract}


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


def compute_power_basis(sched: PsSchedule, base: int) -> list:
    """The steps of the Chebyshev powers of u (row 0) over the k + m rows from base.

    Row base gets a copy of u, row base+j-1 the baby step T_j, row base+k
    the leaf product's ones, and row base+k+j the giant step T_{k*2^j} (T_k
    is the last baby step).  A baby step T_j = 2*T_ceil(j/2)*T_floor(j/2) -
    T_(j mod 2), in ascending j, and a giant step T_2n = 2*T_n^2 - 1 are each
    a ct x ct product, its doubling and a subtraction: a dag of log depth.
    """
    k = sched.k
    giants = [k - 1] + list(range(k + 1, k + sched.m))  # rows of T_k, T_2k, T_4k, ...
    # (row, factor rows, whether the subtrahend is T_1 rather than 1), relative to base
    halves = [(j - 1, (j + 1) // 2 - 1, j // 2 - 1, j % 2) for j in range(2, k + 1)]
    halves += [(g, h, h, 0) for h, g in zip(giants, giants[1:])]
    steps = [("copy", base, 0, None)]
    for d, a, b, odd in halves:
        d, c = base + d, base if odd else 1.0
        steps += [("mul", d, base + a, base + b), ("add", d, d, d), ("sub", d, d, c)]
    return steps


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


def eval_ps(series: ChebSeries, u, sched: PsSchedule):
    """Evaluate sum_i c_i T_i(u) on the ciphertext u, whose slots must live in [-1, 1].

    The series' source domain is the caller's concern: map x into u first
    (that mapping costs the one extra level).  The series is compiled for
    sched on its first evaluation; later ones only run the program.
    """
    return _evaluate(u, [(series, sched)])[0]


def _memo(owner, key, make):
    """make(), computed once per (owner, key) and kept for as long as owner lives."""
    memo = _MEMO.setdefault(owner, {})
    if key not in memo:
        memo[key] = make()
    return memo[key]


def _compile(series: ChebSeries, sched: PsSchedule):
    """The program of a series: its walk, leaf matrix C and leaves (a constant and None, None).

    C's row i is leaf i's coefficients of u, T_2..T_k and its constant, so
    C times the basis rows gives the leaves' values: BLAS sums each row's
    terms in order, its constant last.  Leaf i is described by (t, adds,
    top): its t nonzero terms, the t - 1 additions between them plus one
    for a nonzero constant, and T_(top+1), its highest baby step.
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


def _place(compiled, sched: PsSchedule, base: int | None):
    """A compiled series' steps on the region from base: (steps, root row, rows at the end).

    Leaf i of L takes row i - L, each constant, (u - u) + c, a row above them,
    and a walk node writes over its quotient's row: the walk's stack is resolved here.
    """
    walk, C, leaves = compiled
    if C is None:
        return [("sub", -1, 0, 0), ("add", -1, -1, walk)], -1, 1
    L, k = len(leaves), sched.k
    steps, stack, free = [("gemm", -L, base, C)] if L else [], [], -L - 1
    for op, a in walk:
        if op == "leaf":
            t, adds, top = leaves[a]
            steps.append(("leaf", a - L, base + top, (t, adds)))
            stack.append(a - L)
        elif op == "const":
            steps += [("sub", free, 0, 0), ("add", free, free, a)]
            stack.append(free)
            free -= 1
        elif op == "mul":
            steps.append(("mul", stack[-1], stack[-1], base + k + a - (a == 0)))
        else:
            r = stack.pop()
            steps.append(("add", stack[-1], stack[-1], r))
    return steps, stack.pop(), -free - 1


def _evaluate(x, jobs, scale: float | None = None) -> list:
    """The values of (series, schedule) jobs on x by one program, mapping u = scale*x - 1 first."""
    steps = [] if scale is None else [("mul", 0, 0, scale), ("sub", 0, 0, 1.0)]
    bases, height, depth = {}, 1, 0
    for i, (series, sched) in enumerate(jobs):
        compiled = _memo(series, sched, lambda: _compile(series, sched))
        if compiled[1] is not None and sched not in bases:
            bases[sched] = height
            steps += compute_power_basis(sched, height)
            height += sched.k + sched.m
        base = bases.get(sched)
        placed, root, rows = _memo(series, (sched, base), lambda: _place(compiled, sched, base))
        steps += placed
        steps.append(("out", i, root, None))
        depth = max(depth, rows)
    return _execute(x, steps, height + depth)


def _settle(steps, level: int, params) -> list:
    """The level pass: each step charged in order as its operators are; the outputs' levels.

    A product of two rows is a ct x ct multiplication, of a row and a scalar a
    plaintext one, and a sum or difference an addition, at its operands' lowest
    level; a leaf sits at its top baby step's.  A copy and the leaf product are free.
    """
    levels, outs = {0: level}, []
    for op, d, a, b in steps:
        if op == "leaf":
            levels[d] = _charge(params, levels[a], "plain_mults", *b)
        elif op == "copy":
            levels[d] = levels[a]
        elif op == "out":
            outs.append(levels[a])
        elif op != "gemm":
            ct = type(b) is int
            low = min(levels[a], levels[b]) if ct else levels[a]
            if op == "mul":
                levels[d] = _charge(params, low, "ct_mults" if ct else "plain_mults")
            else:
                levels[d] = _charge(params, low, None, adds=1)
    return outs


def _execute(x, steps, height: int) -> list:
    """The program's outputs on x: the level pass, then the arithmetic pass over height rows.

    A column block starts with a copy of x's slots in row 0; each value lies in its own row.
    """
    levels = _settle(steps, x.level, x.params)
    params = x.params
    n, sigma = params.n, params.noise_stddev
    noisy = sigma > 0 and any(step[0] in ("mul", "leaf") for step in steps)
    w = n if sigma > 0 else min(BLOCK_SLOTS, n)
    buf = np.empty((height, w), complex if noisy or x.slots.dtype == complex else float)
    outs = [None] * len(levels)
    block, rows = buf, list(buf)
    for s in range(0, n, w):
        if n - s < w:
            block = buf[:, : n - s]
            rows = list(block)
        floats = block.view(float)  # a complex leaf product runs over interleaved parts
        rows[0][...] = x.slots[s : s + w]
        for op, d, a, b in steps:
            if op in _UFUNCS:
                _UFUNCS[op](rows[a], rows[b] if type(b) is int else b, out=rows[d])
                if noisy and op == "mul":
                    _finish(params, rows[d])
            elif op == "leaf":
                if noisy:
                    _finish(params, rows[d], b[0])
            elif op == "gemm":
                block[a + b.shape[1] - 1] = 1.0
                np.matmul(b, floats[a : a + b.shape[1]], out=floats[d:])
            elif op == "copy":
                rows[d][...] = rows[a]
            else:
                if outs[d] is None:
                    outs[d] = np.empty(n, buf.dtype)
                outs[d][s : s + w] = rows[a]
    return [SlotCiphertext(slots, level, params) for slots, level in zip(outs, levels)]


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

    One program maps u = 2x/B - 1 once (one level), builds one power basis
    per distinct schedule, and runs each plan's leaf product and walk on its
    series, scaled by delta * extra_scale (scaled and compiled once per plan
    and finite scale): the leaves apply the scale at no level.  With the
    noise off, each output is bit for bit what the plan gives alone.
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
    jobs = [(_memo(plan, extra_scale, lambda: ChebSeries(
        plan.series.coeffs * (plan.delta * extra_scale), plan.B)), plan_schedule(plan.D))
        for plan in plans]
    return _evaluate(x, jobs, 2.0 / B)


def eval_plan(x, plan: ModPlan, extra_scale: float = 1.0):
    """Apply a fitted plan to the ciphertext x over its interval [0, B]: eval_plans of one."""
    return eval_plans(x, (plan,), extra_scale)[0]
