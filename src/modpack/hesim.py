"""Slot-semantics simulator for an approximate HE scheme over complex vectors.

A ciphertext is modeled as its decoded slot vector plus a remaining
multiplicative level; every multiplication (including by plaintext
constants) burns one level.  No lattice arithmetic, keys, or noise-growth
modeling beyond an optional per-multiplication Gaussian knob: with the
noise turned off the simulator is an exact complex-arithmetic machine, so
downstream error measurements isolate pure approximation error.  With it
on, each multiplication result draws one Gaussian vector, of variance
t*sigma^2 for a sum of t multiplications such as a Paterson-Stockmeyer
leaf: the distribution of t independent per-term draws' sum, at one
draw's cost.

An op's result is settled in two halves: `_charge` spends its level
(raising LevelExhaustedError at level 0) and counts it in OpStats, then
`_finish` draws a multiplication's noise.  The operators call both
through `SlotCiphertext._op`; psev's evaluator charges a whole program
first and finishes each product as its arithmetic runs.

Slots are stored as float64 while every slot is real, which halves the
bytes each op moves, and as complex128 once a complex message, a complex
operand or a noisy multiplication makes them complex.  No op turns them
back: only `encrypt` and `SlotCiphertext._operand` pick a dtype, every
other op follows numpy's promotion, and `decrypt` always returns
complex128.  (packing's ImgPair unpack makes a new float64 ciphertext of
a half that has no imaginary part.)

A ciphertext's slots are never written once another ciphertext can read
them.  Only fresh arrays and buffers their caller owns are written in
place: `_finish` adds noise to the complex result it is handed, a fresh
array or a row of psev's program buffer.

SimParams alone holds and checks the simulator's settings; a CLI config overrides them by key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cheb import _number
from .fitting import _whole


class LevelExhaustedError(RuntimeError):
    """The multiplicative depth budget is spent."""


@dataclass
class OpStats:
    """Operation counters, always on; purely diagnostic, never affects semantics."""

    ct_mults: int = 0
    plain_mults: int = 0
    adds: int = 0
    rotations: int = 0
    conjugations: int = 0

    @property
    def mults(self) -> int:
        return self.ct_mults + self.plain_mults


@dataclass(frozen=True)
class SimParams:
    """Simulator configuration; n, max_level and seed must be whole (4.0 is taken as 4).

    noise_stddev = sigma > 0 adds independent Gaussian noise to each slot
    after every multiplication: N(0, sigma^2) to its real and its imaginary
    part, or N(0, t*sigma^2) for a result that sums t multiplications, one
    draw per result.  The noise comes from one generator per SimParams,
    seeded from the whole non-negative `seed` and drawn in evaluation order,
    so the same seed and the same sequence of ops give bit-identical output.
    `dataclasses.replace` builds a fresh generator and keeps the same `stats`.
    """

    n: int = 2**15
    max_level: int = 25
    noise_stddev: float = 0.0
    seed: int = 0
    stats: OpStats = field(default_factory=OpStats, compare=False)
    rng: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("n", "max_level", "seed"):
            object.__setattr__(self, name, _whole(getattr(self, name), name))
        object.__setattr__(self, "noise_stddev", _number(self.noise_stddev, "noise_stddev"))
        if self.n < 1 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"slot count must be a power of two, got {self.n}")
        if self.max_level < 0:
            raise ValueError("max_level must be non-negative")
        if not 0 <= self.noise_stddev < np.inf:  # False for NaN too
            raise ValueError(f"noise_stddev must be finite and non-negative, got "
                             f"{self.noise_stddev}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        object.__setattr__(self, "rng", np.random.default_rng(self.seed))


@dataclass(frozen=True)
class SlotCiphertext:
    """Immutable simulated ciphertext: n slots and a remaining level.

    `slots` is float64 while every slot is real and complex128 once a
    complex value or a noisy multiplication reaches them.
    """

    slots: np.ndarray
    level: int
    params: SimParams

    # Numpy must defer to the reflected operators below instead of
    # broadcasting this object into element arrays.
    __array_ufunc__ = None

    # -- helpers -------------------------------------------------------

    def _operand(self, other) -> np.ndarray | complex:
        """Slots of a ciphertext operand, or a coerced plaintext: scalars
        broadcast, short vectors zero-pad; a real plaintext stays real."""
        if isinstance(other, SlotCiphertext):
            return other.slots
        if np.isscalar(other):
            is_complex = isinstance(other, (complex, np.complexfloating))
            return complex(other) if is_complex else float(other)
        arr = _real_or_complex(other)
        if arr.ndim != 1 or arr.size > self.params.n:
            raise ValueError("plaintext vector must be 1-d with length <= slot count")
        if arr.size < self.params.n:
            arr = _zero_padded(arr, self.params.n)
        return arr

    def _op(self, count: str | None, slots: np.ndarray, other=None) -> SlotCiphertext:
        """An operator's result: `_charge` settles its level and OpStats, `_finish` its slots.

        The result sits at the lowest level of self and a ciphertext
        `other`.  count names the OpStats counter the op adds to (None adds
        to none); "mults" is a multiplication, counted as ct_mults or
        plain_mults by its operand.  `slots` must be an array nothing else
        reads, as every caller's fresh result is.
        """
        is_ct = isinstance(other, SlotCiphertext)
        level = min(self.level, other.level) if is_ct else self.level
        if count == "mults":
            count = "ct_mults" if is_ct else "plain_mults"
        level = _charge(self.params, level, count)
        if count in _MULTS:
            slots = _finish(self.params, slots)
        return SlotCiphertext(slots, level, self.params)

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        return self._op("adds", self.slots + self._operand(other), other)

    __radd__ = __add__

    def __sub__(self, other):
        return self._op("adds", self.slots - self._operand(other), other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return self._op(None, -self.slots)

    def __mul__(self, other):
        return self._op("mults", self.slots * self._operand(other), other)

    __rmul__ = __mul__


def _real_or_complex(v) -> np.ndarray:
    """v as a float64 array, or as complex128 if its dtype is complex."""
    arr = np.asarray(v)
    return arr.astype(complex if np.iscomplexobj(arr) else float, copy=False)


def _zero_padded(arr: np.ndarray, n: int) -> np.ndarray:
    """A fresh length-n array of arr's dtype: arr, then zeros."""
    out = np.zeros(n, dtype=arr.dtype)
    out[: arr.size] = arr
    return out


_MULTS = ("ct_mults", "plain_mults")


def _charge(params: SimParams, level: int, count: str | None, terms: int = 1,
            adds: int = 0) -> int:
    """The level-and-count half of an op: the level of its result, with OpStats counted.

    count names the OpStats counter the op adds `terms` to (None adds to
    none), and `adds` more additions are counted with it.  A ct_mults or
    plain_mults op spends one level of `level`, its operands' lowest, and
    raises LevelExhaustedError if none is left.
    """
    if count in _MULTS:
        if level < 1:
            raise LevelExhaustedError(f"multiplication at level {level} would exhaust the budget")
        level -= 1
    stats = params.stats
    if count is not None:
        setattr(stats, count, getattr(stats, count) + terms)
    stats.adds += adds
    return level


def _finish(params: SimParams, slots: np.ndarray, terms: int = 1) -> np.ndarray:
    """The noise half of a multiplication of `terms` terms: its result's slots.

    With the noise on, one Gaussian draw of variance terms*sigma^2 per slot
    part, distributed as the sum of a draw per term; complex slots take it
    in place, real ones become a fresh complex sum.  With it off, `slots`
    as they are.  `slots` must be an array nothing else reads.
    """
    sigma = params.noise_stddev
    if sigma > 0:
        noise = params.rng.standard_normal(2 * slots.size).view(complex)
        noise *= sigma * math.sqrt(terms)
        if slots.dtype == complex:
            slots += noise
        else:
            slots = slots + noise
    return slots


def encrypt(v, params: SimParams) -> SlotCiphertext:
    """Pack a finite message vector into slots (zero-padded) at the full level.

    A real message is stored as float64 slots, a complex one as complex128.
    """
    arr = _real_or_complex(v).reshape(-1)
    if arr.size > params.n:
        raise ValueError(f"message length {arr.size} exceeds slot count {params.n}")
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        raise ValueError(f"message element {bad[0]} is not finite: {arr[bad[0]]}")
    return SlotCiphertext(_zero_padded(arr, params.n), params.max_level, params)


def decrypt(a: SlotCiphertext) -> np.ndarray:
    """A complex128 copy of the slots."""
    return a.slots.astype(complex)


def rotate(a: SlotCiphertext, i: int) -> SlotCiphertext:
    """Cyclic left rotation by i slots (negative i rotates right)."""
    return a._op("rotations", np.roll(a.slots, -_whole(i, "rotation step")))


def rotate_batch(a: SlotCiphertext, steps, sizes) -> list[SlotCiphertext]:
    """Masked rotations of one ciphertext: output k is rotate(a, steps[k]) * np.ones(sizes[k]).

    Each output holds the sizes[k] slots from steps[k] on (wrapping), then
    zeros; it is built in one array, yet costs what the rotation and the mask
    multiplication would: a rotation, a plaintext multiplication, one level
    and the noise draw.  Stands in for hoisted rotation (the shared
    precomputation is not modeled); the concat stage calls it per output.
    """
    n = a.params.n
    steps = [_whole(s, "rotation step") % n for s in steps]
    sizes = [_whole(m, "rotation size") for m in sizes]
    if len(steps) != len(sizes):
        raise ValueError(f"rotate_batch got {len(steps)} steps and {len(sizes)} sizes")
    for m in sizes:
        if not 0 <= m <= n:
            raise ValueError(f"rotation size must be in [0, {n}], got {m}")
    outs = []
    for s, m in zip(steps, sizes):
        slots = np.zeros(n, dtype=a.slots.dtype)
        head = min(m, n - s)
        slots[:head] = a.slots[s : s + head]
        slots[head:m] = a.slots[: m - head]
        outs.append(a._op("rotations", slots)._op("mults", slots))
    return outs


def conjugate(a: SlotCiphertext) -> SlotCiphertext:
    return a._op("conjugations", np.conj(a.slots))
