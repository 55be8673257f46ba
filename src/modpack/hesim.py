"""Slot-semantics simulator for an approximate HE scheme over complex vectors.

A ciphertext is modeled as its decoded slot vector plus a remaining
multiplicative level; every multiplication (including by plaintext
constants) burns one level.  No lattice arithmetic, keys, or noise-growth
modeling beyond an optional per-multiplication Gaussian knob: with the
noise turned off the simulator is an exact complex-arithmetic machine, so
downstream error measurements isolate pure approximation error.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class LevelExhaustedError(RuntimeError):
    """The multiplicative depth budget is spent."""


@dataclass
class OpStats:
    """Operation counters; purely diagnostic, never affects semantics."""

    ct_mults: int = 0
    plain_mults: int = 0
    adds: int = 0
    rotations: int = 0
    rotate_batches: int = 0
    conjugations: int = 0

    @property
    def mults(self) -> int:
        return self.ct_mults + self.plain_mults


@dataclass(frozen=True)
class SimParams:
    """Simulator configuration.

    noise_stddev > 0 adds independent Gaussian noise to each slot after
    every multiplication, seeded reproducibly from (seed, lineage counter).
    """

    n: int = 2**15
    max_level: int = 25
    noise_stddev: float = 0.0
    seed: int = 0
    stats: OpStats | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.n < 1 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"slot count must be a power of two, got {self.n}")
        if self.max_level < 0:
            raise ValueError("max_level must be non-negative")
        if self.noise_stddev < 0:
            raise ValueError("noise_stddev must be non-negative")


def params_from_dict(d: dict) -> SimParams:
    return SimParams(
        n=int(d.get("n", 2**15)),
        max_level=int(d.get("max_level", 25)),
        noise_stddev=float(d.get("noise_stddev", 0.0)),
        seed=int(d.get("seed", 0)),
    )


@dataclass(frozen=True)
class SlotCiphertext:
    """Immutable simulated ciphertext: n complex slots and a remaining level.

    op_index counts the multiplications in this value's lineage and seeds
    the optional noise stream, so reproducibility is independent of
    evaluation order.
    """

    slots: np.ndarray
    level: int
    params: SimParams
    op_index: int = 0

    # Numpy must defer to the reflected operators below instead of
    # broadcasting this object into element arrays.
    __array_ufunc__ = None

    # -- helpers -------------------------------------------------------

    def _plain(self, other) -> np.ndarray | complex:
        """Coerce a plaintext operand: scalars broadcast, short vectors zero-pad."""
        if np.isscalar(other) or isinstance(other, (int, float, complex)):
            return complex(other)
        arr = np.asarray(other, dtype=complex)
        if arr.ndim != 1 or arr.size > self.params.n:
            raise ValueError("plaintext vector must be 1-d with length <= slot count")
        if arr.size < self.params.n:
            arr = np.pad(arr, (0, self.params.n - arr.size))
        return arr

    def _noise(self, slots: np.ndarray, op_index: int) -> np.ndarray:
        sigma = self.params.noise_stddev
        if sigma <= 0:
            return slots
        rng = np.random.default_rng([self.params.seed & 0x7FFFFFFF, op_index])
        return slots + rng.normal(0.0, sigma, slots.size) + 1j * rng.normal(0.0, sigma, slots.size)

    def _stats(self) -> OpStats | None:
        return self.params.stats

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        st = self._stats()
        if st is not None:
            st.adds += 1
        if isinstance(other, SlotCiphertext):
            return SlotCiphertext(self.slots + other.slots, min(self.level, other.level),
                                  self.params, self.op_index + other.op_index)
        return SlotCiphertext(self.slots + self._plain(other), self.level, self.params, self.op_index)

    __radd__ = __add__

    def __sub__(self, other):
        st = self._stats()
        if st is not None:
            st.adds += 1
        if isinstance(other, SlotCiphertext):
            return SlotCiphertext(self.slots - other.slots, min(self.level, other.level),
                                  self.params, self.op_index + other.op_index)
        return SlotCiphertext(self.slots - self._plain(other), self.level, self.params, self.op_index)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return SlotCiphertext(-self.slots, self.level, self.params, self.op_index)

    def __mul__(self, other):
        st = self._stats()
        if isinstance(other, SlotCiphertext):
            new_level = min(self.level, other.level) - 1
            if new_level < 0:
                raise LevelExhaustedError(
                    f"multiplication at level {min(self.level, other.level)} would exhaust the budget"
                )
            idx = self.op_index + other.op_index + 1
            slots = self._noise(self.slots * other.slots, idx)
            if st is not None:
                st.ct_mults += 1
            return SlotCiphertext(slots, new_level, self.params, idx)
        new_level = self.level - 1
        if new_level < 0:
            raise LevelExhaustedError(f"multiplication at level {self.level} would exhaust the budget")
        idx = self.op_index + 1
        slots = self._noise(self.slots * self._plain(other), idx)
        if st is not None:
            st.plain_mults += 1
        return SlotCiphertext(slots, new_level, self.params, idx)

    __rmul__ = __mul__


def encrypt(v, params: SimParams) -> SlotCiphertext:
    """Pack a message vector into slots (zero-padded) at the full level."""
    arr = np.asarray(v, dtype=complex).reshape(-1)
    if arr.size > params.n:
        raise ValueError(f"message length {arr.size} exceeds slot count {params.n}")
    slots = np.zeros(params.n, dtype=complex)
    slots[: arr.size] = arr
    return SlotCiphertext(slots, params.max_level, params)


def decrypt(a: SlotCiphertext) -> np.ndarray:
    return a.slots.copy()


def _roll(a: SlotCiphertext, i: int) -> SlotCiphertext:
    i = int(i) % a.params.n
    return SlotCiphertext(np.roll(a.slots, -i), a.level, a.params, a.op_index)


def rotate(a: SlotCiphertext, i: int) -> SlotCiphertext:
    """Cyclic left rotation by i slots (negative i rotates right)."""
    st = a.params.stats
    if st is not None:
        st.rotations += 1
    return _roll(a, i)


def rotate_batch(a: SlotCiphertext, steps) -> list[SlotCiphertext]:
    """Several rotations of the same ciphertext.

    Stands in for hoisted rotation: the shared precomputation is not
    modeled, but callers batch their steps here so rotation budgets can be
    audited per batch.
    """
    steps = list(steps)
    st = a.params.stats
    if st is not None:
        st.rotate_batches += 1
        st.rotations += len(steps)
    return [_roll(a, s) for s in steps]


def conjugate(a: SlotCiphertext) -> SlotCiphertext:
    st = a.params.stats
    if st is not None:
        st.conjugations += 1
    return SlotCiphertext(np.conj(a.slots), a.level, a.params, a.op_index)
