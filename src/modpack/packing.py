"""Data packing schemes and their homomorphic unpacking on the simulator.

Four schemes cover the two redundancy dimensions: VecConcat and ImgPair
use spare slots (length dimension), BitStack and CrtStack stack small
integers inside one slot (value dimension).  Value-stacked layers are
recovered under encryption with fitted mod approximations; slot-packed
layers with rotations, masks, and conjugation.  Schemes compose through
PackLayout pipelines, unpacked strictly in reverse stage order.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .fitting import load_plan, save_plan
from .hesim import SlotCiphertext, conjugate, rotate, rotate_batch
from .psev import eval_plan, mul_by_int_additively

# Packed integers live in double-precision slots; keep them exactly
# representable with headroom.
PACKED_VALUE_LIMIT = 1 << 24


class CapacityError(ValueError):
    """The packed data does not fit the available slots."""


# ---------------------------------------------------------------------------
# VecConcat
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConcatLayout:
    """Message sizes n_1..n_d concatenated into one slot vector."""

    sizes: tuple

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.sizes)
        if not sizes or any(s < 1 for s in sizes):
            raise ValueError("sizes must be positive")
        object.__setattr__(self, "sizes", sizes)

    @property
    def total(self) -> int:
        return sum(self.sizes)


def vec_pack(vectors, layout: ConcatLayout, n: int | None = None) -> np.ndarray:
    """Concatenate vectors per the layout, optionally zero-padding to n slots."""
    if len(vectors) != len(layout.sizes):
        raise ValueError(f"expected {len(layout.sizes)} vectors, got {len(vectors)}")
    parts = []
    for i, (v, size) in enumerate(zip(vectors, layout.sizes)):
        arr = np.asarray(v).reshape(-1)
        if arr.size != size:
            raise ValueError(f"vector {i} has length {arr.size}, layout expects {size}")
        parts.append(arr)
    out = np.concatenate(parts) if parts else np.zeros(0)
    if n is not None:
        if layout.total > n:
            raise CapacityError(f"layout occupies {layout.total} slots, only {n} available")
        out = np.pad(out, (0, n - out.size))
    return out


def vec_unpack(ct: SlotCiphertext, layout: ConcatLayout) -> list[SlotCiphertext]:
    """Split a concatenated ciphertext; costs one level (the mask multiply).

    All d rotations of the same input go through a single rotate_batch call.
    """
    if layout.total > ct.params.n:
        raise CapacityError("layout exceeds slot count")
    starts = np.concatenate(([0], np.cumsum(layout.sizes)[:-1]))
    rotated = rotate_batch(ct, [int(s) for s in starts])
    # A short plaintext operand zero-pads to the slot count, so np.ones(size)
    # is exactly the mask with d_i leading ones.
    return [r_ct * np.ones(size) for r_ct, size in zip(rotated, layout.sizes)]


def repack_repeat(ct: SlotCiphertext, d_x: int, r: int) -> SlotCiphertext:
    """Tile the leading d_x slots r times using only additions and rotations.

    Doubles the repetition count along the binary expansion of r, then
    shifts the partial tilings into place: at most 2*floor(log2 r) + 1
    rotations and zero multiplicative levels.
    """
    if d_x < 1 or r < 1:
        raise ValueError("d_x and r must be positive")
    if r * d_x > ct.params.n:
        raise CapacityError(f"{r} repetitions of {d_x} slots exceed {ct.params.n}")
    if r == 1:
        return ct
    ell = r.bit_length() - 1
    reps = [ct]  # reps[i] holds x repeated 2^i times
    for i in range(1, ell + 1):
        prev = reps[-1]
        reps.append(prev + rotate(prev, -(1 << (i - 1)) * d_x))
    acc = reps[ell]
    for i in range(ell):
        if (r >> i) & 1:
            offset = sum(1 << j for j in range(i + 1, ell + 1) if (r >> j) & 1)
            acc = acc + rotate(reps[i], -d_x * offset)
    return acc


# ---------------------------------------------------------------------------
# ImgConcat: second message in the imaginary parts
# ---------------------------------------------------------------------------


def img_pack(a, b) -> np.ndarray:
    """Pair two real vectors as real and imaginary parts of complex slots."""
    a = np.asarray(a, dtype=float).reshape(-1)
    b = np.asarray(b, dtype=float).reshape(-1)
    n = max(a.size, b.size)
    out = np.zeros(n, dtype=complex)
    out[: a.size] += a
    out[: b.size] += 1j * b
    return out


def img_unpack(ct: SlotCiphertext, n1: int, n2: int):
    """Recover the real-part and imaginary-part messages; one level, one conjugation."""
    conj = conjugate(ct)
    mask_re = np.full(n1, 0.5)
    mask_im = np.full(n2, -0.5j)
    return (ct + conj) * mask_re, (ct - conj) * mask_im


# ---------------------------------------------------------------------------
# BitStack: radix stacking along the value dimension
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BitStackLayout:
    """Per-layer radices (2^l_i for binary widths) and the boundary mod plans.

    plans[i] recovers layer i: modulus radices[i] over the residual interval
    [0, prod(radices[i:]) - 1].  The final layer needs no plan.
    """

    radices: tuple
    plans: tuple = ()

    def __post_init__(self):
        radices = tuple(int(r) for r in self.radices)
        if not radices or any(r < 2 for r in radices):
            raise ValueError("radices must all be at least 2")
        if math.prod(radices) > PACKED_VALUE_LIMIT:
            raise CapacityError("stacked range exceeds the exact-double guard 2^24")
        plans = tuple(self.plans) if self.plans else ()
        if plans:
            if len(plans) != len(radices) - 1:
                raise ValueError("need exactly one plan per layer boundary")
            for i, plan in enumerate(plans):
                want_p, want_b = bitstack_plan_specs(radices)[i]
                if plan.p != want_p or plan.B != want_b:
                    raise ValueError(
                        f"plan {i} fits ModP(x,{plan.p}) on [0,{plan.B}], "
                        f"layer needs ModP(x,{want_p}) on [0,{want_b}]"
                    )
        object.__setattr__(self, "radices", radices)
        object.__setattr__(self, "plans", plans)

    @classmethod
    def from_bit_widths(cls, bit_widths, plans=()):
        return cls(tuple(1 << int(l) for l in bit_widths), plans)

    @property
    def bit_widths(self) -> tuple | None:
        """Widths l_i when every radix is a power of two, else None."""
        ls = []
        for r in self.radices:
            l = r.bit_length() - 1
            if (1 << l) != r:
                return None
            ls.append(l)
        return tuple(ls)


def bitstack_plan_specs(radices) -> list[tuple[int, int]]:
    """(modulus, interval bound) per layer boundary: layer i sees the residual range."""
    radices = tuple(int(r) for r in radices)
    return [(radices[i], math.prod(radices[i:]) - 1) for i in range(len(radices) - 1)]


def bitstack_pack(values, layout: BitStackLayout) -> np.ndarray:
    """Element-wise radix stacking: x = a_1 + a_2*r_1 + a_3*r_1*r_2 + ..."""
    if len(values) != len(layout.radices):
        raise ValueError(f"expected {len(layout.radices)} layers, got {len(values)}")
    arrays = [np.asarray(v, dtype=np.int64) for v in values]
    for i, (arr, r) in enumerate(zip(arrays, layout.radices)):
        if np.any(arr < 0) or np.any(arr >= r):
            bad = int(np.argmax((arr < 0) | (arr >= r)))
            raise ValueError(f"layer {i} element {bad} out of range [0, {r})")
    out = np.zeros_like(arrays[0])
    weight = 1
    for arr, r in zip(arrays, layout.radices):
        out = out + weight * arr
        weight *= r
    return out


def bitstack_unpack(ct: SlotCiphertext, layout: BitStackLayout) -> list[SlotCiphertext]:
    """Strip layers serially with mod evaluations; the last layer is the residual.

    The scale factors delta and 1/r_i are fused into the evaluation leaves,
    and each recovered layer is rescaled back by additions only, so layer i
    costs i evaluations' worth of depth and the final layer costs none.
    """
    d = len(layout.radices)
    if d == 1:
        return [ct]
    if not layout.plans:
        raise ValueError("layout carries no plans; unpacking needs one per layer boundary")
    outs = []
    x = ct
    for i in range(d - 1):
        r = layout.radices[i]
        scaled = eval_plan(x, layout.plans[i], extra_scale=1.0 / r)  # layer_i / r
        outs.append(mul_by_int_additively(scaled, r))
        x = x * (1.0 / r) - scaled
    outs.append(x)
    return outs


# ---------------------------------------------------------------------------
# CrtStack: residue stacking via the Chinese Remainder Theorem
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrtBasis:
    """Pairwise-coprime moduli with precomputed recombination constants.

    recombinants[i] = (P/P_i) * ((P/P_i)^-1 mod P_i) mod P, so packing is a
    plain inner product followed by one reduction mod P.
    """

    moduli: tuple
    plans: tuple = ()

    def __post_init__(self):
        moduli = tuple(int(p) for p in self.moduli)
        if not moduli or any(p < 2 for p in moduli):
            raise ValueError("moduli must all be at least 2")
        for i in range(len(moduli)):
            for j in range(i + 1, len(moduli)):
                if math.gcd(moduli[i], moduli[j]) != 1:
                    raise ValueError(f"moduli {moduli[i]} and {moduli[j]} are not coprime")
        P = math.prod(moduli)
        if P > PACKED_VALUE_LIMIT:
            raise CapacityError("combined modulus exceeds the exact-double guard 2^24")
        recombinants = []
        for p in moduli:
            P_i = P // p
            m_i = pow(P_i, -1, p)
            recombinants.append((P_i * m_i) % P)
        plans = tuple(self.plans) if self.plans else ()
        if plans:
            if len(plans) != len(moduli):
                raise ValueError("need exactly one plan per modulus")
            for p, plan in zip(moduli, plans):
                if plan.p != p or plan.B != P - 1:
                    raise ValueError(
                        f"plan fits ModP(x,{plan.p}) on [0,{plan.B}], "
                        f"layer needs ModP(x,{p}) on [0,{P - 1}]"
                    )
        object.__setattr__(self, "moduli", moduli)
        object.__setattr__(self, "plans", plans)
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "recombinants", tuple(recombinants))


def crt_pack(values, basis: CrtBasis) -> np.ndarray:
    """Element-wise residue recombination: x = (sum a_i * b_i) mod P, x in [0, P)."""
    if len(values) != len(basis.moduli):
        raise ValueError(f"expected {len(basis.moduli)} layers, got {len(values)}")
    arrays = [np.asarray(v, dtype=np.int64) for v in values]
    for i, (arr, p) in enumerate(zip(arrays, basis.moduli)):
        if np.any(arr < 0) or np.any(arr >= p):
            bad = int(np.argmax((arr < 0) | (arr >= p)))
            raise ValueError(f"layer {i} element {bad} out of range [0, {p})")
    acc = np.zeros_like(arrays[0])
    for arr, b in zip(arrays, basis.recombinants):
        acc = (acc + arr * b) % basis.P
    return acc


def crt_unpack(ct: SlotCiphertext, basis: CrtBasis, parallel: bool = False) -> list[SlotCiphertext]:
    """Recover every residue layer from the same input ciphertext.

    Layers are independent mod evaluations, so they consume identical depth
    and their errors do not accumulate; parallel=True runs them in threads.
    With noise on, the threads draw from the one noise stream of the
    ciphertext's SimParams in whatever order they run, so only a serial
    unpack reproduces the noise exactly.
    """
    if not basis.plans:
        raise ValueError("basis carries no plans; unpacking needs one per modulus")
    if parallel and len(basis.plans) > 1:
        with ThreadPoolExecutor(max_workers=len(basis.plans)) as pool:
            return list(pool.map(lambda plan: eval_plan(ct, plan), basis.plans))
    return [eval_plan(ct, plan) for plan in basis.plans]


# ---------------------------------------------------------------------------
# Pipelines: composing schemes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConcatStage:
    """Groups consecutive vectors into concatenated ones.

    Either `groups` lists each output's member sizes explicitly, or
    `template` gives one group shape applied repeatedly.
    """

    groups: tuple | None = None
    template: tuple | None = None

    def __post_init__(self):
        if (self.groups is None) == (self.template is None):
            raise ValueError("specify exactly one of groups or template")
        if self.groups is not None:
            object.__setattr__(
                self, "groups", tuple(tuple(int(s) for s in g) for g in self.groups)
            )
        else:
            object.__setattr__(self, "template", tuple(int(s) for s in self.template))

    def resolve(self, n_outputs: int) -> tuple:
        if self.groups is not None:
            return self.groups
        return tuple(self.template for _ in range(n_outputs))


@dataclass(frozen=True)
class StackStage:
    """Value-dimension stacking of consecutive vector groups."""

    layout: BitStackLayout | CrtBasis

    @property
    def depth(self) -> int:
        if isinstance(self.layout, CrtBasis):
            return len(self.layout.moduli)
        return len(self.layout.radices)


@dataclass(frozen=True)
class ImgPairStage:
    """Pairs consecutive vectors as real/imaginary parts."""

    n1: int
    n2: int


@dataclass(frozen=True)
class PackLayout:
    """Ordered packing stages; unpacking replays them in reverse."""

    stages: tuple

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(self.stages))


def _chunk(items, size):
    if len(items) % size != 0:
        raise ValueError(f"stage needs groups of {size} vectors, got {len(items)} total")
    return [items[i : i + size] for i in range(0, len(items), size)]


def pipeline_pack(data, layout: PackLayout) -> list[np.ndarray]:
    """Run the packing stages over a list of plaintext vectors."""
    current = [np.asarray(v) for v in data]
    for stage in layout.stages:
        if isinstance(stage, ConcatStage):
            groups = stage.groups
            if groups is None:
                groups = _chunk(current, len(stage.template))
                groups = tuple(tuple(stage.template) for _ in groups)
            if sum(len(g) for g in groups) != len(current):
                raise ValueError("concat groups do not cover the stage input")
            out, idx = [], 0
            for g in groups:
                out.append(vec_pack(current[idx : idx + len(g)], ConcatLayout(g)))
                idx += len(g)
            current = out
        elif isinstance(stage, StackStage):
            chunks = _chunk(current, stage.depth)
            out = []
            for chunk in chunks:
                if len({len(v) for v in chunk}) != 1:
                    raise ValueError("stacked vectors must share the same length")
                if isinstance(stage.layout, CrtBasis):
                    out.append(crt_pack(chunk, stage.layout))
                else:
                    out.append(bitstack_pack(chunk, stage.layout))
            current = out
        elif isinstance(stage, ImgPairStage):
            out = []
            for a, b in _chunk(current, 2):
                if len(a) != stage.n1 or len(b) != stage.n2:
                    raise ValueError(
                        f"imgpair stage expects lengths ({stage.n1}, {stage.n2}), "
                        f"got ({len(a)}, {len(b)})"
                    )
                out.append(img_pack(a, b))
            current = out
        else:
            raise TypeError(f"unknown stage {stage!r}")
    return current


def pipeline_unpack(cts, layout: PackLayout) -> list[SlotCiphertext]:
    """Invert the packing stages over ciphertexts, in reverse stage order."""
    current = list(cts)
    for stage in reversed(layout.stages):
        if isinstance(stage, ImgPairStage):
            out = []
            for ct in current:
                a, b = img_unpack(ct, stage.n1, stage.n2)
                out.extend((a, b))
            current = out
        elif isinstance(stage, StackStage):
            out = []
            for ct in current:
                if isinstance(stage.layout, CrtBasis):
                    out.extend(crt_unpack(ct, stage.layout))
                else:
                    out.extend(bitstack_unpack(ct, stage.layout))
            current = out
        elif isinstance(stage, ConcatStage):
            groups = stage.resolve(len(current))
            if len(groups) != len(current):
                raise ValueError(f"concat stage expects {len(groups)} ciphertexts, got {len(current)}")
            out = []
            for ct, g in zip(current, groups):
                out.extend(vec_unpack(ct, ConcatLayout(g)))
            current = out
        else:
            raise TypeError(f"unknown stage {stage!r}")
    return current


# ---------------------------------------------------------------------------
# Layout (de)serialization
# ---------------------------------------------------------------------------


def save_layout(layout: PackLayout, path, plan_dir=None):
    """Write a layout as JSON, saving stage plans as sibling artifact files."""
    path = Path(path)
    plan_dir = Path(plan_dir) if plan_dir is not None else path.parent
    plan_dir.mkdir(parents=True, exist_ok=True)
    stages = []
    for si, stage in enumerate(layout.stages):
        if isinstance(stage, ConcatStage):
            if stage.groups is not None:
                stages.append({"kind": "concat", "groups": [list(g) for g in stage.groups]})
            else:
                stages.append({"kind": "concat", "sizes": list(stage.template)})
        elif isinstance(stage, StackStage):
            plans = stage.layout.plans
            files = []
            for li, plan in enumerate(plans):
                fname = f"{path.stem}-stage{si}-layer{li}.plan.json"
                save_plan(plan, plan_dir / fname)
                files.append(os.path.relpath(plan_dir / fname, path.parent))
            if isinstance(stage.layout, CrtBasis):
                stages.append({"kind": "crt", "moduli": list(stage.layout.moduli),
                               "plan_files": files})
            else:
                entry = {"kind": "bitstack", "plan_files": files}
                widths = stage.layout.bit_widths
                if widths is not None:
                    entry["bit_widths"] = list(widths)
                else:
                    entry["radices"] = list(stage.layout.radices)
                stages.append(entry)
        elif isinstance(stage, ImgPairStage):
            stages.append({"kind": "imgpair", "n1": stage.n1, "n2": stage.n2})
        else:
            raise TypeError(f"unknown stage {stage!r}")
    path.write_text(json.dumps({"stages": stages}, indent=2) + "\n")


def load_layout(path) -> PackLayout:
    """Read a layout JSON; plan files resolve relative to the layout file."""
    path = Path(path)
    doc = json.loads(path.read_text())
    stages = []
    for entry in doc["stages"]:
        kind = entry["kind"]
        if kind == "concat":
            if "groups" in entry:
                stages.append(ConcatStage(groups=tuple(tuple(g) for g in entry["groups"])))
            else:
                stages.append(ConcatStage(template=tuple(entry["sizes"])))
        elif kind in ("crt", "bitstack"):
            plans = tuple(load_plan(path.parent / f) for f in entry.get("plan_files") or ())
            if kind == "crt":
                stages.append(StackStage(CrtBasis(tuple(entry["moduli"]), plans)))
            elif "bit_widths" in entry:
                stages.append(StackStage(BitStackLayout.from_bit_widths(entry["bit_widths"], plans)))
            else:
                stages.append(StackStage(BitStackLayout(tuple(entry["radices"]), plans)))
        elif kind == "imgpair":
            stages.append(ImgPairStage(int(entry["n1"]), int(entry["n2"])))
        else:
            raise ValueError(f"unknown stage kind {kind!r}")
    return PackLayout(tuple(stages))
