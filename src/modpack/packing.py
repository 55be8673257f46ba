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


def _chunk(items, size):
    if len(items) % size != 0:
        raise ValueError(f"stage needs groups of {size} vectors, got {len(items)} total")
    return [items[i : i + size] for i in range(0, len(items), size)]


# ---------------------------------------------------------------------------
# VecConcat
# ---------------------------------------------------------------------------


def vec_pack(vectors, sizes) -> np.ndarray:
    """Concatenate vectors of lengths `sizes`; encrypt zero-pads them to the slot count."""
    if len(vectors) != len(sizes):
        raise ValueError(f"expected {len(sizes)} vectors, got {len(vectors)}")
    parts = []
    for i, (v, size) in enumerate(zip(vectors, sizes)):
        arr = np.asarray(v).reshape(-1)
        if arr.size != size:
            raise ValueError(f"vector {i} has length {arr.size}, layout expects {size}")
        parts.append(arr)
    return np.concatenate(parts) if parts else np.zeros(0)


def vec_unpack(ct: SlotCiphertext, sizes) -> list[SlotCiphertext]:
    """Split a ciphertext concatenating messages of lengths `sizes`; costs one level.

    All d rotations of the same input go through a single rotate_batch call.
    """
    if sum(sizes) > ct.params.n:
        raise CapacityError(f"sizes occupy {sum(sizes)} slots, only {ct.params.n} available")
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    rotated = rotate_batch(ct, [int(s) for s in starts])
    # A short plaintext operand zero-pads to the slot count, so np.ones(size)
    # is exactly the mask with d_i leading ones.
    return [r_ct * np.ones(size) for r_ct, size in zip(rotated, sizes)]


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


@dataclass(frozen=True)
class ConcatStage:
    """Pipeline stage that groups consecutive vectors into concatenated ones.

    Either `groups` lists each output's member sizes explicitly, or
    `template` gives one group shape applied repeatedly.
    """

    groups: tuple | None = None
    template: tuple | None = None
    plans = ()  # a class attribute, not a field: concatenation fits no plans

    def __post_init__(self):
        if (self.groups is None) == (self.template is None):
            raise ValueError("specify exactly one of groups or template")
        if self.groups is not None:
            groups = tuple(tuple(int(s) for s in g) for g in self.groups)
            object.__setattr__(self, "groups", groups)
        else:
            groups = (tuple(int(s) for s in self.template),)
            object.__setattr__(self, "template", groups[0])
        for g in groups:
            if not g or min(g) < 1:
                raise ValueError(f"concat group {list(g)} needs sizes, each at least 1")

    def resolve(self, n_vectors: int) -> tuple:
        """Member sizes of each concatenated vector made from n_vectors inputs.

        A template repeats as often as the inputs need.
        """
        groups = self.groups
        if groups is None:
            groups = (self.template,) * (n_vectors // len(self.template))
        if sum(len(g) for g in groups) != n_vectors:
            raise ValueError(f"concat groups cover {sum(len(g) for g in groups)} vectors, "
                             f"the stage has {n_vectors}")
        return groups

    def pack(self, vectors) -> list[np.ndarray]:
        out, idx = [], 0
        for g in self.resolve(len(vectors)):
            out.append(vec_pack(vectors[idx : idx + len(g)], g))
            idx += len(g)
        return out

    def unpack(self, cts) -> list[SlotCiphertext]:
        # Each ciphertext holds one group, so a template repeats once per ciphertext.
        groups = self.groups if self.groups is not None else (self.template,) * len(cts)
        if len(groups) != len(cts):
            raise ValueError(f"concat stage expects {len(groups)} ciphertexts, got {len(cts)}")
        return [v for ct, g in zip(cts, groups) for v in vec_unpack(ct, g)]

    def to_json(self, plan_files) -> dict:
        if self.groups is not None:
            return {"kind": "concat", "groups": [list(g) for g in self.groups]}
        return {"kind": "concat", "sizes": list(self.template)}


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


@dataclass(frozen=True)
class ImgPairStage:
    """Pipeline stage that pairs consecutive vectors as real/imaginary parts."""

    n1: int
    n2: int
    plans = ()  # a class attribute, not a field: pairing fits no plans

    def pack(self, vectors) -> list[np.ndarray]:
        out = []
        for a, b in _chunk(vectors, 2):
            if len(a) != self.n1 or len(b) != self.n2:
                raise ValueError(
                    f"imgpair stage expects lengths ({self.n1}, {self.n2}), "
                    f"got ({len(a)}, {len(b)})"
                )
            out.append(img_pack(a, b))
        return out

    def unpack(self, cts) -> list[SlotCiphertext]:
        return [v for ct in cts for v in img_unpack(ct, self.n1, self.n2)]

    def to_json(self, plan_files) -> dict:
        return {"kind": "imgpair", "n1": self.n1, "n2": self.n2}


# ---------------------------------------------------------------------------
# Value stacking: checks shared by BitStack and CrtStack
# ---------------------------------------------------------------------------


def _checked_plans(plans, specs) -> tuple:
    """The plans as a tuple, each fitting the (modulus, bound) spec of its layer."""
    plans = tuple(plans or ())
    if plans and len(plans) != len(specs):
        raise ValueError(f"need exactly {len(specs)} plans, one per layer spec, got {len(plans)}")
    for i, (plan, (p, B)) in enumerate(zip(plans, specs)):
        if plan.p != p or plan.B != B:
            raise ValueError(
                f"plan {i} fits ModP(x,{plan.p}) on [0,{plan.B}], "
                f"layer needs ModP(x,{p}) on [0,{B}]"
            )
    return plans


def _layers(values, bounds) -> list[np.ndarray]:
    """The layers as integer arrays of one shape, layer i checked against [0, bounds[i])."""
    if len(values) != len(bounds):
        raise ValueError(f"expected {len(bounds)} layers, got {len(values)}")
    arrays = [np.asarray(v, dtype=np.int64) for v in values]
    if len({arr.shape for arr in arrays}) != 1:
        raise ValueError("stacked vectors must share the same length")
    for i, (arr, r) in enumerate(zip(arrays, bounds)):
        bad = (arr < 0) | (arr >= r)
        if np.any(bad):
            raise ValueError(f"layer {i} element {int(np.argmax(bad))} out of range [0, {r})")
    return arrays


# ---------------------------------------------------------------------------
# BitStack: radix stacking along the value dimension
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BitStackLayout:
    """Per-layer radices (2^l_i for binary widths) and the boundary mod plans.

    plans[i] recovers layer i: modulus radices[i] over the residual interval
    [0, prod(radices[i:]) - 1].  The final layer needs no plan.  As a
    pipeline stage it stacks each run of len(radices) vectors into one.
    """

    radices: tuple
    plans: tuple = ()

    def __post_init__(self):
        radices = tuple(int(r) for r in self.radices)
        if not radices or any(r < 2 for r in radices):
            raise ValueError("radices must all be at least 2")
        if math.prod(radices) > PACKED_VALUE_LIMIT:
            raise CapacityError("stacked range exceeds the exact-double guard 2^24")
        plans = _checked_plans(self.plans, bitstack_plan_specs(radices))
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

    def pack(self, vectors) -> list[np.ndarray]:
        return [bitstack_pack(chunk, self) for chunk in _chunk(vectors, len(self.radices))]

    def unpack(self, cts) -> list[SlotCiphertext]:
        return [v for ct in cts for v in bitstack_unpack(ct, self)]

    def to_json(self, plan_files) -> dict:
        widths = self.bit_widths
        if widths is not None:
            return {"kind": "bitstack", "plan_files": plan_files, "bit_widths": list(widths)}
        return {"kind": "bitstack", "plan_files": plan_files, "radices": list(self.radices)}


def bitstack_plan_specs(radices) -> list[tuple[int, int]]:
    """(modulus, interval bound) per layer boundary: layer i sees the residual range."""
    radices = tuple(int(r) for r in radices)
    return [(radices[i], math.prod(radices[i:]) - 1) for i in range(len(radices) - 1)]


def bitstack_pack(values, layout: BitStackLayout) -> np.ndarray:
    """Element-wise radix stacking: x = a_1 + a_2*r_1 + a_3*r_1*r_2 + ..."""
    arrays = _layers(values, layout.radices)
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
    plain inner product followed by one reduction mod P.  As a pipeline
    stage it stacks each run of len(moduli) vectors into one.
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
        plans = _checked_plans(self.plans, [(p, P - 1) for p in moduli])
        object.__setattr__(self, "moduli", moduli)
        object.__setattr__(self, "plans", plans)
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "recombinants", tuple(recombinants))

    def pack(self, vectors) -> list[np.ndarray]:
        return [crt_pack(chunk, self) for chunk in _chunk(vectors, len(self.moduli))]

    def unpack(self, cts) -> list[SlotCiphertext]:
        return [v for ct in cts for v in crt_unpack(ct, self)]

    def to_json(self, plan_files) -> dict:
        return {"kind": "crt", "moduli": list(self.moduli), "plan_files": plan_files}


def crt_pack(values, basis: CrtBasis) -> np.ndarray:
    """Element-wise residue recombination: x = (sum a_i * b_i) mod P, x in [0, P)."""
    arrays = _layers(values, basis.moduli)
    acc = np.zeros_like(arrays[0])
    for arr, b in zip(arrays, basis.recombinants):
        acc = (acc + arr * b) % basis.P
    return acc


def crt_unpack(ct: SlotCiphertext, basis: CrtBasis) -> list[SlotCiphertext]:
    """Recover every residue layer from the same input ciphertext.

    Layers are independent mod evaluations, so they consume identical depth
    and their errors do not accumulate.
    """
    if not basis.plans:
        raise ValueError("basis carries no plans; unpacking needs one per modulus")
    return [eval_plan(ct, plan) for plan in basis.plans]


# ---------------------------------------------------------------------------
# Pipelines: composing schemes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PackLayout:
    """Ordered packing stages; unpacking replays them in reverse.

    A stage is a ConcatStage, BitStackLayout, CrtBasis or ImgPairStage.
    Each has pack(vectors) and unpack(cts), which map a list to a list,
    its fitted `plans`, and to_json(plan_files), its layout JSON entry.
    """

    stages: tuple

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(self.stages))


def pipeline_pack(data, layout: PackLayout) -> list[np.ndarray]:
    """Run the packing stages over a list of plaintext vectors."""
    current = [np.asarray(v) for v in data]
    for stage in layout.stages:
        current = stage.pack(current)
    return current


def pipeline_unpack(cts, layout: PackLayout) -> list[SlotCiphertext]:
    """Invert the packing stages over ciphertexts, in reverse stage order."""
    current = list(cts)
    for stage in reversed(layout.stages):
        current = stage.unpack(current)
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
        files = []
        for li, plan in enumerate(stage.plans):
            plan_path = plan_dir / f"{path.stem}-stage{si}-layer{li}.plan.json"
            save_plan(plan, plan_path)
            files.append(os.path.relpath(plan_path, path.parent))
        stages.append(stage.to_json(files))
    path.write_text(json.dumps({"stages": stages}, indent=2) + "\n")


def load_layout(path) -> PackLayout:
    """Read a layout JSON; plan files resolve relative to the layout file."""
    path = Path(path)
    doc = json.loads(path.read_text())
    stages = []
    for entry in doc["stages"]:
        kind = entry["kind"]
        plans = tuple(load_plan(path.parent / f) for f in entry.get("plan_files") or ())
        if kind == "concat" and "groups" in entry:
            stages.append(ConcatStage(groups=entry["groups"]))
        elif kind == "concat":
            stages.append(ConcatStage(template=entry["sizes"]))
        elif kind == "crt":
            stages.append(CrtBasis(entry["moduli"], plans))
        elif kind == "bitstack" and "bit_widths" in entry:
            stages.append(BitStackLayout.from_bit_widths(entry["bit_widths"], plans))
        elif kind == "bitstack":
            stages.append(BitStackLayout(entry["radices"], plans))
        elif kind == "imgpair":
            stages.append(ImgPairStage(int(entry["n1"]), int(entry["n2"])))
        else:
            raise ValueError(f"unknown stage kind {kind!r}")
    return PackLayout(tuple(stages))
