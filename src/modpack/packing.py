"""Data packing schemes and their homomorphic unpacking on the simulator.

Four schemes cover the two redundancy dimensions: VecConcat and ImgPair
use spare slots (length dimension), BitStack and CrtStack stack small
integers inside one slot (value dimension).  Value-stacked layers are
recovered under encryption with fitted mod approximations; slot-packed
layers with rotations, masks, and conjugation.  Schemes compose into
layouts, plain tuples of stages, packed in stage order and unpacked
strictly in reverse.  A concat stage's groups repeat as the input needs.

A stage's unpack returns a generator over its outputs, made one input
ciphertext's worth at a time, or one output at a time for a concat stage.
A check on the call's arguments (a concat stage's cycle) runs when unpack
is called; a per-ciphertext check (capacity, missing plans) runs as its
ciphertext is reached.  unpack_stream runs every stage but the last in
full and streams the last, so a caller that keeps a few slots of each
output, as the CLI does, never holds every full-slot output at once;
pipeline_unpack collects the stream into a list, for callers that index it.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .fitting import _whole, load_plan, save_plan
from .hesim import SlotCiphertext, conjugate, rotate_batch
from .psev import eval_plan, eval_plans, mul_by_int_additively

# Packed integers live in double-precision slots; keep them exactly
# representable with headroom.
PACKED_VALUE_LIMIT = 1 << 24


class CapacityError(ValueError):
    """The packed data does not fit the available slots."""


def _array(values, name: str) -> tuple:
    """The values as a tuple; a string or a mapping raises, not read as characters or keys."""
    if isinstance(values, (str, dict)):
        raise TypeError(f"{name} must be an array, got {values!r}")
    return tuple(values)


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


def _vec_outputs(ct: SlotCiphertext, sizes) -> Iterator[SlotCiphertext]:
    """The messages of lengths `sizes` in `ct`, each made when drawn; each costs one level.

    Output i is the input rotated to its message's start and masked to its
    length by its own rotate_batch call, so a caller that drops each output
    before drawing the next holds one at a time.  The capacity check runs
    at the first draw, before any op.
    """
    if sum(sizes) > ct.params.n:
        raise CapacityError(f"sizes occupy {sum(sizes)} slots, only {ct.params.n} available")
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    for start, size in zip(starts, sizes):
        yield rotate_batch(ct, [start], [size])[0]


def vec_unpack(ct: SlotCiphertext, sizes) -> list[SlotCiphertext]:
    """Split a ciphertext concatenating messages of lengths `sizes`: _vec_outputs as a list."""
    return list(_vec_outputs(ct, sizes))


@dataclass(frozen=True)
class ConcatStage:
    """Pipeline stage that groups consecutive vectors into concatenated ones.

    `groups` lists each output's member sizes.  The groups repeat, in order,
    as often as the input needs: one group is a shape applied to every run
    of vectors, and groups the input covers once spell out each output.
    """

    groups: tuple
    plans = ()  # a class attribute, not a field: concatenation fits no plans

    def __post_init__(self):
        groups = tuple(tuple(_whole(s, "concat group size") for s in _array(g, "concat group"))
                       for g in _array(self.groups, "groups"))
        if not groups:
            raise ValueError("concat stage needs at least one group")
        for g in groups:
            if not g or min(g) < 1:
                raise ValueError(f"concat group {list(g)} needs sizes, each at least 1")
        object.__setattr__(self, "groups", groups)

    def _repeated(self, count: int, packed: bool) -> tuple:
        """The groups repeated over `count` ciphertexts (packed) or vectors."""
        cycle = len(self.groups) if packed else sum(len(g) for g in self.groups)
        if count % cycle:
            unit = "ciphertexts" if packed else "vectors"
            raise ValueError(f"concat groups repeat every {cycle} {unit}, got {count}")
        return self.groups * (count // cycle)

    def pack(self, vectors) -> list[np.ndarray]:
        out, idx = [], 0
        for g in self._repeated(len(vectors), packed=False):
            out.append(vec_pack(vectors[idx : idx + len(g)], g))
            idx += len(g)
        return out

    def unpack(self, cts) -> Iterator[SlotCiphertext]:
        """Each ciphertext's messages in order, each masked rotation made as it is drawn."""
        groups = self._repeated(len(cts), packed=True)
        return (v for ct, g in zip(cts, groups) for v in _vec_outputs(ct, g))

    def unpacked_lengths(self, lengths) -> list[int]:
        return [s for g in self._repeated(len(lengths), packed=True) for s in g]


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
    """Recover the real-part and imaginary-part messages; one level, one conjugation.

    The masks leave each half no imaginary part but its noise, so with the
    noise off a half keeps only its real part, as float64 slots: the stages
    after it run on real slots.
    """
    conj = conjugate(ct)
    first = _real_part((ct + conj) * np.full(n1, 0.5))
    return first, _real_part((ct - conj) * np.full(n2, -0.5j))


def _real_part(h: SlotCiphertext) -> SlotCiphertext:
    """h as float64 slots if no slot has a nonzero imaginary part, else h."""
    if not h.slots.imag.any():
        return SlotCiphertext(h.slots.real.copy(), h.level, h.params)
    return h


@dataclass(frozen=True)
class ImgPairStage:
    """Pipeline stage that pairs consecutive vectors as real/imaginary parts."""

    n1: int
    n2: int
    plans = ()  # a class attribute, not a field: pairing fits no plans

    def __post_init__(self):
        for name in ("n1", "n2"):
            n = _whole(getattr(self, name), f"imgpair length {name}")
            if n < 0:
                raise ValueError(f"imgpair length {name} must be non-negative, got {n}")
            object.__setattr__(self, name, n)

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

    def unpack(self, cts) -> Iterator[SlotCiphertext]:
        return (v for ct in cts for v in img_unpack(ct, self.n1, self.n2))

    def unpacked_lengths(self, lengths) -> list[int]:
        return [n for _ in lengths for n in (self.n1, self.n2)]


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


def _layers(values, bounds, noun: str = "layer") -> list[np.ndarray]:
    """The values as integer arrays of one shape, `noun` i holding integers in [0, bounds[i])."""
    if len(values) != len(bounds):
        raise ValueError(f"expected {len(bounds)} {noun}s, got {len(values)}")
    arrays = [np.asarray(v) for v in values]
    if len({arr.shape for arr in arrays}) != 1:
        raise ValueError("stacked vectors must share the same length")
    for i, (arr, r) in enumerate(zip(arrays, bounds)):
        bad = (arr < 0) | (arr >= r)
        if arr.dtype.kind not in "biu":  # the cast would lose a fraction, NaN or imaginary part
            bad |= arr != np.rint(arr.real)
            arrays[i] = arr.real
        if np.any(bad):
            j = int(np.argmax(bad))
            raise ValueError(f"{noun} {i} element {j} out of range: {arr.flat[j]} is not an "
                             f"integer in [0, {r})")
    return [arr.astype(np.int64, copy=False) for arr in arrays]


# ---------------------------------------------------------------------------
# BitStack: radix stacking along the value dimension
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BitStackLayout:
    """Per-layer radices (2^l for a layer of l bits) and the boundary mod plans.

    plans[i] recovers layer i: modulus radices[i] over the residual interval
    [0, prod(radices[i:]) - 1].  The final layer needs no plan.  As a
    pipeline stage it stacks each run of len(radices) vectors into one.
    """

    radices: tuple
    plans: tuple = ()

    def __post_init__(self):
        radices = tuple(_whole(r, "radix") for r in _array(self.radices, "radices"))
        if not radices or any(r < 2 for r in radices):
            raise ValueError("radices must all be at least 2")
        if math.prod(radices) > PACKED_VALUE_LIMIT:
            raise CapacityError("stacked range exceeds the exact-double guard 2^24")
        plans = _checked_plans(self.plans, bitstack_plan_specs(radices))
        object.__setattr__(self, "radices", radices)
        object.__setattr__(self, "plans", plans)

    def pack(self, vectors) -> list[np.ndarray]:
        return [bitstack_pack(chunk, self) for chunk in _chunk(vectors, len(self.radices))]

    def unpack(self, cts) -> Iterator[SlotCiphertext]:
        return (v for ct in cts for v in bitstack_unpack(ct, self))

    def unpacked_lengths(self, lengths) -> list[int]:
        return [n for n in lengths for _ in self.radices]


def bitstack_plan_specs(radices) -> list[tuple[int, int]]:
    """(modulus, interval bound) per layer boundary: layer i sees the residual range."""
    radices = tuple(_whole(r, "radix") for r in radices)
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
    if len(layout.plans) < d - 1:
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
        moduli = tuple(_whole(p, "modulus") for p in _array(self.moduli, "moduli"))
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

    def unpack(self, cts) -> Iterator[SlotCiphertext]:
        return (v for ct in cts for v in crt_unpack(ct, self))

    def unpacked_lengths(self, lengths) -> list[int]:
        return [n for n in lengths for _ in self.moduli]


def crt_pack(values, basis: CrtBasis) -> np.ndarray:
    """Element-wise residue recombination: x = (sum a_i * b_i) mod P, x in [0, P)."""
    # Each term is below P^2 <= 2^48 and there are at most 24 moduli, so the
    # int64 sum cannot overflow, and one reduction gives the same integers.
    arrays = _layers(values, basis.moduli)
    return sum(arr * b for arr, b in zip(arrays, basis.recombinants)) % basis.P


def crt_unpack(ct: SlotCiphertext, basis: CrtBasis) -> list[SlotCiphertext]:
    """Recover every residue layer from the same input ciphertext, in one eval_plans.

    The layers share one domain map and one power basis per schedule, and
    each runs its own plan's program over them, so they consume identical
    depth and their approximation errors do not accumulate.  With the noise
    on, the shared ops' noise is common to every layer.
    """
    if not basis.plans:
        raise ValueError("basis carries no plans; unpacking needs one per modulus")
    return eval_plans(ct, basis.plans)


# ---------------------------------------------------------------------------
# Pipelines: composing schemes
# ---------------------------------------------------------------------------


def pipeline_pack(data, layout: tuple) -> list[np.ndarray]:
    """Run a layout's packing stages over a list of plaintext vectors.

    A layout is a tuple of stages, each a ConcatStage, BitStackLayout,
    CrtBasis or ImgPairStage.  Each has pack(vectors), which maps a list to
    a list, unpack(cts), which maps a list to a generator of its outputs in
    order, unpacked_lengths(lengths), the lengths unpack yields from vectors
    of those lengths, and its `plans`.  Its layout-file entry is named in
    _KINDS.
    """
    current = [np.asarray(v) for v in data]
    for stage in layout:
        current = stage.pack(current)
    return current


def unpack_stream(cts, layout: tuple) -> Iterator[SlotCiphertext]:
    """Invert the packing stages over ciphertexts, in reverse stage order, yielding the outputs.

    Every stage but the last (the layout's first) runs in full, so each
    stage's input list is complete before it starts and every op, level and
    noise draw comes in pipeline_unpack's order.  The last stage's outputs
    are made as the iterator is drawn, one input ciphertext's worth at a
    time (one output at a time for a concat stage), so a caller that drops
    each output before drawing the next never holds them all.
    """
    current = list(cts)
    for stage in reversed(layout[1:]):
        current = list(stage.unpack(current))
    return layout[0].unpack(current) if layout else iter(current)


def pipeline_unpack(cts, layout: tuple) -> list[SlotCiphertext]:
    """unpack_stream's outputs as one list, for callers that index it or take its length."""
    return list(unpack_stream(cts, layout))


# ---------------------------------------------------------------------------
# Layout (de)serialization
# ---------------------------------------------------------------------------


# Each layout-file kind: its stage type, then the fields its entry holds in
# order.  A stage with plans also holds "plan_files", written after "kind".
_KINDS = {
    "concat": (ConcatStage, "groups"),
    "imgpair": (ImgPairStage, "n1", "n2"),
    "crt": (CrtBasis, "moduli"),
    "bitstack": (BitStackLayout, "radices"),
}


def save_layout(layout: tuple, path):
    """Write a layout as JSON, each stage plan as <stem>-stage<i>-layer<j>.plan.json beside it."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    stages = []
    for si, stage in enumerate(layout):
        kind = next(k for k, (stage_type, *_) in _KINDS.items() if type(stage) is stage_type)
        files = [f"{path.stem}-stage{si}-layer{li}.plan.json" for li in range(len(stage.plans))]
        for name, plan in zip(files, stage.plans):
            save_plan(plan, path.parent / name)
        entry = {"kind": kind, "plan_files": files} if files else {"kind": kind}
        entry.update((name, getattr(stage, name)) for name in _KINDS[kind][1:])
        stages.append(entry)
    path.write_text(json.dumps({"stages": stages}, indent=2) + "\n")


def load_layout(path) -> tuple:
    """Read a layout JSON; crt and bitstack plan files resolve relative to the layout file."""
    path = Path(path)
    doc = json.loads(path.read_text())
    entries = doc.get("stages") if isinstance(doc, dict) else None
    if not isinstance(entries, list):
        raise ValueError(f"layout {path} must be a JSON object with a \"stages\" list")
    return tuple(_load_stage(path.parent, i, entry) for i, entry in enumerate(entries))


def _load_stage(root: Path, i: int, entry):
    """The stage of layout entry i, its plan files resolved against root."""
    if not isinstance(entry, dict):
        raise ValueError(f"layout stage {i} must be a JSON object, got {type(entry).__name__}")
    try:
        kind = entry["kind"]
        if kind not in _KINDS:
            raise ValueError(f"unknown stage kind {kind!r} in layout stage {i}")
        stage_type, *names = _KINDS[kind]
        args = [entry[name] for name in names]
        if "plans" in stage_type.__dataclass_fields__:
            files = _array(entry.get("plan_files") or (), "plan_files")
            args.append(tuple(load_plan(root / f) for f in files))
        return stage_type(*args)
    except KeyError as exc:
        raise ValueError(f"layout stage {i} has no {exc} field") from exc
    except TypeError as exc:
        raise ValueError(f"layout stage {i} ({kind}) has a field of the wrong type: {exc}") from exc
