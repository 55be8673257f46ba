"""Rounding under encryption and additive-share-to-ciphertext conversion.

Floor comes straight from the mod identity floor(x/p) = (x - x mod p)/p.
Ceil and Round add a comparison against a threshold, realized as a fitted
indicator step over the p integer points a mod output can take.  Share
conversion reduces an encrypted share sum modulo p, either directly or
through a reconstruction tree with smaller per-node input ranges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fitting import ModPlan, StepSpec, fit_modp, fit_step
from .hesim import SlotCiphertext
from .psev import eval_plan

# Default step-fit degree multiplier; the indicator only needs exactness at
# the p integer abscissae, the margin keeps the solve comfortably ranked.
COMP_DEGREE_FACTOR = 2
# Share-conversion plans use degree 2*p*n_parties (twice the input range,
# counting the range as n_parties*p).
SHARE_DEGREE_FACTOR = 2


def floor_he(ct: SlotCiphertext, p: int, plan: ModPlan) -> SlotCiphertext:
    """Slot-wise floor(x/p) = (x - ModP(x, p)) / p.

    The 1/p rescale is fused into the mod evaluation leaves, so the total
    cost is the evaluation depth plus the one plain multiply on x.
    """
    if plan.p != p:
        raise ValueError(f"plan fits modulus {plan.p}, requested {p}")
    return ct * (1.0 / p) - eval_plan(ct, plan, extra_scale=1.0 / p)


def build_comp_plan(threshold: float, p: int, D: int | None = None,
                    delta: float | None = None) -> ModPlan:
    """Fit the indicator [r > threshold] at the integer points r = 0..p-1.

    The threshold must not hit an integer, so the tie case never arises.
    """
    if abs(threshold - round(threshold)) < 1e-9:
        raise ValueError(f"threshold {threshold} sits on an integer; ties are undefined")
    if D is None:
        D = COMP_DEGREE_FACTOR * p
    samples = tuple((r, 1.0 if r > threshold else 0.0) for r in range(p))
    return fit_step(StepSpec(samples=samples, B=p - 1, D=D), delta)


def comp_step(ct: SlotCiphertext, p: int, plan: ModPlan) -> SlotCiphertext:
    """~1 where the (near-integer) slot exceeds the plan's threshold, ~0 otherwise.

    The threshold is part of the plan's samples (see build_comp_plan).  The
    step fit tolerates inputs a small multiple of the producing mod plan's
    residual away from exact integers.
    """
    if plan.B != p - 1:
        raise ValueError(f"step plan covers [0, {plan.B}], inputs live in [0, {p - 1}]")
    return eval_plan(ct, plan)


def _floor_plus_step(ct: SlotCiphertext, p: int, mod_plan: ModPlan,
                     comp_plan: ModPlan) -> SlotCiphertext:
    """floor(x/p) + [x mod p > threshold of comp_plan], sharing one mod evaluation."""
    if mod_plan.p != p:
        raise ValueError(f"plan fits modulus {mod_plan.p}, requested {p}")
    remainder = eval_plan(ct, mod_plan)
    floor_part = ct * (1.0 / p) - remainder * (1.0 / p)
    return floor_part + comp_step(remainder, p, comp_plan)


def ceil_he(ct: SlotCiphertext, p: int, mod_plan: ModPlan, comp_plan: ModPlan) -> SlotCiphertext:
    """Slot-wise ceil(x/p) = floor(x/p) + [x mod p > 0.5].

    comp_plan is build_comp_plan(0.5, p).
    """
    return _floor_plus_step(ct, p, mod_plan, comp_plan)


def round_he(ct: SlotCiphertext, p: int, mod_plan: ModPlan, comp_plan: ModPlan) -> SlotCiphertext:
    """Slot-wise round-half-up of x/p: floor plus [x mod p > p/2 - 0.25].

    comp_plan is build_comp_plan(p / 2 - 0.25, p).  The quarter offset keeps
    the comparison threshold off the integers; on integer remainders r = p/2
    the indicator fires, giving half-up ties.
    """
    return _floor_plus_step(ct, p, mod_plan, comp_plan)


# ---------------------------------------------------------------------------
# Additive secret shares -> ciphertext
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShareSet:
    """Additive shares over Z_p: secret = sum(shares) mod p, element-wise."""

    p: int
    shares: tuple

    def __post_init__(self):
        if self.p < 2:
            raise ValueError("share modulus must be at least 2")
        shares = tuple(np.asarray(s, dtype=np.int64) for s in self.shares)
        if not shares:
            raise ValueError("need at least one share")
        for i, s in enumerate(shares):
            if np.any(s < 0) or np.any(s >= self.p):
                raise ValueError(f"share {i} has entries outside [0, {self.p})")
        object.__setattr__(self, "shares", shares)

    @property
    def n_parties(self) -> int:
        return len(self.shares)

    def secret(self) -> np.ndarray:
        return np.sum(np.stack(self.shares), axis=0) % self.p


def share_plan(p: int, n_parties: int, D: int | None = None,
               delta: float | None = None) -> ModPlan:
    """Mod plan covering a sum of n_parties shares: interval [0, n_parties*(p-1)]."""
    if D is None:
        D = SHARE_DEGREE_FACTOR * p * n_parties
    return fit_modp(p, n_parties * (p - 1), D, delta)


def shares_to_ct(share_cts, plan: ModPlan) -> SlotCiphertext:
    """Reconstruct the secret under encryption: ModP(sum of share ciphertexts, p).

    This is the tree of a single node over all parties.
    """
    share_cts = list(share_cts)
    return shares_to_ct_tree(share_cts, ReconstructNode(tuple(range(len(share_cts))), plan))


@dataclass(frozen=True)
class ReconstructNode:
    """Internal node of a reconstruction tree.

    children hold party indices (leaves) or nested nodes; the node sums its
    children and reduces modulo p with its own plan, whose interval only
    needs to cover the node's partial-sum range.
    """

    children: tuple
    plan: ModPlan

    def parties(self) -> list[int]:
        out = []
        for child in self.children:
            if isinstance(child, ReconstructNode):
                out.extend(child.parties())
            else:
                out.append(int(child))
        return out


def shares_to_ct_tree(share_cts, node: ReconstructNode) -> SlotCiphertext:
    """Tree-based reconstruction: smaller per-node ranges, more mod calls.

    Every child of a node, a share or a reduced subtree, lies in [0, p-1],
    so each node's plan interval must hold len(children) * (p-1).
    """
    share_cts = list(share_cts)
    if not share_cts:
        raise ValueError("need at least one share ciphertext")
    if sorted(node.parties()) != list(range(len(share_cts))):
        raise ValueError("tree leaves must partition the share indices exactly once")
    return _reduce(node, share_cts)


def _reduce(node: ReconstructNode, share_cts) -> SlotCiphertext:
    # A module-level recursion, not a closure, so no reference cycle keeps
    # the share ciphertexts alive after the call.
    if not node.children:
        raise ValueError(f"reconstruction node with plan ModP(x,{node.plan.p}) on "
                         f"[0, {node.plan.B}] has no children")
    needed = len(node.children) * (node.plan.p - 1)
    if node.plan.B < needed:
        raise ValueError(
            f"plan interval [0, {node.plan.B}] cannot hold a {len(node.children)}-party sum "
            f"(needs {needed})"
        )
    total = None
    for child in node.children:
        val = (_reduce(child, share_cts) if isinstance(child, ReconstructNode)
               else share_cts[int(child)])
        total = val if total is None else total + val
    return eval_plan(total, node.plan)
