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

from .fitting import ModPlan, StepSpec, _whole, fit_modp, fit_step
from .hesim import SlotCiphertext
from .packing import _array, _layers
from .psev import eval_plan

# Step-fit degree multiplier; the indicator only needs exactness at the p
# integer abscissae, the margin keeps the solve comfortably ranked.
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


def build_comp_plan(threshold: float, p: int) -> ModPlan:
    """Fit the indicator [r > threshold] at the integer points r = 0..p-1.

    The degree is COMP_DEGREE_FACTOR * p and delta the suggested one.  The
    threshold must not hit an integer, so the tie case never arises.  The
    step tolerates inputs a few mod-plan residuals away from the integers.
    """
    if abs(threshold - round(threshold)) < 1e-9:
        raise ValueError(f"threshold {threshold} sits on an integer; ties are undefined")
    samples = tuple((r, 1.0 if r > threshold else 0.0) for r in range(p))
    return fit_step(StepSpec(samples=samples, B=p - 1, D=COMP_DEGREE_FACTOR * p))


def _floor_plus_step(ct: SlotCiphertext, p: int, mod_plan: ModPlan,
                     comp_plan: ModPlan) -> SlotCiphertext:
    """floor(x/p) + [x mod p > threshold of comp_plan], sharing one mod evaluation."""
    if mod_plan.p != p:
        raise ValueError(f"plan fits modulus {mod_plan.p}, requested {p}")
    if comp_plan.B != p - 1:
        raise ValueError(f"step plan covers [0, {comp_plan.B}], inputs live in [0, {p - 1}]")
    remainder = eval_plan(ct, mod_plan)
    floor_part = ct * (1.0 / p) - remainder * (1.0 / p)
    return floor_part + eval_plan(remainder, comp_plan)


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
        object.__setattr__(self, "p", _whole(self.p, "share modulus"))
        if self.p < 2:
            raise ValueError("share modulus must be at least 2")
        shares = tuple(self.shares)
        if not shares:
            raise ValueError("need at least one share")
        object.__setattr__(self, "shares", tuple(_layers(shares, [self.p] * len(shares), "share")))

    def secret(self) -> np.ndarray:
        return np.sum(np.stack(self.shares), axis=0) % self.p


def share_plan(p: int, n_parties: int, D: int | None = None) -> ModPlan:
    """Mod plan covering a sum of n_parties shares: interval [0, n_parties*(p-1)]."""
    if D is None:
        D = SHARE_DEGREE_FACTOR * p * n_parties
    return fit_modp(p, n_parties * (p - 1), D)


def shares_to_ct(share_cts, plan: ModPlan) -> SlotCiphertext:
    """Reconstruct the secret under encryption: ModP(sum of share ciphertexts, p).

    This is the tree of a single node over all parties.
    """
    share_cts = list(share_cts)
    if not share_cts:  # checked before the node, which would report its missing children
        raise ValueError("need at least one share ciphertext")
    return shares_to_ct_tree(share_cts, ReconstructNode(tuple(range(len(share_cts))), plan))


@dataclass(frozen=True)
class ReconstructNode:
    """Internal node of a reconstruction tree, checked when it is made.

    children hold party indices (leaves) or nested nodes; the node sums its
    children and reduces modulo p with its own plan.  Each child, a share or
    a reduced subtree, lies in [0, p-1], so the plan's interval must hold
    len(children) * (p-1); every node of a tree reduces modulo the same p.
    """

    children: tuple
    plan: ModPlan

    def __post_init__(self):
        children = tuple(c if isinstance(c, ReconstructNode) else _whole(c, "party index")
                         for c in _array(self.children, "children"))
        object.__setattr__(self, "children", children)
        if self.plan.p is None:
            raise ValueError("a reconstruction node needs a mod plan, got a step plan (p=None)")
        p, B, needed = self.plan.p, self.plan.B, len(children) * (self.plan.p - 1)
        if not children:
            raise ValueError(f"reconstruction node with plan ModP(x,{p}) on [0, {B}] "
                             "has no children")
        if B < needed:
            raise ValueError(f"plan interval [0, {B}] cannot hold a {len(children)}-party sum "
                             f"(needs {needed})")
        for child in children:
            if isinstance(child, ReconstructNode) and child.plan.p != p:
                raise ValueError(f"a subtree reducing modulo {child.plan.p} sits under a node "
                                 f"reducing modulo {p}; a tree has one modulus")

    def parties(self) -> list[int]:
        return [i for child in self.children
                for i in (child.parties() if isinstance(child, ReconstructNode) else (child,))]


def shares_to_ct_tree(share_cts, node: ReconstructNode) -> SlotCiphertext:
    """Tree-based reconstruction: smaller per-node ranges, more mod calls."""
    share_cts = list(share_cts)
    if not share_cts:
        raise ValueError("need at least one share ciphertext")
    if sorted(node.parties()) != list(range(len(share_cts))):
        raise ValueError("tree leaves must partition the share indices exactly once")
    return _reduce(node, share_cts)


def _reduce(node: ReconstructNode, share_cts) -> SlotCiphertext:
    # A module-level recursion, not a closure, so no reference cycle keeps
    # the share ciphertexts alive after the call.
    total = None
    for child in node.children:
        val = _reduce(child, share_cts) if isinstance(child, ReconstructNode) else share_cts[child]
        total = val if total is None else total + val
    return eval_plan(total, node.plan)
