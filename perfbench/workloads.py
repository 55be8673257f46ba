"""The benchmark's two workloads, built from the run seed alone.

Each workload object does its set-up in the constructor and exposes

- ``warmup()`` and ``prepare(i)``: the inputs of the warm-up op and of op i,
  made outside the timed region and deterministic in (seed, i);
- ``run(inp)``: the op itself, the only timed call;
- ``check(inp, out)``: (failure messages, measurements) against the
  plaintext truth;
- ``cost(inp, out)``: the op's exact HE cost as a dict with ``ct_mults``,
  ``plain_mults``, ``rotations`` (rotations plus conjugations) and ``levels``;
- ``cycle``: the number of leading ops whose costs make the count metrics.
  The multiset of op kinds in those ops does not depend on the seed, so the
  count metrics are identical on every run and every seed.

Calls into modpack go through module attributes (``cli.TABLES[...]``,
``roundshare.floor_he``), so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass, field

import numpy as np
from modpack import cli, fitting, hesim, roundshare
from modpack.hesim import OpStats, SimParams

MAX_LEVEL = 25


@dataclass
class OpInput:
    """One op: what to call, the truth to check it against, and its op counters."""

    kind: str
    call: object
    truth: object = None
    stats: list = field(default_factory=list)


def _stats_cost(stats_list, levels: int) -> dict:
    return {
        "ct_mults": sum(s.ct_mults for s in stats_list),
        "plain_mults": sum(s.plain_mults for s in stats_list),
        "rotations": sum(s.rotations + s.conjugations for s in stats_list),
        "levels": levels,
    }


def _seed32(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31))


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


class Tables:
    """One op is one pass over all eight ``cli.TABLES`` at n=2^15, noise off.

    Each pass runs with its own data seed.  The table runners each make a
    fresh ``SimParams`` with its own ``OpStats``, so the op's counts gather
    every instance the pass creates.
    """

    cycle = 1
    SLOTS = 2**15

    def __init__(self, seed: int):
        self.seed = seed

    def _input(self, data_seed: int) -> OpInput:
        sim = SimParams(n=self.SLOTS, max_level=MAX_LEVEL, noise_stddev=0.0, seed=data_seed)
        cfg = cli.RunConfig(sim=sim, seed=data_seed)
        return OpInput(f"pass seed={data_seed}",
                       lambda: {name: cli.TABLES[name](cfg) for name in list(cli.TABLES)})

    def warmup(self) -> OpInput:
        return self._input(_seed32(np.random.default_rng([self.seed, 0])))

    def prepare(self, i: int) -> OpInput:
        return self._input(_seed32(np.random.default_rng([self.seed, 1, i])))

    def run(self, inp: OpInput):
        fresh = cli._fresh_params

        def fresh_recorded(cfg):
            params = fresh(cfg)
            inp.stats.append(params.stats)
            return params

        cli._fresh_params = fresh_recorded
        try:
            # The table functions print informational lines; keep stdout for the result.
            with contextlib.redirect_stdout(io.StringIO()):
                return inp.call()
        finally:
            cli._fresh_params = fresh

    def check(self, inp: OpInput, out):
        failures = [f"table {name}: {v}" for name, (_, vs) in out.items() for v in vs]
        return failures, {"violations": len(failures)}

    def cost(self, inp: OpInput, out) -> dict:
        left = [row["remaining_level"] for rows, _ in out.values() for row in rows
                if "remaining_level" in row]
        return _stats_cost(inp.stats, MAX_LEVEL - min(left))


# ---------------------------------------------------------------------------
# round-small-noisy
# ---------------------------------------------------------------------------


class RoundSmallNoisy:
    """One op is one rounding or share-conversion call at n=2^10, noise on.

    The cycle holds floor/ceil/round for p=4..9 (B=29, D=45) and direct and
    tree share conversion over Z_16 for 3..8 parties: 30 ops, in a seeded
    order per cycle.  Plans are fitted in set-up.  SIGMA is small enough
    that every output rounds to the exact answer.  Tree conversion amplifies
    slot noise about 1e9-fold (its root plan is degree 128 on [0, 30]), so
    its worst error is about 1e-2 at this SIGMA; the other ops stay below
    1e-6.
    """

    SLOTS = 2**10
    SIGMA = 1e-11
    MODULI = tuple(range(4, 10))
    B, D = 29, 45
    SHARE_P = 16
    PARTIES = tuple(range(3, 9))
    TREE_D = 128
    SPECS = tuple([(k, p) for k in ("floor", "ceil", "round") for p in range(4, 10)]
                  + [(k, n) for k in ("shares", "tree") for n in range(3, 9)])
    cycle = len(SPECS)

    def __init__(self, seed: int):
        self.seed = seed
        self.mod = {p: fitting.fit_modp(p, self.B, self.D, 100.0) for p in self.MODULI}
        self.comp_ceil = {p: roundshare.build_comp_plan(0.5, p) for p in self.MODULI}
        self.comp_round = {p: roundshare.build_comp_plan(p / 2 - 0.25, p) for p in self.MODULI}
        self.share = {n: roundshare.share_plan(self.SHARE_P, n) for n in self.PARTIES}
        halves = {(n + 1) // 2 for n in self.PARTIES}
        self.child = {h: roundshare.share_plan(self.SHARE_P, h, D=self.TREE_D) for h in halves}
        self.root = fitting.fit_modp(self.SHARE_P, 2 * (self.SHARE_P - 1), self.TREE_D)
        self._order: dict[int, np.ndarray] = {}

    def _params(self, rng) -> SimParams:
        return SimParams(n=self.SLOTS, max_level=MAX_LEVEL, noise_stddev=self.SIGMA,
                         seed=_seed32(rng), stats=OpStats())

    def _input(self, kind: str, arg: int, rng: np.random.Generator) -> OpInput:
        params = self._params(rng)
        if kind in ("floor", "ceil", "round"):
            p = arg
            x = rng.integers(0, self.B + 1, self.SLOTS)
            ct = hesim.encrypt(x, params)
            if kind == "floor":
                call = lambda: roundshare.floor_he(ct, p, self.mod[p])  # noqa: E731
                truth = x // p
            elif kind == "ceil":
                call = lambda: roundshare.ceil_he(ct, p, self.mod[p], self.comp_ceil[p])  # noqa: E731
                truth = -(-x // p)
            else:
                call = lambda: roundshare.round_he(ct, p, self.mod[p], self.comp_round[p])  # noqa: E731
                truth = (2 * x + p) // (2 * p)
            return OpInput(f"{kind}_he p={p}", call, truth, [params.stats])
        n = arg
        shares = roundshare.ShareSet(
            self.SHARE_P, tuple(rng.integers(0, self.SHARE_P, self.SLOTS) for _ in range(n)))
        cts = [hesim.encrypt(s, params) for s in shares.shares]
        if kind == "shares":
            call = lambda: roundshare.shares_to_ct(cts, self.share[n])  # noqa: E731
        else:
            half = (n + 1) // 2
            node = roundshare.ReconstructNode(
                children=(roundshare.ReconstructNode(tuple(range(half)), self.child[half]),
                          roundshare.ReconstructNode(tuple(range(half, n)), self.child[half])),
                plan=self.root)
            call = lambda: roundshare.shares_to_ct_tree(cts, node)  # noqa: E731
        return OpInput(f"{kind} parties={n}", call, shares.secret(), [params.stats])

    def warmup(self) -> OpInput:
        return self._input("round", max(self.MODULI), np.random.default_rng([self.seed, 0]))

    def prepare(self, i: int) -> OpInput:
        rnd, pos = divmod(i, self.cycle)
        if rnd not in self._order:
            self._order = {rnd: np.random.default_rng([self.seed, 1, rnd]).permutation(self.cycle)}
        kind, arg = self.SPECS[self._order[rnd][pos]]
        return self._input(kind, arg, np.random.default_rng([self.seed, 2, i]))

    def run(self, inp: OpInput):
        return inp.call()

    def check(self, inp: OpInput, out):
        got = hesim.decrypt(out)[: self.SLOTS].real
        err = float(np.max(np.abs(got - inp.truth)))
        wrong = int(np.count_nonzero(np.rint(got) != inp.truth))
        failures = [f"{inp.kind}: {wrong} slots decode wrong (max error {err:.3e})"] if wrong else []
        return failures, {"round_max_abs_err": err}

    def cost(self, inp: OpInput, out) -> dict:
        return _stats_cost(inp.stats, MAX_LEVEL - out.level)


WORKLOADS = {"tables": Tables, "round-small-noisy": RoundSmallNoisy}
