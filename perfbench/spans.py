"""Span tracer that wraps modpack's functions from outside the package.

Every traced function is replaced by a wrapper in each module (and class)
that holds it under some name, because several functions are imported by
name into other modules (`eval_plan` into `packing` and `roundshare`,
`fit_modp` into `cli` and `roundshare`) and a call goes through whichever
name its caller looks up.  Spans are recorded only while an op is open, are
kept in memory, and are written out when the run ends.

A span is (name, start, end, parent index, op id).  The run is a single
thread, so child spans never overlap and a span's self time is its duration
minus the summed durations of its children.
"""

from __future__ import annotations

import gzip
import json
from collections import defaultdict
from time import perf_counter

import modpack
import numpy as np
from modpack import cheb, cli, fitting, hesim, packing, psev, roundshare

# Every module that may hold a traced function under some name.
MODULES = {"modpack": modpack, "cli": cli, "fitting": fitting, "cheb": cheb, "psev": psev,
           "hesim": hesim, "packing": packing, "roundshare": roundshare}
# Bytes of one complex128 slot; bytes moved are computed from slot counts,
# not measured, and ignore caches.
SLOT_BYTES = 16

# (module, function) pairs traced as spans named "<module>.<function>".
FUNCTIONS = (
    ("cli", ("modp_mean_errors", "floor_mean_errors", "run_bitstack", "run_crtstack",
             "run_combine2", "run_shares")),
    ("fitting", ("fit_modp", "fit_step", "build_system", "solve_min_norm")),
    ("cheb", ("eval_clenshaw",)),
    ("psev", ("eval_plan", "compute_power_basis")),
    ("hesim", ("encrypt", "decrypt", "rotate", "rotate_batch", "conjugate")),
    ("packing", ("pipeline_pack", "pipeline_unpack", "crt_pack", "crt_unpack", "bitstack_pack",
                 "bitstack_unpack", "vec_pack", "vec_unpack", "img_pack", "img_unpack")),
    ("roundshare", ("floor_he", "ceil_he", "round_he", "shares_to_ct", "shares_to_ct_tree")),
)
# SlotCiphertext operators traced as spans named "hesim.<method>".
OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__")

# Spans summed into one per-layer metric; other spans are their own group.
GROUPS = {
    "fitting.fit_modp": "fitting.fit", "fitting.fit_step": "fitting.fit",
    "psev.compute_power_basis": "psev.power_basis",
    "hesim.__add__": "hesim.add", "hesim.__radd__": "hesim.add", "hesim.__sub__": "hesim.add",
    "hesim.__rsub__": "hesim.add", "hesim.__neg__": "hesim.add",
    "hesim.__mul__": "hesim.mul", "hesim.__rmul__": "hesim.mul",
    "hesim.rotate": "hesim.rotate", "hesim.rotate_batch": "hesim.rotate",
    "hesim.conjugate": "hesim.rotate",
    **{f"packing.{f}": "packing.pack"
       for f in ("pipeline_pack", "crt_pack", "bitstack_pack", "vec_pack", "img_pack")},
}
LAYERS = ("cli", "fitting", "cheb", "psev", "hesim", "packing", "roundshare", "bench")
TABLE_NAMES = ("modp4", "modp5", "floor", "bitstack", "crtstack", "combine", "shares", "depth")
HOOK_SPAN = "bench.hook"


class Tracer:
    """Installs wrappers, records spans and boundary counts per op."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op_id = None
        self.n_ops = 0
        self._stack: list[int] = []
        self._op_keys: set = set()
        self._truth = None
        self._patches: list[tuple] = []
        self._hooks = {
            "hesim.__mul__": self._on_mul, "hesim.__rmul__": self._on_mul,
            "hesim.__add__": self._on_add, "hesim.__radd__": self._on_add,
            "hesim.__sub__": self._on_add, "hesim.__neg__": self._on_unary,
            "hesim.rotate": self._on_rotate, "hesim.rotate_batch": self._on_rotate_batch,
            "hesim.conjugate": self._on_conjugate, "hesim.encrypt": self._on_encrypt,
            "hesim.decrypt": self._on_unary,
            "fitting.fit_modp": self._on_fit, "fitting.fit_step": self._on_fit,
        }
        for f in ("pipeline_pack", "crt_pack", "bitstack_pack", "vec_pack"):
            self._hooks[f"packing.{f}"] = self._on_pack
        for f in ("pipeline_unpack", "crt_unpack", "bitstack_unpack", "vec_unpack", "img_unpack"):
            self._hooks[f"packing.{f}"] = self._on_unpack
        self._heavy = {name for name, hook in self._hooks.items()
                       if hook in (self._on_pack, self._on_unpack)}

    # -- installing ----------------------------------------------------

    def install(self):
        targets = {}  # id(original function) -> (original, wrapper)
        for mod, names in FUNCTIONS:
            for fn_name in names:
                fn = getattr(MODULES[mod], fn_name)
                targets[id(fn)] = (fn, self._wrap(f"{mod}.{fn_name}", fn))
        targets[id(psev.eval_ps)] = (psev.eval_ps,
                                     self._wrap_hook_only(psev.eval_ps, self._on_eval_ps))
        for mod in MODULES.values():
            for attr, value in list(vars(mod).items()):
                original, wrapper = targets.get(id(value), (None, None))
                if original is value:
                    self._patch(mod, attr, wrapper)
        wrapped = {}
        for op in OPERATORS:
            fn = vars(hesim.SlotCiphertext)[op]
            if fn not in wrapped:
                wrapped[fn] = self._wrap(f"hesim.{op}", fn)
            self._patch(hesim.SlotCiphertext, op, wrapped[fn])
        for name in list(cli.TABLES):
            self._patch_item(cli.TABLES, name, self._wrap(f"cli.table.{name}", cli.TABLES[name]))

    def uninstall(self):
        for kind, owner, key, original in reversed(self._patches):
            if kind == "attr":
                setattr(owner, key, original)
            else:
                owner[key] = original
        self._patches.clear()

    def _patch(self, owner, attr, new):
        self._patches.append(("attr", owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_item(self, owner, key, new):
        self._patches.append(("item", owner, key, owner[key]))
        owner[key] = new

    def _wrap(self, name, fn):
        tracer = self
        hook = self._hooks.get(name)
        heavy = name in self._heavy

        def wrapper(*args, **kwargs):
            if tracer.op_id is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op_id]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                rec[2] = perf_counter()
                stack.pop()
                tracer._on_error(name, exc)
                raise
            rec[2] = perf_counter()
            stack.pop()
            if heavy:
                tracer._timed_hook(hook, args, kwargs, out)
            elif hook is not None:
                hook(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_hook_only(self, fn, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.op_id is not None:
                hook(args, kwargs, None)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _timed_hook(self, hook, args, kwargs, out):
        """Run a hook that does real work inside a span of its own, so its
        time is not charged to the self time of the span that called it."""
        stack = self._stack
        rec = [HOOK_SPAN, perf_counter(), 0.0, stack[-1] if stack else -1, self.op_id]
        self.spans.append(rec)
        hook(args, kwargs, out)
        rec[2] = perf_counter()

    # -- ops -----------------------------------------------------------

    def begin_op(self, op_id):
        self.op_id = op_id
        self._op_keys = set()
        self._truth = None
        self._stack.append(len(self.spans))
        self.spans.append(["bench.op", perf_counter(), 0.0, -1, op_id])

    def end_op(self):
        rec = self.spans[self._stack.pop()]
        rec[2] = perf_counter()
        self.op_id = None
        self._stack.clear()
        self.n_ops += 1

    def add_measurements(self, found: dict):
        """Add a traced op's check results: errors keep their maximum, counts add up."""
        for k, v in found.items():
            self.counts[k] = max(self.counts[k], v) if k.endswith("max_abs_err") else self.counts[k] + v

    # -- boundary counts -------------------------------------------------

    def _vectors(self, other) -> int:
        """Slot vectors an operand contributes: ciphertexts and plaintext vectors."""
        return 1 if isinstance(other, hesim.SlotCiphertext) or np.ndim(other) else 0

    def _on_mul(self, args, kwargs, out):
        if isinstance(args[1], hesim.SlotCiphertext):
            self.counts["ct_mults"] += 1
        else:
            self.counts["plain_mults"] += 1
        self.counts["bytes"] += (2 + self._vectors(args[1])) * out.params.n * SLOT_BYTES

    def _on_add(self, args, kwargs, out):
        self.counts["adds"] += 1
        self.counts["bytes"] += (2 + self._vectors(args[1])) * out.params.n * SLOT_BYTES

    def _on_unary(self, args, kwargs, out):
        self.counts["bytes"] += 2 * args[0].params.n * SLOT_BYTES

    def _on_rotate(self, args, kwargs, out):
        self.counts["rotations"] += 1
        self.counts["bytes"] += 2 * out.params.n * SLOT_BYTES

    def _on_rotate_batch(self, args, kwargs, out):
        self.counts["rotations"] += len(out)
        self.counts["bytes"] += (1 + len(out)) * args[0].params.n * SLOT_BYTES

    def _on_conjugate(self, args, kwargs, out):
        self.counts["conjugations"] += 1
        self.counts["bytes"] += 2 * out.params.n * SLOT_BYTES

    def _on_encrypt(self, args, kwargs, out):
        self.counts["bytes"] += out.params.n * SLOT_BYTES

    def _on_fit(self, args, kwargs, out):
        """Count fits that return a plan already fitted earlier in this op."""
        key = (out.p, out.B, out.D, out.delta, out.series.coeffs.tobytes())
        self.counts["fit_repeats"] += key in self._op_keys
        self._op_keys.add(key)

    def _on_error(self, name, exc):
        if name.startswith("fitting.fit_") and isinstance(exc, fitting.RankDeficientError):
            self.counts["fit_rejected"] += 1

    def _on_eval_ps(self, args, kwargs, out):
        series, sched = args[0], args[2] if len(args) > 2 else kwargs["sched"]
        self.counts["ps_degree"] += series.coeffs.size - 1
        self.counts["ps_capacity"] += sched.capacity

    def _top_level_packing(self) -> bool:
        return not any(self.spans[i][0].startswith("packing.") for i in self._stack)

    def _on_pack(self, args, kwargs, out):
        if self._top_level_packing():
            self._truth = [np.asarray(v, dtype=float) for v in args[0]]

    def _on_unpack(self, args, kwargs, out):
        if not self._top_level_packing():
            return
        outs = list(out)
        level = min(ct.level for ct in outs)
        self.counts["min_level_left"] = min(self.counts.get("min_level_left", level), level)
        if self._truth is not None and len(self._truth) == len(outs):
            err = max(float(np.max(np.abs(ct.slots[: t.size].real - t)))
                      for t, ct in zip(self._truth, outs))
            self.counts["pack_max_abs_err"] = max(self.counts["pack_max_abs_err"], err)
        self._truth = None

    # -- analysis ------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-op means of span times and boundary counts, by layer."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        incl = defaultdict(float)
        calls = defaultdict(int)
        self_by = defaultdict(float)
        for i, (name, start, end, parent, _) in enumerate(spans):
            group = GROUPS.get(name, name)
            self_by[name] += end - start - child[i]
            calls[group] += 1
            # Inclusive time counts only the outermost span of a group, so
            # nested spans of the same group (__rsub__ -> __neg__) count once.
            p = parent
            while p >= 0 and GROUPS.get(spans[p][0], spans[p][0]) != group:
                p = spans[p][3]
            if p < 0:
                incl[group] += end - start
        n = max(self.n_ops, 1)
        c = self.counts
        out = {}

        def put(name, value, unit):
            out[name] = {"value": float(value), "unit": unit}

        for t in TABLE_NAMES:
            put(f"cli.table.{t}_s", incl[f"cli.table.{t}"] / n, "s")
        put("cli.violations", c["violations"] / n, "count")
        put("fitting.fit_calls", calls["fitting.fit"] / n, "count")
        put("fitting.fit_s", incl["fitting.fit"] / n, "s")
        put("fitting.build_system_s", incl["fitting.build_system"] / n, "s")
        put("fitting.solve_min_norm_s", incl["fitting.solve_min_norm"] / n, "s")
        put("fitting.rejected", c["fit_rejected"] / n, "count")
        put("fitting.repeat_key_frac", c["fit_repeats"] / max(calls["fitting.fit"], 1), "ratio")
        put("cheb.eval_clenshaw_calls", calls["cheb.eval_clenshaw"] / n, "count")
        put("cheb.eval_clenshaw_s", incl["cheb.eval_clenshaw"] / n, "s")
        put("psev.eval_plan_calls", calls["psev.eval_plan"] / n, "count")
        put("psev.eval_plan_s", incl["psev.eval_plan"] / n, "s")
        put("psev.eval_plan_self_s", self_by["psev.eval_plan"] / n, "s")
        put("psev.power_basis_calls", calls["psev.power_basis"] / n, "count")
        put("psev.power_basis_s", incl["psev.power_basis"] / n, "s")
        put("psev.degree_over_capacity", c["ps_degree"] / max(c["ps_capacity"], 1), "ratio")
        for k in ("ct_mults", "plain_mults", "adds", "rotations", "conjugations"):
            put(f"hesim.{k}", c[k] / n, "count")
        for k in ("mul", "add", "rotate", "encrypt", "decrypt"):
            put(f"hesim.{k}_s", incl[f"hesim.{k}"] / n, "s")
        put("hesim.bytes_moved_computed", c["bytes"] / n, "B")
        for k in ("pipeline_unpack", "crt_unpack", "bitstack_unpack", "vec_unpack", "img_unpack"):
            put(f"packing.{k}_s", incl[f"packing.{k}"] / n, "s")
        put("packing.pack_s", incl["packing.pack"] / n, "s")
        put("packing.min_level_left", c.get("min_level_left", 0), "levels")
        put("packing.max_abs_err", c["pack_max_abs_err"], "abs")
        for k in ("floor_he", "ceil_he", "round_he", "shares_to_ct", "shares_to_ct_tree"):
            put(f"roundshare.{k}_s", incl[f"roundshare.{k}"] / n, "s")
        put("roundshare.max_abs_err", c["round_max_abs_err"], "abs")
        layer_self = defaultdict(float)
        for name, t in self_by.items():
            layer_self["bench.hook" if name == HOOK_SPAN else name.split(".")[0]] += t
        for layer in LAYERS:
            put(f"{layer}.self_s", layer_self[layer] / n, "s")
        put("bench.hook_s", layer_self["bench.hook"] / n, "s")
        return out

    def write(self, path, meta: dict):
        """Write all spans, times relative to the first span, as gzipped JSON."""
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = {**meta, "fields": ["name", "start_s", "end_s", "parent", "op"],
               "spans": [[n, round(s - t0, 7), round(e - t0, 7), p, o]
                         for n, s, e, p, o in self.spans]}
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))
