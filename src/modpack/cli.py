"""Command-line harness: fit plans, run pack/unpack pipelines, emit result tables.

Subcommands: fit, pack, unpack, table, selftest.  Exit codes: 0 success,
1 a checked bound was violated, 2 usage, input or I/O failure or no levels left.

`modpack table` prints each table's wall-clock seconds for orientation only,
never checked: simulator timings say nothing about a real lattice backend.
The deterministic proxies that the tables report are multiplication counts
and level consumption; the table functions themselves print nothing.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import sys
import time
import zlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import fitting, psev, roundshare
from .cheb import cheb_T, clenshaw, eval_clenshaw
from .fitting import _whole, fit_modp, save_plan
from .hesim import LevelExhaustedError, OpStats, SimParams, decrypt, encrypt
from .packing import (BitStackLayout, ConcatStage, CrtBasis, ImgPairStage,
                      bitstack_plan_specs, load_layout, pipeline_pack, unpack_stream)

MODP_INTERVAL = 29
MODP_DEGREES = (35, 40, 45, 50)
FLOOR_MODULI = (4, 5, 6, 7, 8, 9)
CRT_MODULI = (4, 5, 7)
CRT_DEGREE = 210
SHARE_MODULUS = 16
SHARE_PARTIES = (3, 4, 5, 6, 7, 8)
SHARE_BATCH = 4096
COMBINE_VECTORS = 96
COMBINE_LEN = 2000

# Bounds each table checks its cells against.  Keys name error/level/count
# metrics only; wall-clock is reported, never asserted.
BOUNDS = {
    "modp4_mean": {35: 1e-3, 40: 1e-5, 45: 1e-6, 50: 1e-6},
    "modp5_mean": {35: 1e-3, 40: 1e-5, 45: 1e-6, 50: 1e-6},
    "floor_mean": 1e-7,          # asserted for degree >= 40
    "bitstack90_mean": (1e-4, 1e-2, 1e-3),
    "bitstack210_mean": (1e-4, 1e-3, 1e-4),
    "bitstack16_mean": (1e-3, 1e-4),
    "crtstack_mean": 1e-5,
    "crtstack_level_min": 14,
    "bitstack90_levels": (16, 7, 7),   # +-1
    "bitstack210_levels": (15, 5, 5),  # +-1
    "crtstack_levels": (15, 15, 15),   # +-1
    "depth_tolerance": 1,
    "combine2_max_err": 1e-4,
    "combine2_level_min": 12,
    "shares_mean": 1e-6,
}

# Values reported by the reference experiments, shown alongside our cells
# for orientation; the checks run against BOUNDS, not these.
REFERENCE = {
    "modp4_mean": {35: 9.217e-5, 40: 2.676e-7, 45: 2.761e-8, 50: 8.277e-8},
    "modp5_mean": {35: 9.753e-5, 40: 2.907e-7, 45: 2.657e-8, 50: 7.071e-8},
}


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------


@dataclass
class RunConfig:
    sim: SimParams
    seed: int = 0

    def __post_init__(self):
        self.seed = _whole(self.seed, "seed")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


# The "sim" keys a config may set; absent keys keep SimParams' defaults.
SIM_KEYS = ("n", "max_level", "noise_stddev", "seed")


def _load_config(args) -> RunConfig:
    """The run settings of --config, --n overriding its slot count; unknown keys are ignored."""
    doc = json.loads(Path(args.config).read_text()) if args.config else {}
    sim = doc.get("sim", {}) if isinstance(doc, dict) else None
    if not isinstance(sim, dict):
        raise ValueError(f"config {args.config} must be a JSON object whose \"sim\" is an object")
    try:
        cfg = RunConfig(sim=SimParams(**{key: sim[key] for key in SIM_KEYS if key in sim}),
                        seed=doc.get("seed", 0))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"config {args.config}: {exc}") from exc
    if args.n is not None:
        cfg.sim = replace(cfg.sim, n=args.n)
    return cfg


def _rng(cfg: RunConfig, job: str) -> np.random.Generator:
    return np.random.default_rng([cfg.seed, zlib.crc32(job.encode())])


# ---------------------------------------------------------------------------
# Table runners (shared with the acceptance suite)
# ---------------------------------------------------------------------------


def _modp_fits(keys):
    """{(p, D): (plan, its series at the integers of [0, MODP_INTERVAL])}, one eval_clenshaw."""
    plans = [fit_modp(p, MODP_INTERVAL, D, fitting.default_delta(D)) for p, D in keys]
    values = eval_clenshaw([plan.series for plan in plans], np.arange(MODP_INTERVAL + 1.0))
    return dict(zip(keys, zip(plans, values)))


def modp_mean_errors(p: int):
    """Mean |delta*fit(i) - (i mod p)| over the integers of [0, MODP_INTERVAL], per degree."""
    xs = np.arange(MODP_INTERVAL + 1, dtype=float)
    fits = _modp_fits([(p, D) for D in MODP_DEGREES])
    return {D: float(np.mean(np.abs(plan.delta * value - np.mod(xs, p))))
            for (_, D), (plan, value) in fits.items()}


def floor_mean_errors():
    xs = np.arange(MODP_INTERVAL + 1, dtype=float)
    fits = _modp_fits([(p, D) for p in FLOOR_MODULI for D in MODP_DEGREES])
    return {(p, D): float(np.mean(np.abs(xs / p - plan.delta / p * value - np.floor(xs / p))))
            for (p, D), (plan, value) in fits.items()}


def _fresh_params(cfg: RunConfig) -> SimParams:
    return replace(cfg.sim, stats=OpStats())


def _unpack(cfg: RunConfig, packed, layout: tuple, truths=None):
    """Encrypt `packed`, unpack it through `layout`, decrypt each vector at its unpacked length.

    `truths`, if given, must match those lengths before anything is encrypted.
    Returns the vectors and a result: levels, op stats, per-vector mean and
    max errors against `truths`, and counts, where counts[k] vectors leave
    the first k packing stages.
    """
    sizes = [len(v) for v in packed]
    counts = [len(sizes)]
    for stage in reversed(layout):
        sizes = stage.unpacked_lengths(sizes)
        counts.append(len(sizes))
    if truths is not None and len(truths) != len(sizes):
        raise ValueError(f"--expected holds {len(truths)} vectors, "
                         f"the layout unpacks {len(sizes)}")
    for i, (want, size) in enumerate(zip(truths or (), sizes)):
        if len(want) != size:
            raise ValueError(f"expected vector {i} has length {len(want)}, "
                             f"the layout unpacks length {size}")
    params = _fresh_params(cfg)
    recovered, levels = [], []
    # Each output is drawn, trimmed and dropped before the next is made, so
    # the last stage's full-slot outputs never coexist.  The kept slots are
    # copied from the slots: decrypt would copy all n as complex128 first.
    # A stage that yields other than its unpacked_lengths raises here.
    outs = unpack_stream([encrypt(v, params) for v in packed], layout)
    for ct, size in zip(outs, sizes, strict=True):
        recovered.append(ct.slots[:size].real.copy())
        levels.append(ct.level)
    res = {"levels": levels, "stats": params.stats, "counts": counts[::-1]}
    if truths is not None:
        diffs = [np.abs(got - want) for got, want in zip(recovered, truths)]
        res["errors"] = [float(np.mean(d)) for d in diffs]
        res["max_errors"] = [float(np.max(d)) for d in diffs]
    return recovered, res


def _run_layout(cfg: RunConfig, data, layout: tuple):
    """Pack `data` through `layout` and unpack it, scoring each vector against its input."""
    return _unpack(cfg, pipeline_pack(data, layout), layout, data)[1]


def run_bitstack(cfg: RunConfig, D: int, radix: int = 4, layers: int = 3):
    """Pack `layers` random radix-`radix` slot vectors, unpack on the simulator."""
    rng = _rng(cfg, f"bitstack-{radix}-{layers}-{D}")
    data = [rng.integers(0, radix, cfg.sim.n) for _ in range(layers)]
    specs = bitstack_plan_specs([radix] * layers)
    plans = tuple(fit_modp(p, B, D, fitting.default_delta(D)) for p, B in specs)
    return _run_layout(cfg, data, (BitStackLayout((radix,) * layers, plans),))


def _crt_basis() -> CrtBasis:
    """The CRT_MODULI basis with one degree-CRT_DEGREE plan per modulus."""
    P, D = int(np.prod(CRT_MODULI)), CRT_DEGREE
    return CrtBasis(CRT_MODULI, tuple(fit_modp(p, P - 1, D, fitting.default_delta(D))
                                      for p in CRT_MODULI))


def run_crtstack(cfg: RunConfig):
    """Pack one random residue slot vector per modulus, unpack on the simulator."""
    rng = _rng(cfg, f"crtstack-{'-'.join(map(str, CRT_MODULI))}-{CRT_DEGREE}")
    data = [rng.integers(0, p, cfg.sim.n) for p in CRT_MODULI]
    return _run_layout(cfg, data, (_crt_basis(),))


def combine2_layout(slot_count: int) -> tuple:
    """Concat to capacity, stack with the CRT basis, pair into complex slots."""
    per_ct = slot_count // COMBINE_LEN
    if per_ct < 1:
        raise ValueError(f"slot count {slot_count} cannot hold a length-{COMBINE_LEN} vector")
    group_len = per_ct * COMBINE_LEN
    return (ConcatStage(((COMBINE_LEN,) * per_ct,)), _crt_basis(),
            ImgPairStage(group_len, group_len))


def run_combine2(cfg: RunConfig):
    rng = _rng(cfg, "combine2")
    data = [rng.integers(0, 4, COMBINE_LEN) for _ in range(COMBINE_VECTORS)]
    res = _run_layout(cfg, data, combine2_layout(cfg.sim.n))
    counts = dict(zip(("concat", "crt", "final"), res["counts"][1:]))
    return {"max_err": max(res["max_errors"]), "min_level": min(res["levels"]),
            "counts": counts, "stats": res["stats"]}


def run_shares(cfg: RunConfig, parties: int, tree_split: int | None = None):
    """Convert SHARE_BATCH additive Z_16 shares to a ciphertext, directly or as a tree.

    The ciphertexts hold min(SHARE_BATCH, n) slots, the batch alone: a
    conversion is slot-wise, so its noise-off result, levels and op counts
    do not depend on n above the batch.  With the noise on, the noise is
    drawn per slot of the batch, not of n slots as in earlier versions, so
    for n > SHARE_BATCH noisy results differ from theirs in value but not
    in distribution.
    """
    batch = min(SHARE_BATCH, cfg.sim.n)
    params = _fresh_params(replace(cfg, sim=replace(cfg.sim, n=batch)))
    p = SHARE_MODULUS
    rng = _rng(cfg, f"shares-{parties}")
    shares = roundshare.ShareSet(p, tuple(rng.integers(0, p, batch) for _ in range(parties)))
    cts = [encrypt(s, params) for s in shares.shares]
    if tree_split is None:
        plan = roundshare.share_plan(p, parties)
        out = roundshare.shares_to_ct(cts, plan)
        degree = plan.D
    else:
        child_plan = roundshare.share_plan(p, tree_split, D=128)
        root_plan = fit_modp(p, 2 * (p - 1), 128)
        node = roundshare.ReconstructNode(
            (roundshare.ReconstructNode(tuple(range(tree_split)), child_plan),
             roundshare.ReconstructNode(tuple(range(tree_split, parties)), child_plan)),
            root_plan)
        out = roundshare.shares_to_ct_tree(cts, node)
        degree = root_plan.D
    got = out.slots.real
    err = float(np.mean(np.abs(got - shares.secret())))
    decoded_ok = bool(np.all(np.rint(got) % p == shares.secret()))
    return {"error": err, "level": out.level, "degree": degree,
            "decoded_ok": decoded_ok, "stats": params.stats}


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cell:
    """A table value and the bound it is checked against.

    `cmp` is a key of _CMP.  A bound of None reports the value unchecked.
    """

    value: object
    bound: object = None
    cmp: str = "<="
    bound_col: str = "bound"


# cmp -> (check of value v against bound b, bound text)
_CMP = {
    "<=": (lambda v, b: v <= b, lambda b: f"{b:.0e}"),
    ">=": (lambda v, b: v >= b, lambda b: f">={b}"),
    "==": (lambda v, b: v == b, lambda b: f"({','.join(map(str, b))})"),
    "+-": (lambda v, b: abs(v - b) <= BOUNDS["depth_tolerance"],
           lambda b: f"{b}+-{BOUNDS['depth_tolerance']}"),
    # b = (direct error, limit), for the shares tree row
    "<=,>": (lambda v, b: b[0] < v <= b[1], lambda b: f"<={b[1]:.0e},>direct"),
}


def _rows(table: str, rows: list[dict]):
    """Expand each row's Cells into value and bound columns and check them.

    A cell keyed by a tuple of columns spreads its tuple value over them.
    Each row gains a status: "info" when it checks nothing, else "pass" or
    "FAIL".  A cell outside its bound adds a violation naming the table, the
    row (its columns before the first Cell), the cell, the value and the
    bound.  Returns (rows, violations).
    """
    out, violations = [], []
    for row in rows:
        label = " ".join(f"{k}={v}" for k, v in
                         itertools.takewhile(lambda kv: not isinstance(kv[1], Cell), row.items()))
        flat, checks = {}, []
        for key, cell in row.items():
            if not isinstance(cell, Cell):
                flat[key] = cell
                continue
            value = f"{cell.value:.6e}" if isinstance(cell.value, float) else cell.value
            if isinstance(key, tuple):
                flat.update(zip(key, cell.value))
            else:
                flat[key] = value
            if cell.bound is None:
                flat[cell.bound_col] = "none"
                continue
            test, text = _CMP[cell.cmp]
            flat[cell.bound_col] = bound = text(cell.bound)
            checks.append(test(cell.value, cell.bound))
            if not checks[-1]:
                name = "/".join(key) if isinstance(key, tuple) else key
                violations.append(f"{table} {label}: {name} {value} outside bound {bound}")
        flat["status"] = "info" if not checks else "pass" if all(checks) else "FAIL"
        out.append(flat)
    return out, violations


def _table_modp(cfg: RunConfig, p: int):
    key = f"modp{p}_mean"
    means = modp_mean_errors(p)
    return _rows(f"modp{p}", [{
        "degree": D,
        "delta": fitting.default_delta(D),
        "mean_abs_error": Cell(means[D], BOUNDS[key][D]),
        "reference": f"{REFERENCE[key][D]:.3e}",
    } for D in MODP_DEGREES])


def _table_floor(cfg: RunConfig):
    means = floor_mean_errors()
    # The floor bound is asserted for degree >= 40 only.
    return _rows("floor", [{
        "p": p,
        "degree": D,
        "mean_abs_error": Cell(means[(p, D)], BOUNDS["floor_mean"] if D >= 40 else None),
    } for p in FLOOR_MODULI for D in MODP_DEGREES])


def _table_bitstack(cfg: RunConfig):
    rows = []
    # Two 4-bit layers under ModP(x, 16) are fitted at degree 400; their
    # levels are reported, not checked.
    for config, key, D, radix, layers in (("bitstack90", "bitstack90", 90, 4, 3),
                                          ("bitstack210", "bitstack210", 210, 4, 3),
                                          ("bitstack16x2", "bitstack16", 400, 16, 2)):
        res = run_bitstack(cfg, D, radix=radix, layers=layers)
        levels = BOUNDS.get(f"{key}_levels", (None,) * layers)
        rows += [{
            "config": config,
            "layer": i + 1,
            "mean_abs_error": Cell(err, BOUNDS[f"{key}_mean"][i], bound_col="error_bound"),
            "remaining_level": Cell(lvl, levels[i], "+-", "level_bound"),
            "mult_count": res["stats"].mults,
        } for i, (err, lvl) in enumerate(zip(res["errors"], res["levels"]))]
    return _rows("bitstack", rows)


def _table_crtstack(cfg: RunConfig):
    res = run_crtstack(cfg)
    return _rows("crtstack", [{
        "modulus": p,
        "layer": i,
        "mean_abs_error": Cell(err, BOUNDS["crtstack_mean"], bound_col="error_bound"),
        "remaining_level": Cell(lvl, BOUNDS["crtstack_level_min"], ">=", "level_bound"),
        "mult_count": res["stats"].mults,
    } for i, (p, err, lvl) in enumerate(zip(CRT_MODULI, res["errors"], res["levels"]), 1)])


def _table_combine(cfg: RunConfig):
    res = run_combine2(cfg)
    counts = res["counts"]
    return _rows("combine", [{
        "pipeline": "concat+crt457+imgpair",
        "max_abs_error": Cell(res["max_err"], BOUNDS["combine2_max_err"], bound_col="error_bound"),
        "remaining_level": Cell(res["min_level"], BOUNDS["combine2_level_min"], ">=",
                                "level_bound"),
        ("ct_concat_only", "ct_after_crt", "ct_final"): Cell(
            (counts["concat"], counts["crt"], counts["final"]), (6, 2, 1), "==", "count_bound"),
        "mult_count": res["stats"].mults,
    }])


def _table_shares(cfg: RunConfig):
    bound = BOUNDS["shares_mean"]
    runs = {parties: run_shares(cfg, parties) for parties in SHARE_PARTIES}
    runs["8*"] = run_shares(cfg, 8, tree_split=4)
    rows = []
    for parties, res in runs.items():
        # The 4+4 tree must stay within the bound yet lose accuracy against
        # the direct 8-party conversion.
        cell = (Cell(res["error"], bound) if parties != "8*" else
                Cell(res["error"], (runs[8]["error"], bound), "<=,>"))
        rows.append({"parties": parties, "degree": res["degree"], "mean_abs_error": cell,
                     "remaining_level": res["level"], "decoded_exactly": res["decoded_ok"],
                     "mult_count": res["stats"].mults})
    return _rows("shares", rows)


def _table_depth(cfg: RunConfig):
    # One slot suffices: the levels a run leaves depend on its plans' schedules
    # alone, never on the slot values or their count, so one-slot runs leave
    # exactly the levels (and spend the op counts) of n-slot runs.
    cfg = replace(cfg, sim=replace(cfg.sim, n=1))
    runs = {"bitstack90": run_bitstack(cfg, 90),
            "bitstack210": run_bitstack(cfg, 210),
            "crtstack": run_crtstack(cfg)}
    return _rows("depth", [{
        "unpacked_cipher": f"layer_{i + 1}",
        **{name: Cell(res["levels"][i], BOUNDS[f"{name}_levels"][i], "+-", f"{name}_bound")
           for name, res in runs.items()},
    } for i in range(3)])


TABLES = {
    "modp4": lambda cfg: _table_modp(cfg, 4),
    "modp5": lambda cfg: _table_modp(cfg, 5),
    "floor": _table_floor,
    "bitstack": _table_bitstack,
    "crtstack": _table_crtstack,
    "combine": _table_combine,
    "shares": _table_shares,
    "depth": _table_depth,
}


def _write_table(rows: list[dict], out_dir: Path, name: str):
    out_dir.mkdir(parents=True, exist_ok=True)
    columns = list(rows[0].keys())
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    (out_dir / f"{name}.csv").write_text(buf.getvalue())
    md = ["| " + " | ".join(columns) + " |",
          "| " + " | ".join("---" for _ in columns) + " |"]
    md += ["| " + " | ".join(str(r[c]) for c in columns) + " |" for r in rows]
    (out_dir / f"{name}.md").write_text("\n".join(md) + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_fit(args) -> int:
    # --delta omitted: fit_modp falls back to suggest_delta automatically.
    plan = fit_modp(args.p, args.B, args.D, args.delta)
    save_plan(plan, args.out)
    print(f"fit p={args.p} B={args.B} D={args.D} delta={plan.delta:g} "
          f"residual={plan.residual:.6e} -> {args.out}")
    return 0


def _read_vectors(path) -> list[np.ndarray]:
    """One vector per non-blank line: a JSON array of numbers, or of [re, im] pairs."""
    vectors = []
    for line_no, line in enumerate(Path(path).read_text().splitlines(), 1):
        if not line.strip():
            continue
        try:
            arr = np.asarray(json.loads(line), dtype=float)
        except (TypeError, ValueError) as exc:  # not JSON, ragged, or not numbers
            raise ValueError(f"{path}:{line_no}: {exc}") from exc
        if arr.ndim == 2 and arr.shape[1] == 2:
            arr = arr.view(complex)[:, 0]  # each [re, im] row read as one complex value
        elif arr.ndim != 1:
            raise ValueError(f"{path}:{line_no}: not an array of numbers or of [re, im] pairs")
        vectors.append(arr)
    return vectors


def _write_vectors(path, vectors):
    lines = []
    for v in vectors:
        v = np.asarray(v)
        if np.iscomplexobj(v):
            lines.append(json.dumps([[x.real, x.imag] for x in v]))
        else:
            lines.append(json.dumps([float(x) for x in v]))
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def cmd_pack(args) -> int:
    layout = load_layout(args.layout)
    data = _read_vectors(args.data)
    packed = pipeline_pack(data, layout)
    _write_vectors(args.out, packed)
    print(f"packed {len(data)} vectors into {len(packed)}")
    return 0


def cmd_unpack(args) -> int:
    cfg = _load_config(args)
    layout = load_layout(args.layout)
    packed = _read_vectors(args.data)
    expected = _read_vectors(args.expected) if args.expected else None
    recovered, res = _unpack(cfg, packed, layout, expected)
    _write_vectors(args.out, recovered)
    lowest = f"; remaining level >= {min(res['levels'])}" if recovered else ""
    print(f"unpacked {len(recovered)} vectors{lowest}")
    if expected is not None and recovered:
        if len(recovered) <= 12:
            for i, (worst, mean, level) in enumerate(
                    zip(res["max_errors"], res["errors"], res["levels"])):
                print(f"  vector {i}: max={worst:.6e} mean={mean:.6e} level={level}")
        # np.max, unlike max(), lets a NaN error through to the report
        print(f"error report: max={np.max(res['max_errors']):.6e} "
              f"worst_mean={np.max(res['errors']):.6e}")
    return 0


def cmd_table(args) -> int:
    cfg = _load_config(args)
    name = args.name
    start = time.perf_counter()
    rows, violations = TABLES[name](cfg)
    _write_table(rows, Path(args.output_dir), name)
    print(f"# table {name}: wall_clock_s={time.perf_counter() - start:.3f} "
          "(informational, never asserted)")
    for row in rows:
        print(json.dumps(row))
    if violations:
        for v in violations:
            print(f"BOUND VIOLATION: {v}", file=sys.stderr)
        return 1
    print(f"table {name}: all checked cells within bounds")
    return 0


def cmd_selftest(args) -> int:
    failures = []
    xs = np.linspace(-1, 1, 101)
    if np.max(np.abs(np.array([cheb_T(7, x) for x in xs]) - np.cos(7 * np.arccos(xs)))) > 1e-10:
        failures.append("chebyshev recurrence vs trig form")
    rng = np.random.default_rng(0)
    us = np.linspace(-1, 1, 64)
    for _ in range(50):
        D = int(rng.integers(1, 200))
        coeffs = rng.uniform(-1, 1, D + 1)
        xs = np.append(us, rng.uniform(-1, 1))  # the grid and one random point
        series = fitting.ChebSeries(coeffs, 1.0)
        ct = encrypt(xs, SimParams(n=128))  # noise off: exact complex arithmetic
        got = decrypt(psev.eval_ps(series, ct, psev.plan_schedule(D)))[: xs.size].real
        if np.max(np.abs(got - clenshaw(coeffs, xs))) > 1e-8:
            failures.append(f"paterson-stockmeyer vs clenshaw at degree {D}")
            break
    plan = fit_modp(5, 29, 45, 100.0)
    if plan.residual > 1e-6:
        failures.append("mod fit residual")
    if max(run_bitstack(RunConfig(sim=SimParams(n=64)), 90)["max_errors"]) > 1e-4:
        failures.append("bitstack round trip")
    for f in failures:
        print(f"selftest FAIL: {f}", file=sys.stderr)
    if not failures:
        print("selftest: all checks passed")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="modpack",
                                     description="Mod-approximation packing toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a mod plan and write it as JSON")
    p_fit.add_argument("--p", type=int, required=True)
    p_fit.add_argument("--B", type=int, required=True)
    p_fit.add_argument("--D", type=int, required=True)
    p_fit.add_argument("--delta", type=float, default=None)
    p_fit.add_argument("--out", required=True)
    p_fit.set_defaults(func=cmd_fit)

    p_pack = sub.add_parser("pack", help="pack data vectors through a layout")
    p_pack.add_argument("--layout", required=True)
    p_pack.add_argument("--data", required=True)
    p_pack.add_argument("--out", required=True)
    p_pack.set_defaults(func=cmd_pack)

    p_unpack = sub.add_parser("unpack", help="encrypt packed vectors and unpack them")
    p_unpack.add_argument("--layout", required=True)
    p_unpack.add_argument("--data", required=True)
    p_unpack.add_argument("--out", required=True)
    p_unpack.add_argument("--expected", default=None)
    p_unpack.add_argument("--config", default=None)
    p_unpack.add_argument("--n", type=int, default=None)
    p_unpack.set_defaults(func=cmd_unpack)

    p_table = sub.add_parser("table", help="regenerate a result table with bound checks")
    p_table.add_argument("--name", choices=sorted(TABLES), required=True)
    p_table.add_argument("--config", default=None)
    p_table.add_argument("--n", type=int, default=None)
    p_table.add_argument("--output-dir", default="out")
    p_table.set_defaults(func=cmd_table)

    p_self = sub.add_parser("selftest", help="quick internal consistency checks")
    p_self.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, LevelExhaustedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
