"""Self-checks of the benchmark: exact counts, seed handling and the tracer.

    python3 -m pytest perfbench -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from modpack import fitting, hesim, psev, roundshare  # noqa: E402
from modpack.hesim import OpStats, SimParams  # noqa: E402
from spans import Tracer  # noqa: E402


def _cycle_costs(name, seed):
    """Costs of one full cycle of ops; seconds=0 still runs the costed cycle."""
    lp = run.closed_loop(workloads.WORKLOADS[name](seed), 0)
    assert lp["failed"] == 0
    return lp["costs"]


def test_degree_210_plan_reproduces_baseline_counts():
    plan = fitting.fit_modp(4, 139, 210, 100.0)
    params = SimParams(n=2**15, max_level=25, stats=OpStats())
    out = psev.eval_plan(hesim.encrypt(np.arange(140), params), plan)
    assert (params.stats.ct_mults, params.stats.plain_mults, params.stats.adds) == (44, 191, 257)
    assert params.max_level - out.level == math.ceil(math.log2(210)) + 2


def test_counts_repeat_for_a_seed_and_across_seeds():
    first = _cycle_costs("round-small-noisy", 3)
    assert _cycle_costs("round-small-noisy", 3) == first
    totals = lambda costs: sorted(tuple(sorted(c.items())) for c in costs)  # noqa: E731
    assert totals(_cycle_costs("round-small-noisy", 4)) == totals(first)


def test_tables_counts_gather_every_runner_and_repeat():
    wl = workloads.WORKLOADS["tables"](5)
    costs = []
    for i in range(2):
        inp = wl.prepare(i)
        out = wl.run(inp)
        assert wl.check(inp, out) == ([], {"violations": 0})
        costs.append(wl.cost(inp, out))
        # every table runner made its own OpStats: bitstack x3, crtstack, combine,
        # shares x7, and depth x3
        assert len(inp.stats) == 15
    assert costs[0] == costs[1]
    assert costs[0]["rotations"] > 0


def test_same_seed_gives_same_inputs():
    def inputs(seed):
        wl = workloads.RoundSmallNoisy(seed)
        return [(inp.kind, inp.truth.tolist()) for inp in map(wl.prepare, range(60))]

    a = inputs(9)
    assert inputs(9) == a
    assert inputs(10) != a


def test_tracer_counts_match_opstats_and_uninstall_restores():
    originals = {name: getattr(psev, name) for name in ("eval_plan", "eval_ps")}
    mul = hesim.SlotCiphertext.__mul__
    wl = workloads.WORKLOADS["round-small-noisy"](2)
    tracer = Tracer()
    tracer.install()
    try:
        stats = []
        for i in range(wl.cycle):
            inp = wl.prepare(i)
            tracer.begin_op(i)
            out = wl.run(inp)
            tracer.end_op()
            assert wl.check(inp, out)[0] == []
            stats += inp.stats
    finally:
        tracer.uninstall()
    assert {name: getattr(psev, name) for name in originals} == originals
    assert hesim.SlotCiphertext.__mul__ is mul and roundshare.eval_plan is originals["eval_plan"]
    for k in ("ct_mults", "plain_mults", "adds"):
        assert tracer.counts[k] == sum(getattr(s, k) for s in stats)
    m = tracer.layer_metrics()
    n = wl.cycle
    # self times of all layers add up to the op time
    total_self = sum(v["value"] for k, v in m.items() if k.endswith(".self_s"))
    op_time = sum(e - s for name, s, e, _, _ in tracer.spans if name == "bench.op") / n
    assert total_self == pytest.approx(op_time, rel=1e-6)


def test_tail_latency_keeps_ten_samples_beyond():
    lat = list(range(1, 1001))
    assert run.tail_latency(lat) == (pytest.approx(990.01), 99.0)
    value, q = run.tail_latency(lat[:999])
    assert q == 90.0 and sum(x > value for x in lat[:999]) >= 10
    assert run.tail_latency(lat[:19]) == (19, 100.0)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "tables", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_benchmark_json_names_every_metric():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    wl = workloads.WORKLOADS["round-small-noisy"](1)
    lp = run.closed_loop(wl, 0)
    e2e, _ = run.end_to_end(lp, [1.0])
    assert [m["name"] for m in doc["end_to_end"]] == list(e2e)
    assert all(m["value"] != 0 for m in e2e.values())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    tracer = Tracer()
    names = set(tracer.layer_metrics()) | {"bench.untraced_ops_per_s", "bench.traced_ops_per_s",
                                          "bench.trace_overhead_frac", "bench.traced_ops"}
    assert {m["name"] for m in doc["per_layer"]} == names
