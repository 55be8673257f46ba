import csv
import json
import os
import subprocess
import sys
import warnings
from argparse import Namespace
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import modpack
from modpack import cli
from modpack.fitting import fit_modp, load_plan, suggest_delta
from modpack.hesim import SimParams
from modpack.packing import (BitStackLayout, ConcatStage, CrtBasis, ImgPairStage,
                             bitstack_plan_specs, pipeline_pack, save_layout)


def run(*argv):
    return cli.main([str(a) for a in argv])


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def test_fit_writes_plan_and_prints_residual(tmp_path, capsys):
    out = tmp_path / "plan.json"
    assert run("fit", "--p", 4, "--B", 29, "--D", 45, "--delta", 100, "--out", out) == 0
    assert "residual=" in capsys.readouterr().out
    plan = load_plan(out)
    assert (plan.p, plan.B, plan.D, plan.delta) == (4, 29, 45, 100.0)
    assert plan.residual <= 1e-6


def test_fit_identity_modulus(tmp_path):
    out = tmp_path / "plan.json"
    assert run("fit", "--p", 31, "--B", 29, "--D", 35, "--out", out) == 0
    assert load_plan(out).residual <= 1e-6


def test_fit_without_delta_uses_suggestion(tmp_path):
    out = tmp_path / "plan.json"
    assert run("fit", "--p", 5, "--B", 29, "--D", 45, "--out", out) == 0
    plan = load_plan(out)
    alpha = plan.series.coeffs * plan.delta
    assert plan.delta == suggest_delta(alpha)


def test_fit_rejects_infinite_delta(tmp_path, capsys):
    # an infinite delta zeroes every coefficient and makes the residual NaN
    out = tmp_path / "plan.json"
    assert run("fit", "--p", 4, "--B", 29, "--D", 45, "--delta", "inf", "--out", out) == 2
    assert "delta must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("p,B,D,message", [
    (4, 29, 20, "degree must exceed the interval bound (D=20, B=29)"),
    (1, 3, 5, "modulus must be at least 2, got 1"),
], ids=["degree", "modulus"])
def test_fit_rejects_bad_arguments(tmp_path, capsys, p, B, D, message):
    out = tmp_path / "x.json"
    assert run("fit", "--p", p, "--B", B, "--D", D, "--out", out) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_fit_refuses_an_oversized_system(tmp_path, capsys):
    # D = ceil(pi*B/2) at B=65535 would need a 65536 x 102944 float64 matrix
    out = tmp_path / "plan.json"
    assert run("fit", "--p", 16, "--B", 65535, "--D", 102943, "--out", out) == 2
    err = capsys.readouterr().err
    assert "B=65535, D=102943" in err and f"{65536 * 102944 * 8} bytes" in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# pack / unpack
# ---------------------------------------------------------------------------


def write_lines(path, vectors):
    path.write_text("\n".join(json.dumps(v) for v in vectors) + ("\n" if vectors else ""))


@pytest.fixture
def fig_files(tmp_path):
    plans = tuple(fit_modp(p, 89, 150) for p in (9, 10))
    layout = (
        ConcatStage(((4, 4), (4, 4), (4,), (4,))),
        CrtBasis((9, 10), plans),
        ImgPairStage(8, 4),
    )
    layout_path = tmp_path / "layout.json"
    save_layout(layout, layout_path)
    rng = np.random.default_rng(0)
    data = [[int(x) for x in rng.integers(0, 9, 4)] for _ in range(6)]
    data_path = tmp_path / "data.ndjson"
    write_lines(data_path, data)
    return layout_path, data_path, data


def test_pack_unpack_round_trip(fig_files, tmp_path, capsys):
    layout_path, data_path, data = fig_files
    packed_path = tmp_path / "packed.ndjson"
    assert run("pack", "--layout", layout_path, "--data", data_path,
               "--out", packed_path) == 0
    packed_lines = packed_path.read_text().strip().splitlines()
    assert len(packed_lines) == 1  # six vectors merged into one complex vector
    recovered_path = tmp_path / "recovered.ndjson"
    assert run("unpack", "--layout", layout_path, "--data", packed_path,
               "--out", recovered_path, "--expected", data_path, "--n", 32) == 0
    report = capsys.readouterr().out
    assert "error report" in report
    recovered = [json.loads(line) for line in recovered_path.read_text().splitlines()]
    assert len(recovered) == 6
    for got, want in zip(recovered, data):
        assert np.max(np.abs(np.array(got) - want)) <= 1e-5


def test_pack_unpack_template_layout(tmp_path):
    # A one-group concat stage repeats its group: without --expected, unpack
    # trims each vector to the length the stage resolves for it.
    plans = (fit_modp(3, 14, 30, 100.0), fit_modp(5, 14, 30, 100.0))
    layout_path = tmp_path / "layout.json"
    save_layout((ConcatStage(((4, 4),)), CrtBasis((3, 5), plans)), layout_path)
    assert json.loads(layout_path.read_text())["stages"][0] == {"kind": "concat",
                                                                "groups": [[4, 4]]}
    rng = np.random.default_rng(5)
    data = [[int(x) for x in rng.integers(0, 3, 4)] for _ in range(8)]
    data_path, packed_path = tmp_path / "data.ndjson", tmp_path / "packed.ndjson"
    write_lines(data_path, data)
    assert run("pack", "--layout", layout_path, "--data", data_path, "--out", packed_path) == 0
    assert len(packed_path.read_text().splitlines()) == 2  # 8 vectors -> 4 pairs -> 2
    out_path = tmp_path / "recovered.ndjson"
    assert run("unpack", "--layout", layout_path, "--data", packed_path,
               "--out", out_path, "--n", 16) == 0
    recovered = [json.loads(line) for line in out_path.read_text().splitlines()]
    assert [len(v) for v in recovered] == [4] * 8
    for got, want in zip(recovered, data):
        assert np.max(np.abs(np.array(got) - want)) <= 1e-4


def _lone_stage_round_trip(tmp_path, stage, data, *extra):
    layout_path = tmp_path / "layout.json"
    save_layout((stage,), layout_path)
    data_path, packed_path = tmp_path / "data.ndjson", tmp_path / "packed.ndjson"
    write_lines(data_path, data)
    assert run("pack", "--layout", layout_path, "--data", data_path, "--out", packed_path) == 0
    out_path = tmp_path / "recovered.ndjson"
    code = run("unpack", "--layout", layout_path, "--data", packed_path,
               "--out", out_path, "--n", 1024, *extra)
    return code, out_path


def _crt35_stage():
    plans = (fit_modp(3, 14, 30, 100.0), fit_modp(5, 14, 30, 100.0))
    return CrtBasis((3, 5), plans), [[0, 1, 2, 1], [4, 0, 3, 2]]


def test_pack_unpack_repeats_multi_group_layout(tmp_path):
    # Two groups of uneven members, given twice the vectors they cover: the
    # groups repeat, and without --expected each vector comes out at its own
    # length.
    layout_path = tmp_path / "layout.json"
    save_layout((ConcatStage(((4, 2), (3,))), ImgPairStage(6, 3)), layout_path)
    data = [[1, 2, 3, 4], [5, 6], [7, 8, 9], [9, 8, 7, 6], [5, 4], [3, 2, 1]]
    data_path, packed_path = tmp_path / "data.ndjson", tmp_path / "packed.ndjson"
    write_lines(data_path, data)
    assert run("pack", "--layout", layout_path, "--data", data_path, "--out", packed_path) == 0
    assert len(packed_path.read_text().splitlines()) == 2
    out_path = tmp_path / "recovered.ndjson"
    assert run("unpack", "--layout", layout_path, "--data", packed_path,
               "--out", out_path, "--n", 16) == 0
    recovered = [json.loads(line) for line in out_path.read_text().splitlines()]
    assert [len(v) for v in recovered] == [len(v) for v in data]
    for got, want in zip(recovered, data):
        assert np.max(np.abs(np.array(got) - want)) <= 1e-9


@pytest.mark.parametrize("stage_kind", ["crt", "imgpair"])
def test_unpack_trims_lone_stage_without_expected(tmp_path, stage_kind):
    # Without --expected each vector still comes out at its own length, not
    # at the slot count: (3,5) CRT layers keep the packed length, an
    # ImgPairStage yields (n1, n2).
    if stage_kind == "crt":
        stage, data = _crt35_stage()
    else:
        stage, data = ImgPairStage(4, 2), [[1, 2, 3, 4], [5, 6]]
    code, out_path = _lone_stage_round_trip(tmp_path, stage, data)
    assert code == 0
    recovered = [json.loads(line) for line in out_path.read_text().splitlines()]
    assert [len(v) for v in recovered] == [len(v) for v in data]
    for got, want in zip(recovered, data):
        assert np.max(np.abs(np.array(got) - want)) <= 1e-4


def test_unpack_expected_length_mismatch_names_vector(tmp_path, capsys):
    data = [[1, 2, 3, 4], [5, 6]]
    wrong = tmp_path / "wrong.ndjson"
    write_lines(wrong, [[1, 2, 3, 4], [5, 6, 0]])
    code, out_path = _lone_stage_round_trip(tmp_path, ImgPairStage(4, 2), data,
                                            "--expected", wrong)
    assert code == 2
    assert "expected vector 1 has length 3" in capsys.readouterr().err
    assert not out_path.exists()


@pytest.mark.parametrize("count", [1, 3])
def test_unpack_expected_count_mismatch_exits_two(tmp_path, capsys, count):
    # two layers unpack to two vectors; one or three expected ones is a usage error
    stage, data = _crt35_stage()
    wrong = tmp_path / "wrong.ndjson"
    write_lines(wrong, (data + [[0, 0, 0, 0]])[:count])
    code, out_path = _lone_stage_round_trip(tmp_path, stage, data, "--expected", wrong)
    assert code == 2
    assert f"--expected holds {count} vectors, the layout unpacks 2" in capsys.readouterr().err
    assert not out_path.exists()


@pytest.mark.parametrize("field,value,message", [
    ("D", 60, "D=60 does not match the series degree 30"),
    ("delta", -100.0, "delta must be positive"),
    ("delta", float("inf"), "delta must be positive and finite"),
    ("coeffs", [float("nan")] + [0.0] * 30, "scaled coefficients must be finite"),
])
def test_unpack_rejects_inconsistent_plan_file(tmp_path, capsys, field, value, message):
    # a plan whose D is not its series degree, whose delta is not positive and
    # finite, or with a NaN coefficient fails to load instead of spending a
    # level, flipping the sign or decoding NaN
    stage, data = _crt35_stage()
    layout_path = tmp_path / "layout.json"
    save_layout((stage,), layout_path)
    plan_path = tmp_path / "layout-stage0-layer0.plan.json"
    plan_path.write_text(json.dumps({**json.loads(plan_path.read_text()), field: value}))
    data_path, out_path = tmp_path / "data.ndjson", tmp_path / "out.ndjson"
    write_lines(data_path, data)
    assert run("unpack", "--layout", layout_path, "--data", data_path, "--out", out_path,
               "--n", 16) == 2
    assert message in capsys.readouterr().err
    assert not out_path.exists()


def test_unpack_error_report_keeps_nan(tmp_path, capsys):
    # a NaN error in one vector must reach the aggregate line, not drop out of max()
    stage, data = _crt35_stage()
    expected = tmp_path / "expected.ndjson"
    expected.write_text("[0, NaN, 2, 1]\n[4, 0, 3, 2]\n")
    code, _ = _lone_stage_round_trip(tmp_path, stage, data, "--expected", expected)
    assert code == 0
    out = capsys.readouterr().out
    assert "vector 0: max=nan" in out
    assert "error report: max=nan worst_mean=nan" in out


def _short_budget(tmp_path):
    config = tmp_path / "short.json"
    config.write_text(json.dumps({"sim": {"n": 1024, "max_level": 5}}))
    return config


def test_table_out_of_levels_exits_two(tmp_path, capsys):
    assert run("table", "--name", "crtstack", "--config", _short_budget(tmp_path),
               "--n", 256, "--output-dir", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "error:" in err and "level" in err and "Traceback" not in err


@pytest.mark.parametrize("name,n,message", [
    ("modp4", 0, "slot count must be a power of two, got 0"),
    ("modp4", 3, "slot count must be a power of two, got 3"),
    ("combine", 1024, f"slot count 1024 cannot hold a length-{cli.COMBINE_LEN} vector"),
], ids=["0", "3", "combine-1024"])
def test_table_rejects_bad_slot_count(name, n, message, tmp_path, capsys):
    # --n 0 used to be ignored: the table ran at the config's n and exited 0
    assert run("table", "--name", name, "--n", n, "--output-dir", tmp_path / "out") == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_unpack_out_of_levels_exits_two(tmp_path, capsys):
    stage, data = _crt35_stage()
    code, out_path = _lone_stage_round_trip(tmp_path, stage, data,
                                            "--config", _short_budget(tmp_path))
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "level" in err and "Traceback" not in err
    assert not out_path.exists()


def test_unpack_rejects_output_dir(tmp_path):
    # unpack writes only --out; an --output-dir it would ignore is a usage error
    with pytest.raises(SystemExit) as exc:
        run("unpack", "--layout", tmp_path / "layout.json", "--data", tmp_path / "data.ndjson",
            "--out", tmp_path / "o.ndjson", "--output-dir", tmp_path / "x")
    assert exc.value.code == 2


def test_config_sim_keys_default_to_sim_params(tmp_path):
    # absent "sim" keys take SimParams' defaults; present ones are cast and
    # override only themselves; --n overrides the config's n
    def load(doc, n=None):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        return cli._load_config(Namespace(config=path, n=n))

    assert cli._load_config(Namespace(config=None, n=None)).sim == SimParams()
    assert load({}).sim == SimParams()
    assert load({"sim": {}}).sim == SimParams()
    cfg = load({"sim": {"max_level": "7", "noise_stddev": 1, "extra": 0}, "seed": "3"})
    assert cfg.sim == replace(SimParams(), max_level=7, noise_stddev=1.0)
    assert type(cfg.sim.max_level) is int and type(cfg.sim.noise_stddev) is float
    assert cfg.seed == 3
    assert load({"sim": {"n": 64, "seed": 5}}, n=128).sim == replace(SimParams(), n=128, seed=5)


def test_run_seed_is_used_whole():
    # a masked seed gave 2**31 the inputs of seed 0
    draws = {cli._rng(cli.RunConfig(sim=SimParams(), seed=seed), "job").random()
             for seed in (0, 2**31)}
    assert len(draws) == 2
    whole = cli.RunConfig(sim=SimParams(), seed=4.0).seed
    assert whole == 4 and type(whole) is int
    with pytest.raises(ValueError, match="seed must be a whole number, got 1.5"):
        cli.RunConfig(sim=SimParams(), seed=1.5)


# command, JSON text of the config or layout it reads, part of the error
MALFORMED_INPUTS = {
    "config-not-object": ("table", "[1, 2]", 'whose "sim" is an object'),
    "config-sim-not-object": ("table", '{"sim": 5}', 'whose "sim" is an object'),
    # a value of the wrong type names its field; it used to report only int()'s
    # "... not 'NoneType'" or float()'s message
    "config-value-type": ("table", '{"sim": {"n": null}}', "n must be a whole number, got None"),
    "config-noise-list": ("table", '{"sim": {"noise_stddev": [1]}}',
                          "noise_stddev must be a number, got [1]"),
    "config-noise-string": ("table", '{"sim": {"noise_stddev": "abc"}}',
                            "noise_stddev must be a number, got 'abc'"),
    "config-noise-huge": ("table", '{"sim": {"noise_stddev": 1%s}}' % ("0" * 400),
                          "noise_stddev must be a number, got 1000"),
    "layout-list-n2": ("pack", '{"stages": [{"kind": "imgpair", "n1": "8", "n2": [4]}]}',
                       "layout stage 0 (imgpair) has a field of the wrong type: "
                       "imgpair length n2 must be a whole number, got [4]"),
    "layout-not-object": ("pack", "[1, 2]", '"stages" list'),
    "layout-stages-not-list": ("pack", '{"stages": {"a": 1}}', '"stages" list'),
    "layout-entry-not-object": ("pack", '{"stages": [{"kind": "imgpair", "n1": 4, "n2": 4}, 7]}',
                                "layout stage 1 must be a JSON object"),
    "layout-field-type": ("pack", '{"stages": [{"kind": "crt", "moduli": 5}]}',
                          "layout stage 0 (crt) has a field of the wrong type"),
    "layout-no-kind": ("pack", '{"stages": [{"moduli": [3, 5]}]}',
                       "layout stage 0 has no 'kind' field"),
    "layout-unknown-kind": ("pack", '{"stages": [{"kind": "nope"}]}',
                            "unknown stage kind 'nope' in layout stage 0"),
    # a crt stage packs without plans; unpacking it needs them
    "layout-crt-without-plans": ("unpack", '{"stages": [{"kind": "crt", "moduli": [3, 5]}]}',
                                 "basis carries no plans; unpacking needs one per modulus"),
    "layout-missing-field": ("pack", '{"stages": [{"kind": "imgpair", "n1": 4, "n2": 4}, '
                             '{"kind": "concat"}]}', "layout stage 1 has no 'groups' field"),
    # "plan": the text is the one plan file that a crt layout stage over moduli
    # (3, 5) names
    "plan-one-for-two-moduli": ("plan", '{"coeffs": [0.5], "p": 3, "B": 14, "D": 0, '
                                '"delta": 1.0, "residual": 0.0}',
                                "need exactly 2 plans, one per layer spec, got 1"),
    "plan-no-coeffs": ("plan", '{"p": 3, "B": 14, "D": 0, "delta": 1.0, "residual": 0.0}',
                       "input.json has no 'coeffs' field"),
    # a float field names itself and its value, as the whole fields do
    "plan-field-type": ("plan", '{"coeffs": [0.5], "p": 3, "B": null, "D": 0, "delta": 1.0, '
                        '"residual": 0.0}', "input.json: domain_upper must be a number, got None"),
    "plan-delta-string": ("plan", '{"coeffs": [0.5], "p": 3, "B": 14, "D": 0, "delta": "abc", '
                          '"residual": 0.0}', "input.json: delta must be a number, got 'abc'"),
    # float() overflows here: an OverflowError, which exits 2 like the rest
    "plan-residual-huge": ("plan", '{"coeffs": [0.5], "p": 3, "B": 14, "D": 0, "delta": 1.0, '
                           '"residual": 1%s}' % ("0" * 400),
                           "input.json: residual must be a number, got 1000"),
    "config-noise-nan": ("table", '{"sim": {"noise_stddev": NaN}}',
                         "noise_stddev must be finite and non-negative, got nan"),
    "config-negative-seed": ("table", '{"seed": -1}', "seed must be non-negative, got -1"),
    "config-negative-sim-seed": ("table", '{"sim": {"seed": -1}}',
                                 "seed must be non-negative, got -1"),
    # values int() used to truncate: each ran as the whole number below it
    "config-fractional-n": ("table", '{"sim": {"n": 64.9}}', "n must be a whole number, got 64.9"),
    "layout-fractional-group": ("pack", '{"stages": [{"kind": "concat", "groups": [[2.7, 2]]}]}',
                                "concat group size must be a whole number, got 2.7"),
    "layout-fractional-radix": ("pack", '{"stages": [{"kind": "bitstack", "radices": [4.9, 4]}]}',
                                "radix must be a whole number, got 4.9"),
    "layout-fractional-n1": ("pack", '{"stages": [{"kind": "imgpair", "n1": 2.5, "n2": 2}]}',
                             "imgpair length n1 must be a whole number, got 2.5"),
    # a negative length used to build and die inside numpy's unpack
    "layout-negative-n1": ("pack", '{"stages": [{"kind": "imgpair", "n1": -1, "n2": 2}]}',
                           "imgpair length n1 must be non-negative, got -1"),
    "plan-fractional-B": ("plan", '{"coeffs": [0.5], "p": 3, "B": 2.5, "D": 0, "delta": 1.0, '
                          '"residual": 0.0}', "input.json: B must be a whole number, got 2.5"),
    # strings where an array belongs: each used to be read digit by digit, as
    # moduli (4, 5, 7), radices (4, 4), a group (4, 4) or plan files "a", "b",
    # "c"; an object was read as its keys
    "layout-string-moduli": ("pack", '{"stages": [{"kind": "crt", "moduli": "457"}]}',
                             "layout stage 0 (crt) has a field of the wrong type: "
                             "moduli must be an array, got '457'"),
    "layout-string-radices": ("pack", '{"stages": [{"kind": "bitstack", "radices": "44"}]}',
                              "layout stage 0 (bitstack) has a field of the wrong type: "
                              "radices must be an array, got '44'"),
    "layout-string-group": ("pack", '{"stages": [{"kind": "concat", "groups": ["44"]}]}',
                            "layout stage 0 (concat) has a field of the wrong type: "
                            "concat group must be an array, got '44'"),
    "layout-object-moduli": ("pack", '{"stages": [{"kind": "crt", "moduli": {"3": 1}}]}',
                             "moduli must be an array, got {'3': 1}"),
    "layout-string-plan-files": ("pack", '{"stages": [{"kind": "crt", "moduli": [3], '
                                 '"plan_files": "abc"}]}',
                                 "layout stage 0 (crt) has a field of the wrong type: "
                                 "plan_files must be an array, got 'abc'"),
    # spellings no layout writer produces are missing fields, not aliases
    "layout-sizes-only": ("pack", '{"stages": [{"kind": "concat", "sizes": [4]}]}',
                          "layout stage 0 has no 'groups' field"),
    "layout-bit-widths-only": ("pack", '{"stages": [{"kind": "bitstack", "bit_widths": [2, 2]}]}',
                               "layout stage 0 has no 'radices' field"),
}


@pytest.mark.parametrize("command,text,message", MALFORMED_INPUTS.values(),
                         ids=MALFORMED_INPUTS.keys())
def test_malformed_config_or_layout_exits_two(tmp_path, capsys, command, text, message):
    path, data = tmp_path / "input.json", tmp_path / "data.ndjson"
    path.write_text(text)
    write_lines(data, [[1, 2, 3, 4]])
    if command == "table":
        argv = ("table", "--name", "modp4", "--config", path, "--output-dir", tmp_path / "out")
    else:
        if command == "plan":
            layout = {"stages": [{"kind": "crt", "moduli": [3, 5], "plan_files": [path.name]}]}
            path = tmp_path / "layout.json"
            path.write_text(json.dumps(layout))
        verb = "unpack" if command == "unpack" else "pack"
        argv = (verb, "--layout", path, "--data", data, "--out", tmp_path / "o.ndjson")
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert "error:" in err and message in err and "Traceback" not in err


def test_unpack_config_ignores_table_keys(fig_files, tmp_path, monkeypatch):
    # "table" and "output_dir" are not config keys: an unpack config that
    # carries them neither fails on them nor creates the directory.
    layout_path, data_path, _ = fig_files
    packed_path = tmp_path / "packed.ndjson"
    assert run("pack", "--layout", layout_path, "--data", data_path, "--out", packed_path) == 0
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"sim": {"n": 32}, "table": "nope", "output_dir": "zzz"}))
    monkeypatch.chdir(tmp_path)
    assert run("unpack", "--layout", layout_path, "--data", packed_path,
               "--out", tmp_path / "o.ndjson", "--config", config) == 0
    assert not (tmp_path / "zzz").exists()


def test_pack_empty_data_file(fig_files, tmp_path):
    layout_path, _, _ = fig_files
    empty = tmp_path / "empty.ndjson"
    empty.write_text("")
    out = tmp_path / "out.ndjson"
    assert run("pack", "--layout", layout_path, "--data", empty, "--out", out) == 0
    assert out.read_text() == ""


@pytest.mark.parametrize("expected", ["two", "missing", None])
def test_unpack_empty_data_file(fig_files, tmp_path, capsys, expected):
    # An empty data file used to exit 0 before --expected was read.  Zero
    # packed vectors unpack to zero, which --expected is checked against.
    layout_path, data_path, _ = fig_files
    empty, out = tmp_path / "empty.ndjson", tmp_path / "out.ndjson"
    empty.write_text("")
    extra = {"two": ("--expected", data_path), "missing": ("--expected", tmp_path / "no.ndjson"),
             None: ()}[expected]
    write_lines(data_path, [[0, 1, 2, 3], [4, 5, 6, 7]])
    code = run("unpack", "--layout", layout_path, "--data", empty, "--out", out, *extra)
    captured = capsys.readouterr()
    if expected is None:
        assert code == 0 and out.read_text() == ""
        assert captured.out == "unpacked 0 vectors\n"
    else:
        message = ("--expected holds 2 vectors, the layout unpacks 0" if expected == "two"
                   else "No such file or directory")
        assert code == 2 and message in captured.err and not out.exists()


def test_unpack_counts_the_vectors_after_each_stage():
    # counts[k] is the vector count after the first k packing stages, the
    # counts the combine table reports, read off the fold of unpacked lengths.
    rng = np.random.default_rng(6)
    radices = (4, 4)
    bitstack = BitStackLayout(radices, tuple(fit_modp(p, B, 90, 100.0)
                                             for p, B in bitstack_plan_specs(radices)))
    cases = [(cli.combine2_layout(4096), [rng.integers(0, 4, cli.COMBINE_LEN) for _ in range(12)],
              4096),
             ((ConcatStage(((4, 4),)), bitstack), [rng.integers(0, 4, 4) for _ in range(8)], 16)]
    for layout, data, n in cases:
        _, res = cli._unpack(cli.RunConfig(sim=SimParams(n=n)), pipeline_pack(data, layout),
                             layout, data)
        want = [len(pipeline_pack(data, layout[:k])) for k in range(len(layout) + 1)]
        assert res["counts"] == want
        assert max(res["max_errors"]) <= 1e-4


def test_pack_out_of_range_element_names_index(fig_files, tmp_path, capsys):
    layout_path, data_path, data = fig_files
    bad = [list(v) for v in data]
    bad[0][1] = 9  # vector 0 feeds the modulus-9 layer, which only admits 0..8
    bad_path = tmp_path / "bad.ndjson"
    write_lines(bad_path, bad)
    assert run("pack", "--layout", layout_path, "--data", bad_path,
               "--out", tmp_path / "o.ndjson") == 2
    err = capsys.readouterr().err
    assert "out of range" in err and "element" in err


@pytest.mark.parametrize("data,code,message", [
    ([[1.5, 2.7, 0, 1], [4.9, 0, 3, 2]], 2, "layer 0 element 0 out of range: 1.5"),
    ([[1, float("nan"), 0, 1], [4, 0, 3, 2]], 2, "layer 0 element 1 out of range: nan"),
    ([[1.0, 2.0, 0, 1], [4.0, 0, 3, 2]], 0, "packed 2 vectors into 1"),
], ids=["fraction", "nan", "integral"])
def test_pack_rejects_non_integer_stacked_values(tmp_path, capsys, data, code, message):
    # A fraction or a NaN used to truncate silently into the packing of other values.
    layout_path, data_path, out = tmp_path / "l.json", tmp_path / "d.ndjson", tmp_path / "o.ndjson"
    layout_path.write_text(json.dumps({"stages": [{"kind": "crt", "moduli": [3, 5]}]}))
    write_lines(data_path, data)
    assert run("pack", "--layout", layout_path, "--data", data_path, "--out", out) == code
    captured = capsys.readouterr()
    assert message in (captured.err if code else captured.out)
    if code:
        assert not out.exists()
    else:
        assert json.loads(out.read_text()) == [4.0, 5.0, 3.0, 7.0]


@pytest.mark.parametrize("rows,code,message", [
    ([[[1, 0], [2, 0]], [1, 2]], 0, "packed 2 vectors into 1"),
    ([[[1, 0.5], [2, 0]], [1, 2]], 2, "layer 0 element 0 out of range: (1+0.5j) is not an integer"),
    ([[[1, 2], [2, 0]], [1, 2]], 2, "layer 0 element 0 out of range: (1+2j) is not an integer"),
    ([[[1, 2], 3]], 2, "d.ndjson:1: setting an array element with a sequence"),
    ([[1, 2], [[1, 2, 3]]], 2, "d.ndjson:2: not an array of numbers or of [re, im] pairs"),
], ids=["complex-real-valued", "complex-half-imaginary", "complex-whole-imaginary",
        "ragged-row", "triple-row"])
def test_pack_reads_data_rows(tmp_path, capsys, rows, code, message):
    # A complex row with zero imaginary parts packs without a ComplexWarning;
    # a malformed row is a usage error naming its line, not a traceback.
    layout_path, data_path, out = tmp_path / "l.json", tmp_path / "d.ndjson", tmp_path / "o.ndjson"
    layout_path.write_text(json.dumps({"stages": [{"kind": "crt", "moduli": [3, 5]}]}))
    write_lines(data_path, rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("pack", "--layout", layout_path, "--data", data_path, "--out", out) == code
    captured = capsys.readouterr()
    assert message in (captured.err if code else captured.out)
    if not code:
        assert json.loads(out.read_text()) == [1.0, 2.0]


@pytest.mark.parametrize("entry", [{"kind": "concat", "groups": [[2, 2]]},
                                   {"kind": "imgpair", "n1": 2, "n2": 2}])
def test_pack_ignores_plan_files_of_stages_without_plans(tmp_path, entry):
    # concat and imgpair fit no plans, so they do not open the files an entry names
    layout_path, data_path, out = tmp_path / "l.json", tmp_path / "d.ndjson", tmp_path / "o.ndjson"
    layout_path.write_text(json.dumps({"stages": [{**entry, "plan_files": ["nope.json"]}]}))
    write_lines(data_path, [[1, 2], [3, 4]])
    assert run("pack", "--layout", layout_path, "--data", data_path, "--out", out) == 0


def test_unpack_scores_equal_the_table_runners(tmp_path, capsys):
    # `unpack --expected` and the table runners score through one helper.
    stage, data = _crt35_stage()
    expected = tmp_path / "expected.ndjson"
    write_lines(expected, data)
    code, _ = _lone_stage_round_trip(tmp_path, stage, data, "--expected", expected)
    assert code == 0
    res = cli._run_layout(cli.RunConfig(sim=SimParams(n=1024)), [np.array(v) for v in data],
                          (stage,))
    lines = [f"  vector {i}: max={worst:.6e} mean={mean:.6e} level={level}"
             for i, (worst, mean, level)
             in enumerate(zip(res["max_errors"], res["errors"], res["levels"]))]
    assert [line for line in capsys.readouterr().out.splitlines()
            if line.startswith("  vector")] == lines


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_table_modp5_within_bounds(tmp_path):
    assert run("table", "--name", "modp5", "--output-dir", tmp_path) == 0
    rows = read_csv(tmp_path / "modp5.csv")
    assert [int(r["degree"]) for r in rows] == [35, 40, 45, 50]
    for row, bound in zip(rows, (1e-4, 1e-6, 1e-6, 1e-6)):
        assert float(row["mean_abs_error"]) <= bound
        assert row["status"] == "pass"
        assert row["bound"]  # every checked cell carries its bound
    assert (tmp_path / "modp5.md").exists()


def _table_bytes(out_dir):
    """{file name: bytes} of every file in a table output directory."""
    return {path.name: path.read_bytes() for path in out_dir.iterdir()}


def _differing(dir_a, dir_b):
    """The names of the files that only one of two directories holds, or that differ in bytes."""
    a, b = _table_bytes(dir_a), _table_bytes(dir_b)
    return sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))


NOISY_TABLES = ("crtstack", "combine", "depth")  # the tables within their bounds at sigma=1e-9


def test_table_bytes_repeat_cold_warm_noise_on_and_at_the_share_batch(tmp_path):
    # Each table run in its own process, as `modpack table` runs, and every
    # table run twice in this process, where the fit memo and the compiled
    # programs carry over from table to table and from pass to pass, write the
    # same bytes.  So do the noise-on tables, whose noise is drawn in
    # evaluation order from one seed, across processes.  Runs are compared
    # with each other and no digest is pinned: across BLAS thread counts the
    # fitter's sums may split differently and move the last digits.
    package_root = str(Path(modpack.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    noisy = tmp_path / "noisy.json"
    noisy.write_text(json.dumps({"sim": {"noise_stddev": 1e-9, "seed": 1}}))
    cold, warm1, warm2 = tmp_path / "cold", tmp_path / "warm1", tmp_path / "warm2"
    noisy_cold, noisy_warm = tmp_path / "noisy-cold", tmp_path / "noisy-warm"

    def in_own_process(name, out_dir, *extra):
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "modpack.cli", "table",
                               "--name", name, "--output-dir", str(out_dir), *map(str, extra)],
                              cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr

    for name in cli.TABLES:
        in_own_process(name, cold)
    for out_dir in (warm1, warm2):
        for name in cli.TABLES:
            assert run("table", "--name", name, "--output-dir", out_dir) == 0, name
    for name in NOISY_TABLES:
        in_own_process(name, noisy_cold, "--config", noisy)
        assert run("table", "--name", name, "--config", noisy, "--output-dir", noisy_warm) == 0
    assert run("table", "--name", "shares", "--n", cli.SHARE_BATCH,
               "--output-dir", tmp_path / "batch") == 0

    assert sorted(_table_bytes(cold)) == sorted(f"{name}.{ext}" for name in cli.TABLES
                                                for ext in ("csv", "md"))
    assert _differing(cold, warm1) == [], "separate processes and a warm pass differ"
    assert _differing(warm1, warm2) == [], "a warm pass and its repeat differ"
    assert _differing(noisy_cold, noisy_warm) == [], "noise-on tables differ between processes"
    # the config reached the noise-on runs: their errors are not the noise-off ones
    assert (noisy_cold / "crtstack.csv").read_bytes() != (cold / "crtstack.csv").read_bytes()
    # each conversion runs on min(SHARE_BATCH, n) slots, so n above the batch moves no cell
    assert ((tmp_path / "batch" / "shares.csv").read_bytes()
            == (cold / "shares.csv").read_bytes()), "shares at the batch size differ from n=2^15"


def test_table_depth_small_n(tmp_path):
    assert run("table", "--name", "depth", "--n", 256, "--output-dir", tmp_path) == 0
    rows = read_csv(tmp_path / "depth.csv")
    assert [r["bitstack90"] for r in rows] == ["16", "7", "7"]
    assert [r["bitstack210"] for r in rows] == ["15", "5", "5"]
    assert [r["crtstack"] for r in rows] == ["15", "15", "15"]


@pytest.mark.parametrize("sigma", [0.0, 1e-9])
@pytest.mark.parametrize("runner", [lambda cfg: cli.run_bitstack(cfg, 90),
                                    lambda cfg: cli.run_bitstack(cfg, 210), cli.run_crtstack],
                         ids=["bitstack90", "bitstack210", "crtstack"])
def test_one_slot_runs_spend_the_levels_and_ops_of_many_slot_runs(runner, sigma):
    # The depth table reads its ledger off one-slot runs: a run's levels and
    # op counts come from its plans' schedules alone, not from its slots.
    one, many = (runner(cli.RunConfig(sim=SimParams(n=n, noise_stddev=sigma)))
                 for n in (1, 256))
    assert one["levels"] == many["levels"]
    assert vars(one["stats"]) == vars(many["stats"])


def test_share_conversions_run_at_their_batch_whatever_n(monkeypatch):
    # A conversion is slot-wise, so with the noise off a 2^15-slot config
    # gives the results of a SHARE_BATCH-slot one, on batch-sized ciphertexts.
    sizes, convert = [], cli.roundshare.shares_to_ct_tree

    def recorded(*args):  # a direct conversion is a one-node tree
        out = convert(*args)
        sizes.append(out.slots.size)
        return out
    monkeypatch.setattr(cli.roundshare, "shares_to_ct_tree", recorded)
    runs = {n: [cli.run_shares(cli.RunConfig(sim=SimParams(n=n)), parties, split)
                for parties, split in ((3, None), (8, None), (8, 4))]
            for n in (2 ** 15, cli.SHARE_BATCH)}
    for big, batch in zip(runs[2 ** 15], runs[cli.SHARE_BATCH]):
        for key in ("error", "level", "degree", "decoded_ok"):
            assert big[key] == batch[key], key
        assert vars(big["stats"]) == vars(batch["stats"])
    assert sizes == [cli.SHARE_BATCH] * 6


@pytest.mark.parametrize("n", [2 ** 15, 1024])
def test_shares_table_makes_one_batch_sized_params_per_conversion(n, monkeypatch):
    # perfbench gathers one OpStats per runner through the module global.
    seen = []
    fresh = cli._fresh_params

    def recorded(cfg):
        seen.append(cfg.sim.n)
        return fresh(cfg)
    monkeypatch.setattr(cli, "_fresh_params", recorded)
    cli.TABLES["shares"](cli.RunConfig(sim=SimParams(n=n)))
    assert seen == [min(cli.SHARE_BATCH, n)] * 7


TIGHT_MODP = {D: 1e-30 for D in cli.MODP_DEGREES}

# table, BOUNDS entries tightened past any result, --n, cells that must fail
VIOLATION_CASES = [
    ("modp4", {"modp4_mean": TIGHT_MODP}, None, ["mean_abs_error"]),
    ("modp5", {"modp5_mean": TIGHT_MODP}, None, ["mean_abs_error"]),
    ("floor", {"floor_mean": 1e-30}, None, ["mean_abs_error"]),
    ("bitstack", {"bitstack90_mean": (1e-30,) * 3, "bitstack210_levels": (0, 0, 0)}, 256,
     ["mean_abs_error", "remaining_level"]),
    ("crtstack", {"crtstack_mean": 1e-30, "crtstack_level_min": 99}, 256,
     ["mean_abs_error", "remaining_level"]),
    # combine needs n >= 2^15 to hold its (6, 2, 1) ciphertext counts
    ("combine", {"combine2_max_err": 1e-30, "combine2_level_min": 99}, 2 ** 15,
     ["max_abs_error", "remaining_level"]),
    ("shares", {"shares_mean": 1e-30}, 1024, ["mean_abs_error"]),
    ("depth", {"crtstack_levels": (0, 0, 0)}, 256, ["crtstack"]),
]


@pytest.mark.parametrize("name, tight, n, cells", VIOLATION_CASES,
                         ids=[case[0] for case in VIOLATION_CASES])
def test_table_bound_violation_exits_one(name, tight, n, cells, tmp_path, monkeypatch, capsys):
    for key, value in tight.items():
        monkeypatch.setitem(cli.BOUNDS, key, value)
    size = ["--n", n] if n else []
    assert run("table", "--name", name, *size, "--output-dir", tmp_path) == 1
    lines = [line for line in capsys.readouterr().err.splitlines()
             if line.startswith(f"BOUND VIOLATION: {name} ")]
    for cell in cells:
        assert any(f": {cell} " in line and "outside bound" in line for line in lines), cell
    assert "FAIL" in {row["status"] for row in read_csv(tmp_path / f"{name}.csv")}


def test_table_shares_small(tmp_path, monkeypatch):
    # trim the batch for speed; bounds still checked
    monkeypatch.setattr(cli, "SHARE_BATCH", 256)
    assert run("table", "--name", "shares", "--n", 1024, "--output-dir", tmp_path) == 0
    rows = read_csv(tmp_path / "shares.csv")
    assert [r["parties"] for r in rows] == ["3", "4", "5", "6", "7", "8", "8*"]
    assert [int(r["degree"]) for r in rows][:6] == [96, 128, 160, 192, 224, 256]


@pytest.mark.parametrize("name, n, count", [("crtstack", 256, 644), ("combine", 2 ** 15, 1386)])
def test_table_mult_count_shares_one_basis_per_crt_unpack(name, n, count):
    # A CRT unpack's three D=210 plans share one domain map and one power
    # basis: 644 multiplications per unpack, where a basis per plan made 672.
    rows, _ = cli.TABLES[name](cli.RunConfig(sim=SimParams(n=n)))
    assert {row["mult_count"] for row in rows} == {count}


@pytest.mark.parametrize("name, n", [("bitstack", 256), ("crtstack", 256), ("combine", 2048),
                                     ("shares", 256)])
def test_table_functions_print_nothing(name, n, capsys):
    # the runners used to time themselves and print 12 wall-clock lines per pass
    cli.TABLES[name](cli.RunConfig(sim=SimParams(n=n)))
    assert capsys.readouterr().out == ""


def test_table_prints_one_timing_line(tmp_path, capsys):
    assert run("table", "--name", "bitstack", "--n", 256, "--output-dir", tmp_path) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if "wall_clock_s=" in line]
    assert len(lines) == 1 and lines[0].startswith("# table bitstack: wall_clock_s=")
    assert lines[0].endswith(" (informational, never asserted)")


def test_selftest_passes(capsys):
    assert run("selftest") == 0
    assert "all checks passed" in capsys.readouterr().out


# the cli name a failing selftest check calls, its stand-in, the failure it reports
SELFTEST_FAILURES = [
    ("cheb_T", lambda n, x: 0.0, "chebyshev recurrence vs trig form"),
    # the first random degree fails and ends the sweep
    ("clenshaw", lambda coeffs, x: np.zeros_like(x),
     f"paterson-stockmeyer vs clenshaw at degree {np.random.default_rng(0).integers(1, 200)}"),
    ("fit_modp", lambda *args: replace(fit_modp(*args), residual=1.0), "mod fit residual"),
    ("run_bitstack", lambda cfg, D: {"max_errors": [1.0]}, "bitstack round trip"),
]


@pytest.mark.parametrize("name,stand_in,failure", SELFTEST_FAILURES,
                         ids=[case[0] for case in SELFTEST_FAILURES])
def test_selftest_reports_a_failing_check(name, stand_in, failure, monkeypatch, capsys):
    monkeypatch.setattr(cli, name, stand_in)
    assert run("selftest") == 1
    captured = capsys.readouterr()
    assert captured.err == f"selftest FAIL: {failure}\n"
    assert "all checks passed" not in captured.out


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run("table", "--name", "nonsense")
    assert exc.value.code == 2


def test_table_requires_name(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run("table", "--output-dir", tmp_path)
    assert exc.value.code == 2


def test_missing_file_is_io_error(tmp_path, capsys):
    assert run("pack", "--layout", tmp_path / "nope.json",
               "--data", tmp_path / "nope.ndjson", "--out", tmp_path / "o") == 2


def test_plaintext_tables_evaluate_their_fits_in_one_clenshaw_each(monkeypatch):
    # modp4, modp5 and floor make one eval_clenshaw call each, and every cell
    # is bit for bit the value a per-plan call gives.
    calls = []
    per_series = cli.eval_clenshaw
    monkeypatch.setattr(cli, "eval_clenshaw", lambda s, x: calls.append(s) or per_series(s, x))
    cfg = cli.RunConfig(sim=SimParams(n=256))
    for name in ("modp4", "modp5", "floor"):
        cli.TABLES[name](cfg)
    assert len(calls) == 3
    xs = np.arange(cli.MODP_INTERVAL + 1, dtype=float)
    plan = lambda p, D: fit_modp(p, cli.MODP_INTERVAL, D, cli.fitting.default_delta(D))
    for p in (4, 5):
        want = {D: float(np.mean(np.abs(plan(p, D).delta * per_series(plan(p, D).series, xs)
                                        - np.mod(xs, p)))) for D in cli.MODP_DEGREES}
        assert cli.modp_mean_errors(p) == want
    want = {}
    for p in cli.FLOOR_MODULI:
        for D in cli.MODP_DEGREES:
            approx = xs / p - plan(p, D).delta / p * per_series(plan(p, D).series, xs)
            want[(p, D)] = float(np.mean(np.abs(approx - np.floor(xs / p))))
    assert cli.floor_mean_errors() == want
