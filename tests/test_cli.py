import csv
import json

import numpy as np
import pytest

from modpack import cli
from modpack.fitting import fit_modp, load_plan, suggest_delta
from modpack.packing import ConcatStage, CrtBasis, ImgPairStage, PackLayout, save_layout


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
    assert plan.delta == suggest_delta(alpha, 0.5)


def test_fit_rejects_bad_degree(tmp_path, capsys):
    assert run("fit", "--p", 4, "--B", 29, "--D", 20, "--out", tmp_path / "x.json") == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# pack / unpack
# ---------------------------------------------------------------------------


def write_lines(path, vectors):
    path.write_text("\n".join(json.dumps(v) for v in vectors) + ("\n" if vectors else ""))


@pytest.fixture
def fig_files(tmp_path):
    plans = tuple(fit_modp(p, 89, 150) for p in (9, 10))
    layout = PackLayout((
        ConcatStage(groups=((4, 4), (4, 4), (4,), (4,))),
        CrtBasis((9, 10), plans),
        ImgPairStage(8, 4),
    ))
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
    # A "sizes" concat stage: without --expected, unpack trims each vector to
    # the length the stage resolves for it.
    plans = (fit_modp(3, 14, 30, 100.0), fit_modp(5, 14, 30, 100.0))
    layout_path = tmp_path / "layout.json"
    save_layout(PackLayout((ConcatStage(template=(4, 4)), CrtBasis((3, 5), plans))),
                layout_path)
    assert json.loads(layout_path.read_text())["stages"][0] == {"kind": "concat",
                                                                "sizes": [4, 4]}
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


def test_unpack_rejects_output_dir(tmp_path):
    # unpack writes only --out; an --output-dir it would ignore is a usage error
    with pytest.raises(SystemExit) as exc:
        run("unpack", "--layout", tmp_path / "layout.json", "--data", tmp_path / "data.ndjson",
            "--out", tmp_path / "o.ndjson", "--output-dir", tmp_path / "x")
    assert exc.value.code == 2


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


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_table_modp5_bounds_and_determinism(tmp_path, capsys):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run("table", "--name", "modp5", "--output-dir", out_a) == 0
    assert run("table", "--name", "modp5", "--output-dir", out_b) == 0
    csv_a = (out_a / "modp5.csv").read_bytes()
    assert csv_a == (out_b / "modp5.csv").read_bytes()
    rows = read_csv(out_a / "modp5.csv")
    assert [int(r["degree"]) for r in rows] == [35, 40, 45, 50]
    for row, bound in zip(rows, (1e-4, 1e-6, 1e-6, 1e-6)):
        assert float(row["mean_abs_error"]) <= bound
        assert row["status"] == "pass"
        assert row["bound"]  # every checked cell carries its bound
    assert (out_a / "modp5.md").exists()


def test_table_depth_small_n(tmp_path):
    assert run("table", "--name", "depth", "--n", 256, "--output-dir", tmp_path) == 0
    rows = read_csv(tmp_path / "depth.csv")
    assert [r["bitstack90"] for r in rows] == ["16", "7", "7"]
    assert [r["bitstack210"] for r in rows] == ["15", "5", "5"]
    assert [r["crtstack"] for r in rows] == ["15", "15", "15"]


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
    orig = cli.run_shares
    monkeypatch.setattr(cli, "run_shares",
                        lambda cfg, parties, batch=256, tree_split=None:
                        orig(cfg, parties, batch=256, tree_split=tree_split))
    assert run("table", "--name", "shares", "--n", 1024, "--output-dir", tmp_path) == 0
    rows = read_csv(tmp_path / "shares.csv")
    assert [r["parties"] for r in rows] == ["3", "4", "5", "6", "7", "8", "8*"]
    assert [int(r["degree"]) for r in rows][:6] == [96, 128, 160, 192, 224, 256]


def test_selftest_passes(capsys):
    assert run("selftest") == 0
    assert "all checks passed" in capsys.readouterr().out


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
