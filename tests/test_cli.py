import filecmp
import json
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from laceground.cli import main
from laceground.embedding import deserialize
from laceground.render import render_svg

GOOD_1x1 = "ground v1\ndims 1 1\narc 0 0 -1 1\narc 0 0 1 0\n"
DRIFT_1x1 = "ground v1\ndims 1 1\narc 0 0 1 1\narc 0 0 -1 0\nzeta 0 0 CTpCT\n"
FLAT_CYCLE = "ground v1\ndims 1 2\narc 0 0 1 0\narc 0 1 -1 0\n"
BAD_ARC = "ground v1\ndims 1 1\narc 0 0 3 0\n"
CROSSED_1x1 = "ground v1\ndims 1 1\narc 0 0 -1 1\narc 0 0 1 1\n"
SLOT_CLASH = "ground v1\ndims 1 3\narc 0 2 1 0\narc 0 0 -1 0\n"
# two loops through the same south and north slots: 2-in/2-out and
# rotationally consecutive, but the arrivals share one slot
SHARED_SLOTS = "ground v1\ndims 1 1\narc 0 0 0 1\narc 0 0 0 2\n"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_paths_count(capsys):
    code, out, _ = run(capsys, "paths", "--height", "1")
    assert code == 0
    assert out.strip() == "3"


def test_paths_list(capsys):
    code, out, _ = run(capsys, "paths", "--height", "2", "--list")
    lines = out.strip().splitlines()
    assert lines[0] == "39"
    assert len(lines) == 40
    assert sum(1 for line in lines[1:] if line.endswith(" skip")) == 1


def test_paths_bad_height(capsys):
    code, _, _ = run(capsys, "paths", "--height", "0")
    assert code == 2


OVERSIZED = [
    ("paths", "--height", "7"),
    ("enumerate", "--rows", "7", "--cols", "1"),
    ("enumerate", "--rows", "1", "--cols", "9"),
    ("enumerate", "--rows", "1", "--cols", "1000"),
    ("counts", "--max-rows", "7", "--max-cols", "1"),
    ("counts", "--max-rows", "1", "--max-cols", "9"),
]


@pytest.mark.parametrize("argv", OVERSIZED, ids=[" ".join(a) for a in OVERSIZED])
def test_oversized_grids_rejected_before_any_build(argv, capsys, monkeypatch):
    from laceground import paths, search
    from laceground.embedding import tables_for

    # every path walk, the command line's and the engine's, runs _sequences
    def refuse(n, *args):
        raise AssertionError(f"walked the paths of height {n}")

    monkeypatch.setattr(paths, "_sequences", refuse)
    built = tables_for.cache_info().currsize
    engines = dict(search._ENGINES)
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "must be <=" in err
    assert tables_for.cache_info().currsize == built
    assert search._ENGINES == engines


def test_largest_grids_still_parse():
    from laceground.cli import build_parser

    parser = build_parser()
    assert parser.parse_args(["paths", "--height", "6"]).height == 6
    args = parser.parse_args(["enumerate", "--rows", "6", "--cols", "8"])
    assert (args.rows, args.cols) == (6, 8)
    args = parser.parse_args(["counts", "--max-rows", "6", "--max-cols", "8"])
    assert (args.max_rows, args.max_cols) == (6, 8)


def test_enumerate_writes_solutions(tmp_path, capsys):
    out_dir = tmp_path / "sols"
    code, out, _ = run(capsys, "enumerate", "--rows", "1", "--cols", "1",
                       "--out", str(out_dir))
    assert code == 0
    assert out.strip() == "solutions=1 nodes=3 complete=true"
    files = sorted(out_dir.glob("*.gnd"))
    assert len(files) == 1
    # the emitted file verifies clean and is canonical
    code, out, _ = run(capsys, "verify", str(files[0]))
    assert code == 0
    code, out, _ = run(capsys, "canon", str(files[0]))
    assert code == 0
    assert out.splitlines()[1] == "canonical: true"


def test_enumerate_output_roundtrip_sweep(tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    code, _, _ = run(capsys, "enumerate", "--rows", "2", "--cols", "2",
                     "--loose", "--out", str(out_dir))
    assert code == 0
    files = sorted(out_dir.glob("*.gnd"))
    assert len(files) == 14
    for f in files:
        assert run(capsys, "verify", str(f))[0] == 0
        code, out, _ = run(capsys, "canon", str(f))
        assert out.splitlines()[1] == "canonical: true"


def test_enumerate_jobs_byte_identical(tmp_path, capsys):
    dirs = []
    for jobs in ("1", "2"):
        d = tmp_path / f"j{jobs}"
        code, out, _ = run(capsys, "enumerate", "--rows", "2", "--cols", "2",
                           "--jobs", jobs, "--out", str(d))
        assert code == 0
        dirs.append(d)
    a, b = dirs
    names = sorted(p.name for p in a.glob("*.gnd"))
    assert names == sorted(p.name for p in b.glob("*.gnd"))
    match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    assert mismatch == [] and errors == []


def test_enumerate_budget_exit_code(capsys):
    code, out, _ = run(capsys, "enumerate", "--rows", "2", "--cols", "2",
                       "--budget", "5")
    assert code == 3
    assert "complete=false" in out


def test_enumerate_requires_budget_on_big_grids(capsys):
    code, _, err = run(capsys, "enumerate", "--rows", "4", "--cols", "4")
    assert code == 2
    assert "--budget" in err


def test_verify_good_and_bad(tmp_path, capsys):
    good = tmp_path / "good.gnd"
    good.write_text(GOOD_1x1)
    code, out, _ = run(capsys, "verify", str(good))
    assert code == 0
    assert "conserved: pass" in out

    drift = tmp_path / "flat.gnd"
    drift.write_text(FLAT_CYCLE)
    code, out, _ = run(capsys, "verify", str(drift))
    assert code == 1
    assert "no_contractible_directed_cycle: fail" in out


def test_verify_json_report(tmp_path, capsys):
    good = tmp_path / "good.gnd"
    good.write_text(GOOD_1x1)
    code, out, _ = run(capsys, "verify", str(good), "--report", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["version"] == 1
    assert doc["two_regular"]["status"] == "pass"
    assert doc["circuits"][0]["winding"] == [0, 1]


def test_verify_rejects_crossing_arcs(tmp_path, capsys):
    f = tmp_path / "crossed.gnd"
    f.write_text(CROSSED_1x1)
    code, out, _ = run(capsys, "verify", str(f))
    assert code == 1
    assert "embedded: fail (crossing at vertex (0, 0) on arc (0, 0, 1, 1))" in out
    code, out, _ = run(capsys, "verify", str(f), "--report", "json")
    doc = json.loads(out)
    assert doc["embedded"] == {"status": "fail", "witness": [0, 0],
                               "detail": "crossing at vertex (0, 0) on arc (0, 0, 1, 1)"}
    assert doc["two_regular"]["status"] == "pass"


def test_verify_reports_slot_conflict(tmp_path, capsys):
    f = tmp_path / "clash.gnd"
    f.write_text(SLOT_CLASH)
    code, out, _ = run(capsys, "verify", str(f), "--report", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["embedded"]["status"] == "fail"
    assert "slot-conflict" in doc["embedded"]["detail"]


def test_verify_shared_slots_answers_without_circuits(tmp_path, capsys):
    f = tmp_path / "shared.gnd"
    f.write_text(SHARED_SLOTS)
    code, out, _ = run(capsys, "verify", str(f), "--report", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["embedded"]["status"] == "fail"
    assert doc["two_regular"]["status"] == "pass"
    # two arcs in one slot have no order around the vertex
    assert doc["rotationally_consecutive"] == {
        "status": "blocked", "witness": [0, 0],
        "detail": "requires an embedding without slot conflicts"}
    assert doc["conserved"] == {
        "status": "blocked", "witness": None,
        "detail": "requires 2-regularity and rotational consecutiveness"}
    assert doc["circuits"] == []


def test_verify_rejects_oversized_dims_before_tables(tmp_path, capsys):
    from laceground.embedding import tables_for

    f = tmp_path / "huge.gnd"
    f.write_text("ground v1\ndims 9 100000\narc 0 0 0 1\n")
    built = tables_for.cache_info().currsize
    code, _, err = run(capsys, "verify", str(f))
    assert code == 2
    assert "line 2" in err and "<= 8x8" in err
    assert tables_for.cache_info().currsize == built


def test_verify_braid_echo(tmp_path, capsys):
    f = tmp_path / "z.gnd"
    f.write_text(DRIFT_1x1)
    code, out, _ = run(capsys, "verify", str(f), "--braid")
    assert "braid (0,0) CTpCT: s1 s0^-1 s2^-1 [pin] s1 s0^-1 s2^-1" in out


def test_verify_parse_error(tmp_path, capsys):
    f = tmp_path / "bad.gnd"
    f.write_text(BAD_ARC)
    code, _, err = run(capsys, "verify", str(f))
    assert code == 2
    assert "line 3" in err


@pytest.mark.parametrize("command", ["verify", "canon", "render"])
def test_non_utf8_file_is_a_parse_error(command, tmp_path, capsys):
    f = tmp_path / "bad.gnd"
    f.write_bytes(b"ground v1\ndims 1 1\n\xff\xfe\n")
    extra = ["--out", str(tmp_path / "out.svg")] if command == "render" else []
    code, out, err = run(capsys, command, str(f), *extra)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {f}: ")
    assert "Traceback" not in err


def test_verify_missing_file(capsys):
    code, _, err = run(capsys, "verify", "/nonexistent/file.gnd")
    assert code == 2


def test_canon_orbit(tmp_path, capsys):
    a = tmp_path / "a.gnd"
    a.write_text(GOOD_1x1)
    b = tmp_path / "b.gnd"
    b.write_text(DRIFT_1x1)
    code, out_a, _ = run(capsys, "canon", str(a))
    code, out_b, _ = run(capsys, "canon", str(b))
    assert out_a.splitlines()[0] == out_b.splitlines()[0]
    flags = {out_a.splitlines()[1], out_b.splitlines()[1]}
    assert flags == {"canonical: true", "canonical: false"}


def test_render_tiling(tmp_path, capsys):
    src = tmp_path / "g.gnd"
    src.write_text(GOOD_1x1)
    out = tmp_path / "g.svg"
    code, _, _ = run(capsys, "render", str(src), "--repeats", "4x4",
                     "--out", str(out))
    assert code == 0
    root = ET.parse(out).getroot()          # well-formed XML
    assert root.tag.endswith("svg")
    arcs = [el for el in root.iter() if el.get("class") == "arc"]
    assert len(arcs) == 32                  # 2 arcs x 16 tiles


def test_render_fundamental_domain_only(tmp_path, capsys):
    src = tmp_path / "g.gnd"
    src.write_text(GOOD_1x1)
    out = tmp_path / "g1.svg"
    code, _, _ = run(capsys, "render", str(src), "--repeats", "1x1",
                     "--out", str(out), "--labels")
    assert code == 0
    root = ET.parse(out).getroot()
    arcs = [el for el in root.iter() if el.get("class") == "arc"]
    assert len(arcs) == 2


def test_render_bad_repeats(tmp_path, capsys):
    src = tmp_path / "g.gnd"
    src.write_text(GOOD_1x1)
    code, _, err = run(capsys, "render", str(src), "--repeats", "0x4",
                       "--out", str(tmp_path / "x.svg"))
    assert code == 2


def test_render_repeats_capped(tmp_path, capsys):
    src = tmp_path / "g.gnd"
    src.write_text(GOOD_1x1)
    out = tmp_path / "x.svg"
    for repeats in ("33x1", "1x33", "1000000x1000000"):
        code, _, err = run(capsys, "render", str(src), "--repeats", repeats,
                           "--out", str(out))
        assert code == 2
        assert "at most 32x32" in err
        assert not out.exists()
    with pytest.raises(ValueError):
        render_svg(deserialize(GOOD_1x1), (33, 1))
    code, _, _ = run(capsys, "render", str(src), "--repeats", "32x32",
                     "--out", str(out))
    assert code == 0
    arcs = [el for el in ET.parse(out).getroot().iter() if el.get("class") == "arc"]
    assert len(arcs) == 2 * 32 * 32


def test_counts_pretty_and_tsv(capsys):
    code, out, _ = run(capsys, "counts", "--max-rows", "2", "--max-cols", "2",
                       "--loose")
    assert code == 0
    assert "14" in out
    code, out, _ = run(capsys, "counts", "--max-rows", "2", "--max-cols", "2",
                       "--loose", "--format", "tsv")
    rows = [line.split("\t") for line in out.strip().splitlines()]
    assert rows[1][1:] == ["1", "3"]
    assert rows[2][1:] == ["4", "14"]


def test_strict_default_and_loose_flag(capsys):
    code, out, _ = run(capsys, "enumerate", "--rows", "2", "--cols", "2")
    assert code == 0
    assert out.startswith("solutions=12 ")
    code, out, _ = run(capsys, "enumerate", "--rows", "2", "--cols", "2", "--loose")
    assert out.startswith("solutions=14 ")
    code, out, _ = run(capsys, "counts", "--max-rows", "2", "--max-cols", "2",
                       "--format", "tsv")
    assert code == 0
    assert out.strip().splitlines()[2].split("\t")[1:] == ["4", "12"]


def test_counts_budget_marker(capsys):
    code, out, _ = run(capsys, "counts", "--max-rows", "2", "--max-cols", "2",
                       "--budget", "4", "--format", "tsv")
    assert code == 3
    assert "*" in out
