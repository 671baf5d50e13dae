import argparse
import filecmp
import json
import os
import re
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import laceground
from laceground.braid import to_braid_word
from laceground.canonical import (
    TRANSFORMS,
    canonical_id,
    identifier,
    solution_name,
    transform,
    translate,
)
from laceground.cli import build_parser, main
from laceground.embedding import MAX_FILE_BYTES, deserialize, serialize
from laceground.geometry import TorusDims
from laceground.render import render_svg
from laceground.search import SearchConfig, enumerate_grounds
from laceground.validator import full_report, report_to_json
from oracle import main_reference
from test_slot_table import _grounds

GOOD_1x1 = "ground v1\ndims 1 1\narc 0 0 -1 1\narc 0 0 1 0\n"
DRIFT_1x1 = "ground v1\ndims 1 1\narc 0 0 1 1\narc 0 0 -1 0\nzeta 0 0 CTpCT\n"
FLAT_CYCLE = "ground v1\ndims 1 2\narc 0 0 1 0\narc 0 1 -1 0\n"
BAD_ARC = "ground v1\ndims 1 1\narc 0 0 3 0\n"
CROSSED_1x1 = "ground v1\ndims 1 1\narc 0 0 -1 1\narc 0 0 1 1\n"
SLOT_CLASH = "ground v1\ndims 1 3\narc 0 2 1 0\narc 0 0 -1 0\n"
# two loops through the same south and north slots: 2-in/2-out and
# rotationally consecutive, but the arrivals share one slot
SHARED_SLOTS = "ground v1\ndims 1 1\narc 0 0 0 1\narc 0 0 0 2\n"
# two arcs out of the west slot, and the h_reflect image: two arcs out of
# the east slot
SHARED_WEST = "ground v1\ndims 1 1\narc 0 0 -2 0\narc 0 0 -1 0\n"
SHARED_EAST = "ground v1\ndims 1 1\narc 0 0 1 0\narc 0 0 2 0\n"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "corpus"


def _canonical_line(capsys, path, e):
    """What ``canon`` prints on its second line for ``e`` written to ``path``."""
    path.write_text(serialize(e))
    code, out, _ = run(capsys, "canon", str(path))
    assert code == 0
    return out.splitlines()[1]


def test_canonical_line_is_its_definition(tmp_path, capsys):
    """``canonical: true`` exactly when the ground's identifier is its
    canonical identifier: over the slot-table grounds without a shared
    slot, and over each corpus file under each transform (translated by an
    offset that changes from file to file)."""
    path = tmp_path / "g.gnd"
    grounds = [e for e in _grounds() if not e.slot_table.shared]
    for k, f in enumerate(sorted(CORPUS.rglob("*.gnd"))):
        e = deserialize(f.read_text())
        grounds.extend(translate(transform(e, name), k, k + 1) for name in TRANSFORMS)
    seen = set()
    for e in grounds:
        expected = identifier(e) == canonical_id(e)
        assert _canonical_line(capsys, path, e) == f"canonical: {str(expected).lower()}"
        seen.add(expected)
    assert seen == {True, False}


def test_paths_count(capsys):
    code, out, _ = run(capsys, "paths", "--height", "1")
    assert code == 0
    assert out.strip() == "3"


def test_the_module_runs_as_a_program():
    """``python -m laceground.cli`` runs ``main`` on its arguments and exits
    with its code."""
    src = str(Path(laceground.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-m", "laceground.cli", "paths", "--height", "1"],
                          env=env, capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, "3\n", "")


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

    # every path walk, the command line's and the engine's, runs _lace_paths,
    # which search imports by name
    def refuse(n, *args):
        raise AssertionError(f"walked the paths of height {n}")

    monkeypatch.setattr(paths, "_lace_paths", refuse)
    monkeypatch.setattr(search, "_lace_paths", refuse)
    built = tables_for.cache_info().currsize
    engines = search._engine.cache_info().currsize
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "must be <=" in err
    assert tables_for.cache_info().currsize == built
    assert search._engine.cache_info().currsize == engines


LONG = "1" * 5000  # past int()'s 4,300-digit limit
LONG_VALUES = [
    ("enumerate", "--rows", LONG, "--cols", "1"),
    ("enumerate", "--rows", "2", "--cols", "2", "--jobs", LONG),
    ("enumerate", "--rows", "2", "--cols", "2", "--budget", LONG),
    ("render", "/nonexistent.gnd", "--out", "/nonexistent.svg", "--repeats", f"{LONG}x1"),
]


@pytest.mark.parametrize("argv", LONG_VALUES, ids=["rows", "jobs", "budget", "repeats"])
def test_values_past_the_digit_limit_are_refused_in_short(argv, capsys):
    """A value int() cannot read gets the option's own message, which quotes
    only the start of the value."""
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "invalid" not in err
    assert "'11111111111111111111'... (500" in err
    assert len(err) < 1000


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
    assert out.strip() == "solutions=1 nodes=2 complete=true"
    files = sorted(out_dir.glob("*.gnd"))
    assert len(files) == 1
    # the emitted file verifies clean and is canonical
    code, out, _ = run(capsys, "verify", str(files[0]))
    assert code == 0
    code, out, _ = run(capsys, "canon", str(files[0]))
    assert code == 0
    assert out.splitlines()[1] == "canonical: true"


def test_enumerate_keeps_a_users_write_test_file(tmp_path, capsys):
    """The check that ``--out`` is writable leaves every file already in
    the directory as it was, whatever its name."""
    out_dir = tmp_path / "sols"
    out_dir.mkdir()
    (out_dir / ".write-test").write_text("keep me")
    code, _, _ = run(capsys, "enumerate", "--rows", "1", "--cols", "1",
                     "--out", str(out_dir))
    assert code == 0
    assert (out_dir / ".write-test").read_text() == "keep me"
    assert len(list(out_dir.iterdir())) == 2  # the file and one solution


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


def test_enumerate_jobs_byte_identical(tmp_path, capsys, pool_rents):
    """The same files and output whether the work items are walked in the
    calling process, all sent to a pool, or split between the two."""

    def enumerate_into(name, jobs):
        d = tmp_path / name
        code, out, _ = run(capsys, "enumerate", "--rows", "2", "--cols", "2",
                           "--jobs", jobs, "--out", str(d))
        assert code == 0
        return d, out

    a, serial_out = enumerate_into("j1", "1")
    names = sorted(p.name for p in a.glob("*.gnd"))
    for rent in pool_rents(TorusDims(2, 2)):
        b, out = enumerate_into(f"j2-rent{rent}", "2")
        assert out == serial_out
        assert names == sorted(p.name for p in b.glob("*.gnd"))
        match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
        assert mismatch == [] and errors == []


def test_readme_synopsis_matches_the_parser():
    """Per subcommand, the options README's command-line block shows are
    those the parser's help lists, leaving out --help."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    documented: dict[str, set[str]] = {}
    for line in block.strip().splitlines():
        if line.startswith("laceground "):
            command = documented.setdefault(line.split()[1], set())
        command.update(re.findall(r"--[a-z][a-z-]*", line))
    # a command's help gives each option's spellings on a line of their
    # own, two spaces in, with its help text at least two spaces after them
    parsed = {name: {opt for line in sub.format_help().splitlines()
                     if line.startswith("  -")
                     for opt in re.findall(r"--[a-z][a-z-]*", line.split("  ")[1])}
              - {"--help"}
              for name, sub in build_parser().commands.items()}
    assert documented == parsed


# argv shapes on which ``main`` must act as ``oracle.main_reference`` does;
# F stands for a ground file and O for an output path
DISPATCH = [
    (), ("-h",), ("--help",), ("--he",), ("bogus",),
    ("verify",), ("verify", "-h"), ("verify", "F", "-h"), ("-h", "verify"),
    ("verify", "F", "extra", "more"), ("verify", "F", "--report=json", "--stri"),
    ("verify", "--", "-h"), ("--", "paths", "--height", "1"),
    ("canon", "--", "F"), ("canon", "F", "--", "x"),
    ("render", "F", "--repeats", "4x4"), ("render", "F", "--out", "O", "--repeats", "0x1"),
    ("enumerate", "--rows", "1", "--cols", "1", "-x"), ("paths", "--height", "-1"),
    # README's synopsis, each line with every option, and its budget example
    ("paths", "--height", "3", "--list"),
    ("enumerate", "--rows", "2", "--cols", "3", "--jobs", "1", "--out", "O",
     "--loose", "--budget", "1000"),
    ("verify", "F", "--strict", "--braid", "--report", "json"),
    ("canon", "F"),
    ("render", "F", "--repeats", "2x3", "--out", "O", "--labels"),
    ("counts", "--max-rows", "2", "--max-cols", "3", "--jobs", "1", "--loose",
     "--budget", "1000", "--format", "tsv"),
    ("enumerate", "--rows", "3", "--cols", "3", "--budget", "20000", "--loose"),
]


def _run_with(capsys, entry, argv=None):
    """``run`` with ``entry`` in place of ``main``."""
    code = entry(argv)
    done = capsys.readouterr()
    return code, done.out, done.err


def _written(path):
    """The bytes at ``path``: a file's, a directory's files' by name, or
    None when nothing is there."""
    if path.is_dir():
        return {f.name: f.read_bytes() for f in sorted(path.iterdir())}
    return path.read_bytes() if path.exists() else None


@pytest.mark.parametrize("shape", DISPATCH, ids=[" ".join(a) or "(none)" for a in DISPATCH])
def test_dispatch_acts_as_the_two_parse_reference(shape, tmp_path, capsys):
    """Exit code, stdout, stderr and any file written are the reference's,
    which parses the whole argv with the top-level parser."""
    f, out = tmp_path / "g.gnd", tmp_path / "out"
    f.write_text(DRIFT_1x1)
    argv = [str(f) if a == "F" else str(out) if a == "O" else a for a in shape]
    runs = []
    for entry in (main, main_reference):
        runs.append((_run_with(capsys, entry, argv), _written(out)))
        if out.is_dir():
            shutil.rmtree(out)
        else:
            out.unlink(missing_ok=True)
    assert runs[0] == runs[1]


@pytest.mark.parametrize("shape, code", [((), 2), (("paths", "--height", "2"), 0),
                                         (("canon", "--", "F"), 0), (("verify", "F", "extra"), 2)],
                         ids=str)
def test_dispatch_reads_sys_argv_without_argv(shape, code, tmp_path, capsys, monkeypatch):
    """``main()`` parses ``sys.argv[1:]``, as the reference does."""
    f = tmp_path / "g.gnd"
    f.write_text(GOOD_1x1)
    monkeypatch.setattr(sys, "argv", ["laceground", *(str(f) if a == "F" else a for a in shape)])
    runs = [_run_with(capsys, entry) for entry in (main, main_reference)]
    assert runs[0] == runs[1]
    assert runs[0][0] == code


def test_a_command_is_parsed_once_by_its_own_parser(tmp_path, capsys, monkeypatch):
    """A command's call is parsed by that command's parser alone, once; the
    top-level parser never parses it, leftovers included."""
    f = tmp_path / "g.gnd"
    f.write_text(GOOD_1x1)
    top = build_parser()
    parsed = []
    for name in ("parse_args", "parse_known_args"):
        def spy(self, *args, _original=getattr(argparse.ArgumentParser, name), **kwargs):
            assert self is not top, "the top-level parser parsed a command's arguments"
            parsed.append(self.prog)
            return _original(self, *args, **kwargs)
        monkeypatch.setattr(argparse.ArgumentParser, name, spy)
    calls = [
        (0, "paths", "--height", "1"),
        (0, "enumerate", "--rows", "1", "--cols", "1"),
        (0, "verify", str(f)),
        (0, "canon", str(f)),
        (0, "render", str(f), "--out", str(tmp_path / "g.svg")),
        (0, "counts", "--max-rows", "1", "--max-cols", "1"),
        (2, "verify", str(f), "extra"),
        (2, "render", str(f)),
    ]
    for code, *argv in calls:
        parsed.clear()
        assert run(capsys, *argv)[0] == code
        assert parsed == [f"laceground {argv[0]}"]


def test_enumerate_budget_exit_code(capsys):
    code, out, _ = run(capsys, "enumerate", "--rows", "2", "--cols", "2",
                       "--budget", "5")
    assert code == 3
    assert "complete=false" in out


def test_readme_budget_example_is_current(capsys):
    """README quotes the classes and nodes its budget example prints, so a
    change to the walk order cannot leave the example stale."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    example = re.search(r"`(enumerate [^`]*--budget[^`]*)`\s+keeps\s+([\d,]+)\s+"
                        r"classes\s+at\s+([\d,]+)\s+nodes",
                        readme.read_text(encoding="utf-8"))
    assert example, "README has no budget example"
    command, classes, nodes = example.groups()
    code, out, _ = run(capsys, *command.split())
    assert code == 3
    assert out.strip() == (f"solutions={classes.replace(',', '')} "
                           f"nodes={nodes.replace(',', '')} complete=false")


def test_readme_library_example_runs():
    """README's Library block runs as written: 12 classes at 2x2, each one
    passing every check."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    assert namespace["result"].count == 12


def test_enumerate_requires_budget_on_big_grids(capsys):
    code, _, err = run(capsys, "enumerate", "--rows", "4", "--cols", "4")
    assert code == 2
    assert "--budget" in err


def test_counts_requires_budget_on_big_bounds(capsys):
    code, out, err = run(capsys, "counts", "--max-rows", "4", "--max-cols", "4")
    assert (code, out, err) == (2, "", "error: bounds of 4x4 and larger require --budget\n")


def test_enumerate_refuses_an_out_dir_it_cannot_make(tmp_path, capsys):
    """An ``--out`` below a regular file cannot be made: the run stops with
    the usage code before the search."""
    (tmp_path / "file").write_text("")
    out_dir = tmp_path / "file" / "sols"
    code, out, err = run(capsys, "enumerate", "--rows", "1", "--cols", "1",
                         "--out", str(out_dir))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write to {out_dir}: ")


def test_enumerate_reports_a_solution_it_cannot_write(tmp_path, capsys):
    """A directory in the place of a solution's file: the run stops with
    the usage code and names the file, as when ``--out`` cannot be made."""
    (eid_text, _), = enumerate_grounds(SearchConfig(TorusDims(1, 1))).canonical_solutions
    blocked = tmp_path / f"{solution_name(eid_text)}.gnd"
    blocked.mkdir()
    code, out, err = run(capsys, "enumerate", "--rows", "1", "--cols", "1",
                         "--out", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {blocked}: ")


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
    assert "embedded: fail (slot-conflict" in out
    assert "no_contractible_directed_cycle: blocked" in out


def test_verify_json_report(tmp_path, capsys):
    good = tmp_path / "good.gnd"
    good.write_text(GOOD_1x1)
    code, out, _ = run(capsys, "verify", str(good), "--report", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["version"] == 1
    assert doc["two_regular"]["status"] == "pass"
    assert doc["circuits"][0]["winding"] == [0, 1]


@pytest.mark.parametrize("text, code", [(GOOD_1x1, 0), (CROSSED_1x1, 1)],
                         ids=["pass", "crossed"])
def test_verify_json_report_is_one_line(text, code, tmp_path, capsys):
    """The report is one line with sorted keys, and any braid lines follow
    it."""
    f = tmp_path / "g.gnd"
    f.write_text(text)
    line = json.dumps(report_to_json(full_report(deserialize(text))), sort_keys=True) + "\n"
    assert run(capsys, "verify", str(f), "--report", "json") == (code, line, "")

    f.write_text(text + "zeta 0 0 CTpCT\n")
    braid = f"braid (0,0) CTpCT: {to_braid_word('CTpCT')}\n"
    assert run(capsys, "verify", str(f), "--report", "json", "--braid") == (
        code, line + braid, "")


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


@pytest.mark.parametrize("command", ["verify", "canon", "render"])
def test_a_leading_byte_order_mark_is_read_past(command, tmp_path, capsys):
    """A file that starts with a UTF-8 byte-order mark, as some editors save
    it, reads as the same ground: the same output and exit code; one that
    is not UTF-8 after the mark is still a parse error."""
    f, svg = tmp_path / "g.gnd", tmp_path / "out.svg"
    extra = ["--out", str(svg)] if command == "render" else []
    text = sorted(CORPUS.rglob("*.gnd"))[0].read_bytes()
    runs = []
    for prefix in (b"", b"\xef\xbb\xbf"):
        f.write_bytes(prefix + text)
        runs.append((run(capsys, command, str(f), *extra),
                     svg.read_bytes() if command == "render" else None))
    assert runs[0][0][0] == 0
    assert runs[1] == runs[0]
    f.write_bytes(b"\xef\xbb\xbfground v1\ndims 1 1\n\xff\xfe\n")
    code, out, err = run(capsys, command, str(f), *extra)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {f}: ")


@pytest.mark.parametrize("command", ["verify", "canon", "render"])
def test_a_file_past_the_read_cap_is_refused(command, tmp_path, capsys):
    """A ground file of ``MAX_FILE_BYTES`` bytes is read; one byte more is
    refused before it is parsed, and no more of the file is read."""
    f = tmp_path / "big.gnd"
    extra = ["--out", str(tmp_path / "out.svg")] if command == "render" else []
    comment = "#" * (MAX_FILE_BYTES - len(GOOD_1x1) - 1) + "\n"
    f.write_text(GOOD_1x1 + comment)
    assert f.stat().st_size == MAX_FILE_BYTES
    assert run(capsys, command, str(f), *extra)[0] == 0
    f.write_text(GOOD_1x1 + "#" + comment)
    assert run(capsys, command, str(f), *extra) == (
        2, "", f"error: {f}: file larger than {MAX_FILE_BYTES} bytes\n")


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


@pytest.mark.parametrize("text", [SHARED_WEST, SHARED_EAST])
def test_canon_refuses_a_shared_slot(text, tmp_path, capsys):
    f = tmp_path / "shared.gnd"
    f.write_text(text)
    code, out, err = run(capsys, "canon", str(f))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {f}: ") and "share slot" in err


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


def test_render_refuses_an_out_file_it_cannot_write(tmp_path, capsys):
    src = tmp_path / "g.gnd"
    src.write_text(GOOD_1x1)
    out = tmp_path / "missing" / "g.svg"
    code, stdout, err = run(capsys, "render", str(src), "--out", str(out))
    assert (code, stdout) == (2, "")
    assert err.startswith(f"error: cannot write {out}: ")
    assert not out.parent.exists()


@pytest.mark.parametrize("repeats", ["1_0x2", "+3x2", "4x4x4", "x4", " 4x4", "4x-4"])
def test_render_refuses_a_malformed_tiling_before_reading(repeats, tmp_path, capsys):
    """Only digits, an x and digits make a tiling: int()'s underscores,
    signs and spaces are refused while parsing, before the (here missing)
    ground file would be read."""
    out = tmp_path / "x.svg"
    code, _, err = run(capsys, "render", str(tmp_path / "missing.gnd"), "--repeats", repeats,
                       "--out", str(out))
    assert code == 2
    assert "at most 32x32" in err and "cannot read" not in err
    assert not out.exists()


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
