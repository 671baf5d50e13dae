"""Command line interface.

Exit codes: 0 success, 1 property failure, 2 usage or parse error,
3 search stopped by node budget, 141 standard output closed by its reader
(128 + SIGPIPE, as a shell reports for ``git log | head``).
"""

import argparse
import functools
import json
import os
import re
import sys
import tempfile
from pathlib import Path

from .braid import to_braid_word
from .canonical import canonical_representative, identifier_text, solution_name
from .embedding import MAX_FILE_BYTES, MAX_PERIOD, GroundFileError, deserialize, serialize
from .geometry import TorusDims
from .paths import MAX_PATH_HEIGHT, count_lace_paths, format_path, generate_lace_paths
from .render import MAX_REPEATS, render_svg
from .search import SearchConfig, count_table, enumerate_grounds
from .validator import full_report, report_to_json, report_to_text

EXIT_OK = 0
EXIT_PROPERTY_FAIL = 1
EXIT_USAGE = 2
EXIT_INCOMPLETE = 3
EXIT_BROKEN_PIPE = 141

_LOOSE_HELP = ("require connectivity on the torus only; the planar lift may "
               "fall apart into separate strands")


def _shown(value: str) -> str:
    """``value`` quoted for an error message, cut after 20 characters."""
    if len(value) <= 20:
        return repr(value)
    return f"{value[:20]!r}... ({len(value)} characters)"


def _positive(value: str) -> int:
    try:
        n = int(value)
    except ValueError:  # not an integer, or more digits than int() reads
        raise argparse.ArgumentTypeError(f"expected an integer, got {_shown(value)}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {_shown(value)}")
    return n


def _at_most(limit: int):
    """A positive size of at most ``limit``, checked while parsing, so an
    oversized grid is refused before any path list or table is built."""
    def parse(value: str) -> int:
        n = _positive(value)
        if n > limit:
            raise argparse.ArgumentTypeError(f"must be <= {limit}, got {_shown(value)}")
        return n
    return parse


def _tiling(value: str) -> tuple[int, int]:
    """A tiling ROWSxCOLS of digits only, each side from 1 to
    ``MAX_REPEATS``, checked while parsing, so a bad tiling is refused
    before the ground file is read."""
    m = re.fullmatch(r"([0-9]+)x([0-9]+)", value, re.IGNORECASE)
    try:
        sides = (int(m[1]), int(m[2])) if m else ()
    except ValueError:  # more digits than int() reads
        sides = ()
    if not sides or not all(1 <= side <= MAX_REPEATS for side in sides):
        raise argparse.ArgumentTypeError(
            f"expected ROWSxCOLS of digits, e.g. 4x4, at most {MAX_REPEATS}x{MAX_REPEATS}, "
            f"got {_shown(value)}")
    return sides


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process. Its ``commands``
    maps each command's name to that command's own parser, the one the
    top-level parser hands the command's arguments to."""
    parser = argparse.ArgumentParser(
        prog="laceground",
        description="Enumerate and verify toroidal 2-in/2-out lace ground embeddings.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("paths", help="count or list lace paths of a given height")
    p.add_argument("--height", type=_at_most(MAX_PATH_HEIGHT), required=True)
    p.add_argument("--list", action="store_true", dest="list_paths")
    p.set_defaults(run=cmd_paths)

    p = sub.add_parser("enumerate", help="enumerate ground embeddings for one grid")
    p.add_argument("--rows", type=_at_most(MAX_PATH_HEIGHT), required=True)
    p.add_argument("--cols", type=_at_most(MAX_PERIOD), required=True)
    p.add_argument("--jobs", type=_positive, default=1)
    p.add_argument("--out", type=Path, default=None, help="directory for .gnd solution files")
    p.add_argument("--loose", action="store_true", help=_LOOSE_HELP)
    p.add_argument("--budget", type=_positive, default=None,
                   help="stop the run at this many nodes; a budgeted run walks in one process")
    p.set_defaults(run=cmd_enumerate)

    p = sub.add_parser("verify", help="check the fundamental properties of a ground file")
    p.add_argument("file", type=Path)
    p.add_argument("--strict", action="store_true")
    p.add_argument("--braid", action="store_true",
                   help="echo each annotated vertex's braid word")
    p.add_argument("--report", choices=("text", "json"), default="text")
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser("canon", help="print the canonical identifier of a ground file")
    p.add_argument("file", type=Path)
    p.set_defaults(run=cmd_canon)

    p = sub.add_parser("render", help="render a ground file as a tiled SVG diagram")
    p.add_argument("file", type=Path)
    p.add_argument("--repeats", type=_tiling, default="1x1",
                   help=f"tiling as ROWSxCOLS, e.g. 4x4, at most {MAX_REPEATS}x{MAX_REPEATS}")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--labels", action="store_true")
    p.set_defaults(run=cmd_render)

    p = sub.add_parser("counts", help="table of solution counts up to a grid bound")
    p.add_argument("--max-rows", type=_at_most(MAX_PATH_HEIGHT), required=True)
    p.add_argument("--max-cols", type=_at_most(MAX_PERIOD), required=True)
    p.add_argument("--jobs", type=_positive, default=1)
    p.add_argument("--loose", action="store_true", help=_LOOSE_HELP)
    p.add_argument("--budget", type=_positive, default=None,
                   help="stop each cell's run at this many nodes, walking in one process")
    p.add_argument("--format", choices=("pretty", "tsv"), default="pretty")
    p.set_defaults(run=cmd_counts)

    parser.commands = sub.choices
    return parser


def _load(path: Path):
    """The ground in a file of at most ``MAX_FILE_BYTES`` bytes, or None
    after an error message."""
    try:
        with path.open("rb") as f:
            # 64 KiB at a time: one read of up to the cap allocates the
            # whole cap, a cost every small file would pay
            data = f.read(1 << 16)
            while len(data) <= MAX_FILE_BYTES and (more := f.read(1 << 16)):
                data += more
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return None
    if len(data) > MAX_FILE_BYTES:
        print(f"error: {path}: file larger than {MAX_FILE_BYTES} bytes", file=sys.stderr)
        return None
    try:
        # one leading byte-order mark, as some editors save it, is skipped:
        # what decoding with utf-8-sig does, without its Python-level codec
        return deserialize(data.decode("utf-8").removeprefix("\ufeff"))
    except (UnicodeDecodeError, GroundFileError) as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
    return None


def _budget_required(rows: int, cols: int, budget) -> bool:
    return budget is None and rows >= 4 and cols >= 4


def cmd_paths(args) -> int:
    if not args.list_paths:
        print(count_lace_paths(args.height))
        return EXIT_OK
    paths = generate_lace_paths(args.height)
    print(len(paths))
    for path in paths:
        print(format_path(path))
    return EXIT_OK


def cmd_enumerate(args) -> int:
    if _budget_required(args.rows, args.cols, args.budget):
        print("error: grids of 4x4 and larger require --budget", file=sys.stderr)
        return EXIT_USAGE
    out_dir = args.out
    if out_dir is not None:
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            # a fresh unique name, so that no file of the user's is touched
            tempfile.NamedTemporaryFile(dir=out_dir).close()
        except OSError as exc:
            print(f"error: cannot write to {out_dir}: {exc}", file=sys.stderr)
            return EXIT_USAGE
    config = SearchConfig(
        TorusDims(args.rows, args.cols), jobs=args.jobs,
        strict_connectivity=not args.loose, node_budget=args.budget)
    result = enumerate_grounds(config)
    if out_dir is not None:
        # each solution is keyed by the identifier text of its representative
        for eid_text, emb in result.canonical_solutions:
            path = out_dir / f"{solution_name(eid_text)}.gnd"
            try:
                path.write_text(serialize(emb), encoding="utf-8")
            except OSError as exc:
                print(f"error: cannot write {path}: {exc}", file=sys.stderr)
                return EXIT_USAGE
    print(f"solutions={result.count} nodes={result.nodes_visited} "
          f"complete={str(result.complete).lower()}")
    return EXIT_OK if result.complete else EXIT_INCOMPLETE


def cmd_verify(args) -> int:
    emb = _load(args.file)
    if emb is None:
        return EXIT_USAGE
    report = full_report(emb)
    if args.report == "json":
        print(json.dumps(report_to_json(report), sort_keys=True))
    else:
        print(report_to_text(report), end="")
    if args.braid:
        for (r, c), actions in emb.zeta:
            word = to_braid_word(actions)
            print(f"braid ({r},{c}) {actions}: {word}")
    return EXIT_OK if report.all_pass(strict=args.strict) else EXIT_PROPERTY_FAIL


def cmd_canon(args) -> int:
    emb = _load(args.file)
    if emb is None:
        return EXIT_USAGE
    try:
        eid, rep = canonical_representative(emb)
    except ValueError as exc:  # two arcs share a slot
        print(f"error: {args.file}: {exc}", file=sys.stderr)
        return EXIT_PROPERTY_FAIL
    print(identifier_text(eid))
    # no two arcs share a slot, so equal arc sets are equal labels
    print(f"canonical: {'true' if rep.arcs == emb.arcs else 'false'}")
    return EXIT_OK


def cmd_render(args) -> int:
    emb = _load(args.file)
    if emb is None:
        return EXIT_USAGE
    svg = render_svg(emb, args.repeats, labels=args.labels)
    try:
        args.out.write_text(svg, encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def cmd_counts(args) -> int:
    if _budget_required(args.max_rows, args.max_cols, args.budget):
        print("error: bounds of 4x4 and larger require --budget", file=sys.stderr)
        return EXIT_USAGE
    table = count_table(args.max_rows, args.max_cols, jobs=args.jobs,
                        strict=not args.loose, node_budget=args.budget)
    rendered = [[f"{cell.count}" if cell.complete else f">={cell.count}*"
                 for cell in row] for row in table]
    if args.format == "tsv":
        print("rows\\cols\t" + "\t".join(str(m) for m in range(1, args.max_cols + 1)))
        for n, row in enumerate(rendered, start=1):
            print(f"{n}\t" + "\t".join(row))
    else:
        width = max(5, max(len(c) for row in rendered for c in row) + 1)
        header = "n\\m |" + "".join(f"{m:>{width}}" for m in range(1, args.max_cols + 1))
        print(header)
        print("-" * len(header))
        for n, row in enumerate(rendered, start=1):
            print(f"{n:>3} |" + "".join(f"{c:>{width}}" for c in row))
    incomplete = any(not cell.complete for row in table for cell in row)
    return EXIT_INCOMPLETE if incomplete else EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # a command's arguments go straight to its own parser, as the top-level
    # parser would hand them on, and are parsed once; any other argv is left
    # to the top-level parser, which prints help or a usage error for it
    command = parser.commands.get(argv[0]) if argv else None
    try:
        if command is None:
            args = parser.parse_args(argv)
        else:
            args, extras = command.parse_known_args(argv[1:])
            if extras:
                parser.error(f"unrecognized arguments: {' '.join(extras)}")
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.run(args)
    except BrokenPipeError:  # ``paths --list | head``: the final flush goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
