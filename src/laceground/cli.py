"""Command line interface.

Exit codes: 0 success, 1 property failure, 2 usage or parse error,
3 search stopped by node budget.
"""

import argparse
import functools
import json
import sys
from pathlib import Path

from .braid import to_braid_word
from .canonical import canonical_representative, identifier, identifier_text, solution_name
from .embedding import MAX_PERIOD, GroundFileError, deserialize, serialize
from .geometry import TorusDims
from .paths import MAX_PATH_HEIGHT, count_lace_paths, format_path, generate_lace_paths
from .render import MAX_REPEATS, render_svg
from .search import SearchConfig, count_table, enumerate_grounds
from .validator import full_report, report_to_json, report_to_text

EXIT_OK = 0
EXIT_PROPERTY_FAIL = 1
EXIT_USAGE = 2
EXIT_INCOMPLETE = 3

_LOOSE_HELP = ("require connectivity on the torus only; the planar lift may "
               "fall apart into separate strands")


def _positive(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _at_most(limit: int):
    """A positive size of at most ``limit``, checked while parsing, so an
    oversized grid is refused before any path list or table is built."""
    def parse(value: str) -> int:
        n = _positive(value)
        if n > limit:
            raise argparse.ArgumentTypeError(f"must be <= {limit}, got {n}")
        return n
    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="laceground",
        description="Enumerate and verify toroidal 2-in/2-out lace ground embeddings.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("paths", help="count or list lace paths of a given height")
    p.add_argument("--height", type=_at_most(MAX_PATH_HEIGHT), required=True)
    p.add_argument("--list", action="store_true", dest="list_paths")

    p = sub.add_parser("enumerate", help="enumerate ground embeddings for one grid")
    p.add_argument("--rows", type=_at_most(MAX_PATH_HEIGHT), required=True)
    p.add_argument("--cols", type=_at_most(MAX_PERIOD), required=True)
    p.add_argument("--jobs", type=_positive, default=1)
    p.add_argument("--out", type=Path, default=None, help="directory for .gnd solution files")
    p.add_argument("--no-prune", action="store_true")
    p.add_argument("--loose", action="store_true", help=_LOOSE_HELP)
    p.add_argument("--budget", type=_positive, default=None, help="node budget")

    p = sub.add_parser("verify", help="check the fundamental properties of a ground file")
    p.add_argument("file", type=Path)
    p.add_argument("--strict", action="store_true")
    p.add_argument("--braid", action="store_true",
                   help="echo each annotated vertex's braid word")
    p.add_argument("--report", choices=("text", "json"), default="text")

    p = sub.add_parser("canon", help="print the canonical identifier of a ground file")
    p.add_argument("file", type=Path)

    p = sub.add_parser("render", help="render a ground file as a tiled SVG diagram")
    p.add_argument("file", type=Path)
    p.add_argument("--repeats", default="1x1", help=f"tiling as ROWSxCOLS, e.g. 4x4, "
                   f"at most {MAX_REPEATS}x{MAX_REPEATS}")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--labels", action="store_true")

    p = sub.add_parser("counts", help="table of solution counts up to a grid bound")
    p.add_argument("--max-rows", type=_at_most(MAX_PATH_HEIGHT), required=True)
    p.add_argument("--max-cols", type=_at_most(MAX_PERIOD), required=True)
    p.add_argument("--jobs", type=_positive, default=1)
    p.add_argument("--no-prune", action="store_true")
    p.add_argument("--loose", action="store_true", help=_LOOSE_HELP)
    p.add_argument("--budget", type=_positive, default=None)
    p.add_argument("--format", choices=("pretty", "tsv"), default="pretty")

    return parser


def _load(path: Path):
    try:
        return deserialize(path.read_text(encoding="utf-8"))
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
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
            (out_dir / ".write-test").write_text("")
            (out_dir / ".write-test").unlink()
        except OSError as exc:
            print(f"error: cannot write to {out_dir}: {exc}", file=sys.stderr)
            return EXIT_USAGE
    config = SearchConfig(
        TorusDims(args.rows, args.cols), jobs=args.jobs,
        pruning=not args.no_prune, strict_connectivity=not args.loose,
        node_budget=args.budget)
    result = enumerate_grounds(config)
    if out_dir is not None:
        for eid_text, emb in result.canonical_solutions:
            name = solution_name(identifier(emb))
            (out_dir / f"{name}.gnd").write_text(serialize(emb), encoding="utf-8")
    print(f"solutions={result.count} nodes={result.nodes_visited} "
          f"complete={str(result.complete).lower()}")
    return EXIT_OK if result.complete else EXIT_INCOMPLETE


def cmd_verify(args) -> int:
    emb = _load(args.file)
    if emb is None:
        return EXIT_USAGE
    report = full_report(emb, strict=args.strict)
    if args.report == "json":
        print(json.dumps(report_to_json(report), indent=2, sort_keys=True))
    else:
        print(report_to_text(report), end="")
    if args.braid:
        for (r, c), actions in sorted(emb.zeta):
            word = to_braid_word(actions)
            print(f"braid ({r},{c}) {actions}: {word}")
    return EXIT_OK if report.all_pass(strict=args.strict) else EXIT_PROPERTY_FAIL


def cmd_canon(args) -> int:
    emb = _load(args.file)
    if emb is None:
        return EXIT_USAGE
    eid, _rep = canonical_representative(emb)
    print(identifier_text(eid))
    print(f"canonical: {'true' if identifier(emb) == eid else 'false'}")
    return EXIT_OK


def cmd_render(args) -> int:
    emb = _load(args.file)
    if emb is None:
        return EXIT_USAGE
    try:
        rep_r, rep_c = (int(part) for part in args.repeats.lower().split("x"))
        if not (1 <= rep_r <= MAX_REPEATS and 1 <= rep_c <= MAX_REPEATS):
            raise ValueError
    except ValueError:
        print(f"error: bad --repeats {args.repeats!r}; expected e.g. 4x4, "
              f"at most {MAX_REPEATS}x{MAX_REPEATS}", file=sys.stderr)
        return EXIT_USAGE
    svg = render_svg(emb, (rep_r, rep_c), labels=args.labels)
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
                        pruning=not args.no_prune, strict=not args.loose,
                        node_budget=args.budget)
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
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    handler = {
        "paths": cmd_paths,
        "enumerate": cmd_enumerate,
        "verify": cmd_verify,
        "canon": cmd_canon,
        "render": cmd_render,
        "counts": cmd_counts,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
