"""Regenerate the fixed corpus that the verify-corpus workload reads.

    python3 perfbench/make_corpus.py

Runs `laceground enumerate` for the 3x3, 2x4 and 5x1 grids (about a minute
in all, most of it 3x3), then annotates some vertices of each solution with a
zeta action string over C, T, L, R and p, so that `verify --braid` has words
to build. The annotations come from a fixed generator, so the corpus is the
same on every regeneration. The counts and the pairwise inequivalence of each
grid's solutions are checked with the benchmark's own code before anything is
written.
"""

import contextlib
import io
import random
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import lace  # noqa: E402

CORPUS = HERE / "corpus"
# (rows, cols) -> class count: 274 and 82 are published, 126 is the
# program's 2x4 count, kept because the corpus is what it enumerated
GRIDS = {(3, 3): 274, (2, 4): 126, (5, 1): 82}
ANNOTATION_SEED = 20140604


def annotate(g, rng):
    """About a third of the used vertices get an action string of 1 to 6."""
    zeta = [(v, "".join(rng.choice(lace.ACTIONS) for _ in range(rng.randint(1, 6))))
            for v in sorted(lace.used_vertices(g)) if rng.random() < 1 / 3]
    return lace.make(g.rows, g.cols, g.arcs, zeta)


def main():
    from laceground import cli

    rng = random.Random(ANNOTATION_SEED)
    for (rows, cols), expected in GRIDS.items():
        with tempfile.TemporaryDirectory(dir=HERE) as tmp, \
                contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["enumerate", "--rows", str(rows), "--cols", str(cols),
                           "--out", tmp])
            files = sorted(Path(tmp).glob("*.gnd"))
            grounds = [lace.parse(f.read_text()) for f in files]
        problems = lace.check_solution_set(grounds, expected, f"{rows}x{cols}")
        if rc != 0 or problems:
            sys.exit(f"enumerate {rows}x{cols} gave exit {rc}: {problems}")
        target = CORPUS / f"{rows}x{cols}"
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        for f, g in zip(files, grounds):
            (target / f.name).write_text(lace.format_ground(annotate(g, rng)))
        print(f"{target.relative_to(HERE.parent)}: {len(files)} files")


if __name__ == "__main__":
    main()
