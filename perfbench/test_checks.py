"""Each of the benchmark's checks accepts the program's right answer and
rejects a wrong one.

    python3 -m unittest perfbench/test_checks.py      (or: pytest perfbench)
"""

import argparse
import contextlib
import io
import random
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import gauge  # noqa: E402
import lace  # noqa: E402
import worker  # noqa: E402
from laceground import cli  # noqa: E402

CORPUS_3X3 = sorted((HERE / "corpus" / "3x3").glob("*.gnd"))
# the torchon ground: two diagonal arcs out of every vertex of a 1x1 torus
TORCHON = lace.make(1, 1, [(0, 0, -1, 1), (0, 0, 1, 1)])


def annotated_ground():
    """A corpus file that carries zeta annotations, with its path."""
    for path in CORPUS_3X3:
        g = lace.parse(path.read_text())
        if any("T" in actions for _, actions in g.zeta):
            return path, g
    raise AssertionError("no annotated corpus file")


def run_cli(argv):
    rc, out, _ = worker.call(cli, argv)
    return rc, out


class FakeCli:
    """Stands in for laceground.cli: answers from the real program, except
    where a test has planted a wrong answer."""

    def __init__(self, wrong=None):
        self.wrong = wrong or (lambda argv, rc, out: (rc, out))

    def main(self, argv):
        rc, out = run_cli(argv)
        rc, out = self.wrong(argv, rc, out)
        print(out, end="")
        return rc


class OrbitCodeTest(unittest.TestCase):
    def test_images_share_the_orbit_key(self):
        g = lace.parse(CORPUS_3X3[0].read_text())
        for elem in lace.group(g):
            img = lace.image(g, *elem)
            self.assertTrue(lace.two_in_two_out(img))
            self.assertEqual(lace.orbit_key(img), lace.orbit_key(g))

    def test_distinct_solutions_have_distinct_keys(self):
        grounds = [lace.parse(p.read_text()) for p in CORPUS_3X3[:20]]
        self.assertEqual(len({lace.orbit_key(g) for g in grounds}), 20)

    def test_parse_rejects_malformed_files(self):
        for text in ("dims 1 1\n", "ground v1\narc 0 0 1 1\n",
                     "ground v1\ndims 1 1\narc 0 0 3 1\n",
                     "ground v1\ndims 1 1\narc 0 0 1 1\narc 0 0 1 1\n"):
            with self.assertRaises(ValueError):
                lace.parse(text)
        self.assertEqual(lace.parse(lace.format_ground(TORCHON)), TORCHON)


class SolutionSetTest(unittest.TestCase):
    def setUp(self):
        self.grounds = [lace.parse(p.read_text()) for p in CORPUS_3X3[:10]]

    def test_accepts_distinct_regular_solutions(self):
        self.assertEqual(lace.check_solution_set(self.grounds, 10, "t"), [])

    def test_rejects_a_wrong_count(self):
        self.assertTrue(lace.check_solution_set(self.grounds, 11, "t"))

    def test_rejects_a_solution_that_is_not_two_in_two_out(self):
        broken = self.grounds[:9] + [lace.without_arc(self.grounds[9], 0)]
        self.assertTrue(lace.check_solution_set(broken, 10, "t"))

    def test_rejects_two_equivalent_solutions(self):
        twin = lace.image(self.grounds[0], "rot180", 1, 2)
        self.assertTrue(lace.check_solution_set(self.grounds[:9] + [twin], 10, "t"))


class VerifyOutputTest(unittest.TestCase):
    def setUp(self):
        self.path, self.g = annotated_ground()
        rc, self.out = run_cli(["verify", str(self.path), "--strict", "--braid",
                                "--report", "json"])
        self.assertEqual(rc, 0)

    def test_accepts_the_right_report_and_words(self):
        self.assertEqual(lace.check_verify(self.out, True, self.g), [])

    def test_rejects_a_failed_property_on_a_good_file(self):
        bad = self.out.replace('"pass"', '"fail"', 1)
        self.assertTrue(lace.check_verify(bad, True, self.g))

    def test_rejects_a_pass_on_a_negative(self):
        self.assertTrue(lace.check_verify(self.out, False, self.g))

    def test_rejects_a_report_that_is_not_json(self):
        self.assertTrue(lace.check_verify("two_regular: pass\n", True, self.g))

    def test_rejects_a_missing_braid_line(self):
        cut = self.out.rstrip("\n").rsplit("\n", 1)[0] + "\n"
        self.assertTrue(lace.check_verify(cut, True, self.g))

    def test_rejects_a_word_with_the_wrong_generator_count(self):
        lines = self.out.splitlines()
        k = next(i for i, ln in enumerate(lines) if ln.startswith("braid") and "T" in ln.split(":")[0])
        lines[k] = lines[k].replace("^-1 ", "^-1 s0^-1 ", 1)
        self.assertTrue(lace.check_verify("\n".join(lines) + "\n", True, self.g))

    def test_rejects_a_word_that_does_not_alternate(self):
        word = ["braid (0,0) CT: s0 s1^-1 s2^-1"]
        self.assertTrue(lace.check_braid(word, (((0, 0), "CT"),)))
        right = ["braid (0,0) CT: s1 s0^-1 s2^-1"]
        self.assertEqual(lace.check_braid(right, (((0, 0), "CT"),)), [])


class SvgTest(unittest.TestCase):
    def setUp(self):
        self.g = lace.parse(CORPUS_3X3[0].read_text())
        with tempfile.TemporaryDirectory() as tmp:
            svg = Path(tmp) / "out.svg"
            rc, _ = run_cli(["render", str(CORPUS_3X3[0]), "--repeats", "4x4",
                             "--out", str(svg)])
            self.assertEqual(rc, 0)
            self.svg = svg.read_text()

    def test_accepts_the_right_drawing(self):
        self.assertEqual(lace.check_svg(self.svg, self.g, (4, 4)), [])

    def test_rejects_a_wrong_tiling(self):
        self.assertTrue(lace.check_svg(self.svg, self.g, (4, 3)))

    def test_rejects_a_missing_arc(self):
        self.assertTrue(lace.check_svg(self.svg, lace.without_arc(self.g, 0), (4, 4)))

    def test_rejects_a_missing_dot(self):
        bad = self.svg.replace("<circle", "<ellipse", 1)
        self.assertTrue(lace.check_svg(bad, self.g, (4, 4)))

    def test_rejects_text_that_is_not_xml(self):
        self.assertTrue(lace.check_svg(self.svg[:-20], self.g, (4, 4)))


class DesignerPassTest(unittest.TestCase):
    """The whole pass, with one planted wrong answer at a time."""

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        out = Path(self.tmp.name)
        self.items = worker.solution_items(CORPUS_3X3[:2])
        g = self.items[0].ground
        rng = random.Random(7)
        path = out / "image.gnd"
        self.items.append(worker.Item(str(path), worker.write_image(g, rng, path), True, 0))
        neg = lace.without_arc(g, rng.randrange(len(g.arcs)))
        path = out / "negative.gnd"
        path.write_text(lace.format_ground(neg))
        self.items.append(worker.Item(str(path), neg, False))
        self.svg = worker.SvgPipe()

    def tearDown(self):
        self.svg.close()
        self.tmp.cleanup()

    def run_pass(self, wrong=None):
        calls = []
        with contextlib.redirect_stdout(io.StringIO()):
            result = worker.designer_pass(FakeCli(wrong), self.items, self.svg, calls,
                                           gauge.Gauge())
        self.assertEqual(len(calls), 3 * len(self.items))
        return result

    def test_right_answers_pass(self):
        self.assertEqual(self.run_pass(), (12, 0, []))

    def test_rejects_a_wrong_verdict(self):
        def wrong(argv, rc, out):
            return (0 if argv[0] == "verify" and rc == 1 else rc), out
        self.assertTrue(self.run_pass(wrong)[2])

    def test_rejects_an_image_with_another_identifier(self):
        image = self.items[2].path

        def wrong(argv, rc, out):
            if argv[:2] == ["canon", image]:
                out = out.replace(",", ";", 1)
            return rc, out
        self.assertTrue(self.run_pass(wrong)[2])

    def test_rejects_inequivalent_files_with_one_identifier(self):
        first = {}

        def wrong(argv, rc, out):
            if argv[0] == "canon":
                out = first.setdefault("out", out)
            return rc, out
        self.assertTrue(self.run_pass(wrong)[2])

    def test_rejects_a_wrong_drawing(self):
        def wrong(argv, rc, out):
            if argv[0] == "render":
                Path(argv[argv.index("--out") + 1]).write_text('<circle r="3"/>')
            return rc, out
        self.assertTrue(self.run_pass(wrong)[2])

    def test_counts_an_error_exit_as_failed(self):
        def wrong(argv, rc, out):
            return (2 if argv[0] == "render" else rc), out
        self.assertEqual(self.run_pass(wrong)[1], 4)


class FakeEnumerate:
    """Answers `enumerate --rows 5 --cols 1` with the stored 5x1 solutions,
    less `drop` files, with arc 0 of file `damage` removed, and printing
    `count` as the class count."""

    def __init__(self, count=82, drop=0, damage=None):
        self.count, self.drop, self.damage = count, drop, damage

    def main(self, argv):
        out = Path(argv[argv.index("--out") + 1])
        out.mkdir(parents=True)
        files = sorted((HERE / "corpus" / "5x1").glob("*.gnd"))
        for k, f in enumerate(files[self.drop:]):
            g = lace.parse(f.read_text())
            if k == self.damage:
                g = lace.without_arc(g, 0)
            (out / f.name).write_text(lace.format_ground(g))
        print(f"solutions={self.count} nodes=11013 complete=true")
        return 0


class EnumerationTest(unittest.TestCase):
    def run_task(self, fake):
        with tempfile.TemporaryDirectory() as tmp:
            args = argparse.Namespace(workload="enum-5x1-j2", trace="off", jobs=None,
                                      scratch=Path(tmp))
            result = {"problems": []}
            worker.enumerate_task(fake, args, result)
        return result

    def test_accepts_the_published_solutions(self):
        result = self.run_task(FakeEnumerate())
        self.assertEqual((result["failed"], result["problems"]), (0, []))

    def test_rejects_a_wrong_printed_count(self):
        self.assertTrue(self.run_task(FakeEnumerate(count=81))["problems"])

    def test_rejects_a_missing_solution(self):
        self.assertTrue(self.run_task(FakeEnumerate(drop=1))["problems"])

    def test_rejects_a_solution_that_is_not_two_in_two_out(self):
        self.assertTrue(self.run_task(FakeEnumerate(damage=5))["problems"])


class GaugeTest(unittest.TestCase):
    def test_scale_is_the_reference_over_the_median_sample(self):
        speed = gauge.Gauge()
        speed.samples.extend([0.001, 0.002, 0.010])
        self.assertAlmostEqual(speed.scale(), gauge.REFERENCE_S / 0.002)
        self.assertAlmostEqual(speed.scale(2), gauge.REFERENCE_S / 0.010)

    def test_a_sample_times_the_reference_chunk(self):
        speed = gauge.Gauge()
        speed.sample_for(0.05)
        self.assertGreater(len(speed.samples), 0)
        self.assertTrue(all(t > 0 for t in speed.samples))


if __name__ == "__main__":
    unittest.main()
