"""Spans around calls into the program's layers, recorded from outside it.

Each layer boundary is wrapped where its caller looks the name up (the
search finds `canonical_representative` in `laceground.search`, the CLI finds
`full_report` in `laceground.cli`), so nothing under `src/` changes. A name
that a later version of the program no longer looks up there is skipped and
its metrics read 0. Spans are aggregated in memory per name: calls, total
time and self time (total minus the time of the spans nested directly in it).
"""

import importlib
import time

# (module, name looked up there, span name)
BOUNDARIES = (
    ("laceground.cli", "enumerate_grounds", "search.enumerate"),
    ("laceground.search", "tables_for", "embedding.tables"),
    ("laceground.embedding", "arcs_cross", "geometry.arcs_cross"),
    ("laceground.search", "generate_lace_paths", "paths.generate"),
    ("laceground.search", "path_arcs", "embedding.path_arcs"),
    ("laceground.search", "windings_span_plane", "validator.winding"),
    ("laceground.search", "partition_circuits", "validator.circuits"),
    ("laceground.search", "canonical_representative", "canonical.representative"),
    ("laceground.cli", "canonical_representative", "canonical.representative"),
    ("laceground.cli", "serialize", "embedding.serialize"),
    ("laceground.cli", "deserialize", "embedding.deserialize"),
    ("laceground.cli", "full_report", "validator.report"),
    ("laceground.cli", "to_braid_word", "braid.word"),
    ("laceground.cli", "render_svg", "render.svg"),
    ("laceground.cli", "main", "cli.main"),
)


class Span:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Wraps the boundaries on `install` and restores them on `remove`.

    Results a metric needs (search nodes and classes, path and SVG sizes)
    are kept in `seen`.
    """

    def __init__(self):
        self.spans = {}
        self.seen = {"nodes": 0, "classes": 0, "paths": 0, "svg_bytes": 0}
        self._children = []     # child time of each open span, innermost last
        self._undo = []

    def install(self):
        for module_name, attr, name in BOUNDARIES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is not None:
                setattr(module, attr, self._wrap(fn, name))
                self._undo.append((module, attr, fn))

    def remove(self):
        while self._undo:
            module, attr, fn = self._undo.pop()
            setattr(module, attr, fn)

    def _wrap(self, fn, name):
        span = self.spans.setdefault(name, Span())
        children = self._children
        note = _NOTES.get(name)
        seen = self.seen

        def wrapper(*args, **kwargs):
            children.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                inner = children.pop()
                if children:
                    children[-1] += dt
                span.calls += 1
                span.total += dt
                span.self_time += dt - inner
            if note is not None:
                note(seen, result)
            return result

        return wrapper


def _note_search(seen, result):
    seen["nodes"] += result.nodes_visited
    seen["classes"] += result.count


def _note_paths(seen, result):
    seen["paths"] += len(result)


def _note_svg(seen, result):
    seen["svg_bytes"] += len(result.encode())


_NOTES = {"search.enumerate": _note_search, "paths.generate": _note_paths,
          "render.svg": _note_svg}


def layer_metrics(tracer):
    """Per-layer metrics from one traced operation or round."""
    s = tracer.spans.get
    empty = Span()

    def calls(name):
        return (s(name) or empty).calls

    def total(name):
        return (s(name) or empty).total

    search_s = total("search.enumerate")
    canon_calls = calls("canonical.representative")
    nodes, classes = tracer.seen["nodes"], tracer.seen["classes"]
    return {
        "paths.generate_s": total("paths.generate"),
        "paths.generated": tracer.seen["paths"],
        "geometry.cross_tests": calls("geometry.arcs_cross"),
        "embedding.tables_s": total("embedding.tables"),
        "embedding.path_arcs_s": total("embedding.path_arcs"),
        "embedding.path_arcs_calls": calls("embedding.path_arcs"),
        "embedding.write_s": total("embedding.serialize"),
        "embedding.parse_s": total("embedding.deserialize"),
        "search.enumerate_s": search_s,
        "search.self_s": (s("search.enumerate") or empty).self_time,
        "search.nodes": nodes,
        "search.nodes_per_s": nodes / search_s if search_s else 0.0,
        "search.leaves_checked": calls("validator.winding"),
        "canonical.calls": canon_calls,
        "canonical.s": total("canonical.representative"),
        "canonical.yield": classes / canon_calls if classes and canon_calls else 0.0,
        "validator.winding_calls": calls("validator.winding"),
        "validator.winding_s": total("validator.winding"),
        "validator.circuit_calls": calls("validator.circuits"),
        "validator.circuit_s": total("validator.circuits"),
        "validator.report_s": total("validator.report"),
        "braid.words": calls("braid.word"),
        "braid.s": total("braid.word"),
        "render.s": total("render.svg"),
        "render.svg_bytes": tracer.seen["svg_bytes"],
        "cli.calls": calls("cli.main"),
        "cli.self_s": (s("cli.main") or empty).self_time,
    }
