"""Spans around calls into cqsj's layers, installed from outside the package.

``Tracer.install`` replaces selected public functions of each layer module
(and every other module attribute or registry entry that refers to the same
function object) with a wrapper that records a span: name, layer, start,
end, parent span and command id.  Nothing in ``cqsj`` is edited; the
wrappers exist only in a traced worker process.  Spans are kept in memory
and written out when the pass ends.
"""

from __future__ import annotations

import functools
import pathlib
import time

LAYERS = ("cli", "qmodel", "structure", "engines", "reductions")

# Public functions wrapped per layer: those another layer calls, so that
# self time lands in the right layer, plus those a metric counts.  Per-value
# helpers (serialize_value, Database methods) are left out because one span
# per value would cost more than the work it times.
SPANNED = {
    "cli": ("main", "select_engine", "cmd_classify", "cmd_enumerate",
            "cmd_verify", "cmd_gadget"),
    "qmodel": ("parse_query", "parse_database", "serialize_answer",
               "serialize_database"),
    "structure": ("classify", "is_mirror", "is_untangleable", "images",
                  "endomorphisms", "canonical_key", "is_acyclic", "gyo_acyclic",
                  "validate_mirror_witness", "validate_untangling_witness"),
    "engines": ("enum_full_acyclic", "enum_mirror", "enum_untangle",
                "enum_bespoke", "oracle_cursor", "oracle_enumerate",
                "cheater_dedup"),
    "reductions": ("parse_graph", "gadget_triangle_mirrorfig1",
                   "gadget_triangle_spike_q1", "gadget_triangle_untangle2",
                   "gadget_utd_spike_q4"),
}

# Engine label of each cursor-building function (what `--stats` calls it).
ENGINE_OF = {"enum_full_acyclic": "acyclic", "enum_mirror": "mirror",
             "enum_untangle": "untangle", "oracle_cursor": "oracle"}


class Tracer:
    def __init__(self):
        # span: [id, parent, cmd, layer, name, start, end, engine]
        self.spans: list = []
        self.stack: list = []
        self.cmd = None
        self.engine = None  # engine the current command's cursor runs

    def begin_command(self, cmd_id: str) -> None:
        self.cmd = cmd_id
        self.engine = None

    def _open(self, layer: str, name: str, engine=None) -> list:
        span = [len(self.spans), self.stack[-1][0] if self.stack else None,
                self.cmd, layer, name, time.perf_counter(), None, engine]
        self.spans.append(span)
        self.stack.append(span)
        return span

    def _close(self, span: list) -> None:
        span[6] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, layer: str, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            engine = ENGINE_OF.get(name)
            if name == "enum_bespoke":
                engine = args[0] if args else kwargs["strategy"]
            span = tracer._open(layer, name, engine)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if name == "select_engine":
                tracer.engine = result[0].split(":")[-1]
            return result

        return wrapper

    def _wrap_next(self, fn):
        """Span per cursor step, labelled with the engine that produced it:
        the oracle inside `verify`, otherwise the command's selected engine."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(cursor):
            engine = tracer.engine
            for open_span in tracer.stack:
                if open_span[4] == "oracle_enumerate":
                    engine = "oracle"
            span = tracer._open("engines", "next", engine)
            try:
                return fn(cursor)
            finally:
                tracer._close(span)

        return wrapper

    def install(self) -> None:
        """Wrap SPANNED functions wherever the package refers to them."""
        import cqsj
        from cqsj import cli, engines, fixtures, qmodel, reductions, structure

        modules = {"cli": cli, "qmodel": qmodel, "structure": structure,
                   "engines": engines, "reductions": reductions}
        replaced = {}
        for layer, names in SPANNED.items():
            for name in names:
                fn = getattr(modules[layer], name)
                replaced[id(fn)] = self._wrap(layer, name, fn)
        for module in (cqsj, fixtures, *modules.values()):
            for attr, value in list(vars(module).items()):
                if id(value) in replaced and callable(value):
                    setattr(module, attr, replaced[id(value)])
        builders = reductions.GADGET_BUILDERS
        for kind, fn in list(builders.items()):
            builders[kind] = replaced.get(id(fn), fn)
        engines.EnumerationCursor.next = self._wrap_next(engines.EnumerationCursor.next)
        read_text = pathlib.Path.read_text

        def traced_read(path, *args, **kwargs):
            span = self._open("cli", "read_text")
            try:
                return read_text(path, *args, **kwargs)
            finally:
                self._close(span)

        pathlib.Path.read_text = traced_read


def summarize(spans: list) -> dict:
    """What the per-layer metrics need from one traced pass.

    ``self_ms``: per layer, span time not covered by child spans.
    ``calls``: [name, command, engine, nested, in_classify, count, total_ms]
    per distinct key, where ``nested`` marks a span whose parent has the same
    name (a cursor step inside a deduplicating step) and ``in_classify`` one
    with a ``classify`` span among its ancestors.
    ``step_us``: p50 and max duration of the outermost cursor steps.
    """
    child = [0.0] * len(spans)
    in_classify = [False] * len(spans)
    self_ms = {layer: 0.0 for layer in LAYERS}
    calls: dict = {}
    steps = []
    for sp in spans:  # parents precede their children
        dur = sp[6] - sp[5]
        parent = spans[sp[1]] if sp[1] is not None else None
        nested = False
        if parent is not None:
            child[parent[0]] += dur
            in_classify[sp[0]] = parent[4] == "classify" or in_classify[parent[0]]
            nested = parent[4] == sp[4]
        if sp[4] == "next" and not nested:
            steps.append(dur)
        entry = calls.setdefault((sp[4], sp[2], sp[7], nested, in_classify[sp[0]]), [0, 0.0])
        entry[0] += 1
        entry[1] += dur * 1e3
    for sp in spans:
        self_ms[sp[3]] += (sp[6] - sp[5] - child[sp[0]]) * 1e3
    steps.sort()
    return {"self_ms": self_ms,
            "calls": [[*key, n, total] for key, (n, total) in calls.items()],
            "step_us": [steps[len(steps) // 2] * 1e6, steps[-1] * 1e6] if steps else None}
