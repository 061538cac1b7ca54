"""Span tracer and the wrappers that attach it to the repro layers.

Nothing under ``src/`` knows about this module.  :func:`install` wraps
public functions and methods of each layer from the outside, so a
traced run measures the unmodified program.  Every wrapped call records
one span ``(name, start_ns, end_ns, parent)``; the name is the layer
(``archive.open``, ``verdict.fold``, ...).  Counters are bumped at the
same boundaries, so counts and times describe the same calls.

Spans stay in memory and are written out once, by :meth:`Tracer.dump`,
when the traced process ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

_now = time.perf_counter_ns


class Tracer:
    """In-memory spans plus exact counters for one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        #: One entry per span: [name id, start ns, end ns, parent index].
        self.spans: list[list[int]] = []
        self.counts: Counter[str] = Counter()
        #: Inclusive ns per layer, counting only the outermost span of a
        #: name (a layer that re-enters itself is not counted twice).
        self.inclusive_ns: Counter[str] = Counter()
        #: Span durations in ns per layer, for per-call statistics.
        self.durations: dict[str, list[int]] = {}
        self._depth: Counter[str] = Counter()
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        """Start a span; returns its index for :meth:`close`."""
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name_id, 0, 0, parent])
        self._stack.append(index)
        self._depth[name] += 1
        self.spans[index][1] = _now()
        return index

    def close(self, index: int) -> int:
        """End span ``index``; returns its duration in ns."""
        end = _now()
        span = self.spans[index]
        span[2] = end
        self._stack.pop()
        name = self.names[span[0]]
        self._depth[name] -= 1
        duration = end - span[1]
        if not self._depth[name]:
            self.inclusive_ns[name] += duration
            self.durations.setdefault(name, []).append(duration)
        return duration

    def outermost(self, name: str) -> bool:
        """True when no span of ``name`` is open (a fresh layer entry)."""
        return not self._depth[name]

    def top_level_ns(self) -> int:
        """Summed duration of spans without a parent.

        Spans nest strictly (one thread), so this equals the summed
        self time of every span: the wall clock some layer accounts for.
        """
        return sum(end - start for _n, start, end, parent in self.spans
                   if parent < 0)

    def summary(self) -> dict:
        """Counters, per-layer times and the attributed total."""
        return {
            "counts": dict(self.counts),
            "inclusive_ns": dict(self.inclusive_ns),
            "durations_ns": self.durations,
            "top_level_ns": self.top_level_ns(),
        }

    def dump(self, path: str) -> None:
        """Write the spans and the summary as one JSON document."""
        with open(path, "w") as handle:
            json.dump(
                {"names": self.names, "spans": self.spans,
                 **self.summary()},
                handle,
                separators=(",", ":"),
            )


# -- wrappers ------------------------------------------------------------------


def _wrap_call(tracer: Tracer, name, function, on_result=None, counter=None):
    """Wrap ``function`` in a span; ``name`` may be a callable of args."""

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        span_name = name(args) if callable(name) else name
        if counter is not None and tracer.outermost(span_name):
            tracer.counts[counter] += 1
        index = tracer.open(span_name)
        try:
            result = function(*args, **kwargs)
        finally:
            tracer.close(index)
        if on_result is not None:
            on_result(tracer, result)
        return result

    return wrapper


def _wrap_iter(tracer: Tracer, name, function, on_item, counter):
    """Wrap an iterator factory: one span per item produced.

    A span around the whole iteration would also cover the consumer's
    work between items, so each ``next`` gets its own span instead.
    """

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        tracer.counts[counter] += 1
        iterator = iter(function(*args, **kwargs))
        try:
            while True:
                index = tracer.open(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    tracer.close(index)
                on_item(tracer, item)
                yield item
        finally:
            close = getattr(iterator, "close", None)
            if close is not None:
                close()

    return wrapper


def _count(key: str, measure):
    def on_result(tracer: Tracer, result) -> None:
        tracer.counts[key] += measure(result)

    return on_result


def route_class(args) -> str:
    """``serve.handle.<route>`` for a ``ServeApp.handle(method, target)``."""
    path = args[2].partition("?")[0]
    for prefix, route in (
        ("/v1/history/", "history"),
        ("/v1/episodes/", "episodes"),
        ("/v1/figure/", "figure"),
        ("/v1/verdicts", "verdicts"),
    ):
        if path.startswith(prefix):
            return f"serve.handle.{route}"
    return "serve.handle.other"


def _replace_function(module_name: str, attr: str, wrapper, undo: list) -> None:
    """Swap a module-level function everywhere it was imported by name."""
    original = getattr(sys.modules[module_name], attr)
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        if getattr(module, attr, None) is original:
            setattr(module, attr, wrapper)
            undo.append((module, attr, original))


def _replace_method(cls, attr: str, make_wrapper, undo: list) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        wrapped = classmethod(make_wrapper(raw.__func__))
    else:
        wrapped = make_wrapper(raw)
    setattr(cls, attr, wrapped)
    undo.append((cls, attr, raw))


def install(tracer: Tracer):
    """Wrap every layer's public entry points; returns an undo function.

    Imports the wrapped modules first, so their import time is not
    charged to a layer.  Functions imported by name elsewhere are
    replaced in every loaded ``repro`` module; modules imported later
    pick up the wrapper from its home module.
    """
    from repro.analysis import evaluation, index, pipeline
    from repro.api import renderers, serve
    from repro.core import classifier, detector, verdict
    from repro.netbase import rpki
    from repro.scenario import archive

    undo: list = []

    def method(cls, attr, name, on_result=None, counter=None):
        _replace_method(
            cls, attr,
            lambda f: _wrap_call(tracer, name, f, on_result, counter),
            undo,
        )

    def function(module, attr, name, on_result=None, counter=None):
        original = getattr(module, attr)
        _replace_function(
            module.__name__, attr,
            _wrap_call(tracer, name, original, on_result, counter),
            undo,
        )

    def rows(tracer: Tracer, day) -> None:
        num_rows = getattr(day, "num_rows", None)
        tracer.counts["archive.rows"] += (
            num_rows if num_rows is not None else len(day.rows)
        )

    reader = archive.ArchiveReader
    method(reader, "__init__", "archive.open", counter="archive.opens")
    for attr in ("iter_day_columns", "iter_days"):
        _replace_method(
            reader, attr,
            lambda f: _wrap_iter(
                tracer, "archive.decode", f, rows, "archive.decode_passes"
            ),
            undo,
        )
    conflict_days = _count("detector.conflict_days", lambda d: d.num_conflicts)
    function(detector, "detect_day_columns", "detector.detect", conflict_days)
    function(detector, "detect_day", "detector.detect", conflict_days)

    method(pipeline.StudyState, "feed_day", "pipeline.fold")
    method(pipeline.StudyState, "results", "pipeline.results")

    # The study fold classifies the conflicts of every day inside the
    # classification window (figure 6).  Those calls belong to the
    # pipeline layer, so classifier.* counts only the verdict layer's.
    function(classifier, "classify_day", "pipeline.classify")
    method(verdict.VerdictEngine, "feed_day", "verdict.fold")
    method(verdict.VerdictEngine, "finalize", "verdict.finalize",
           counter="verdict.finalize_calls")
    original = classifier.classify_conflict
    traced = _wrap_call(tracer, "classifier.classify", original,
                        counter="classifier.calls")

    @functools.wraps(original)
    def classify_conflict(*args, **kwargs):
        if tracer.outermost("pipeline.classify"):
            return traced(*args, **kwargs)
        tracer.counts["pipeline.classify_calls"] += 1
        return original(*args, **kwargs)

    _replace_function(classifier.__name__, "classify_conflict",
                      classify_conflict, undo)

    for attr in ("from_json", "from_rows"):
        method(rpki.RoaTable, attr, "rpki.load", counter="rpki.loads")
    function(evaluation, "evaluate_verdicts", "evaluation.score")

    episode_index = index.EpisodeIndex
    method(episode_index, "build", "index.build", counter="index.builds")
    method(episode_index, "to_bytes", "index.build",
           _count("index.bytes", len))
    for attr in ("query", "lookup"):
        method(episode_index, attr, "index.query", counter="index.queries")

    for attr in ("render", "render_query"):
        function(renderers, attr, "renderers.render",
                 counter="renderers.calls")

    app = serve.ServeApp
    method(app, "fold_detection", "serve.fold")
    method(app, "current", "serve.snapshot")
    method(app, "current_verdicts", "serve.verdicts")
    method(app, "current_index", "serve.index")
    method(app, "handle", route_class)

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall
