"""In-memory span tracer for the traced run, and the module wrappers.

A traced run times each ``repro`` module from the outside: the wrappers
below replace public entry points (functions, methods, classmethods) for
the duration of one repetition and record a span per call. Nothing in
``src/`` is edited, and untraced repetitions run with every wrapper
removed, so the end-to-end metrics never pay for tracing.

A span records its name, start, end, the span that was open when it
began (its parent) and the id of the repetition it belongs to. A module's
self time is the summed duration of its spans minus the time covered by
their child spans. Span names are ``<module>.<call>``; the module part is
the layer the time is charged to.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Layers a traced run charges time to (the ``<module>`` part of a span name).
MODULES = (
    "figure",     # experiments.figures / matrix: fan-out and summary glue
    "runner",     # experiments.runner: run_parallel, task keys, result cache
    "task",       # experiments.prefetch / smt runner glue inside each task
    "workloads",  # workloads.compiled: trace store lookups and .npz loads
    "replay",     # core_model.trace_core / replay_kernel (+ object prefetchers)
    "bandit",     # bandit: select_arm + observe
    "lane",       # core_model.lane_kernel
    "smt",        # core_model.smt_kernel / smt pipeline
    "reporting",  # experiments.reporting
)


@dataclass
class Span:
    id: int
    parent: int
    run: str
    name: str
    start: float
    end: float = 0.0
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; :meth:`write` dumps them as JSON lines."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.run_id = ""
        self._stack: List[Span] = []

    def begin(self, name: str, **attrs: Any) -> Span:
        parent = self._stack[-1].id if self._stack else -1
        span = Span(len(self.spans), parent, self.run_id, name,
                    time.perf_counter(), attrs=attrs)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        span = self.begin(name, **attrs)
        try:
            yield span
        finally:
            self.end(span)

    def run_spans(self, run_id: str) -> List[Span]:
        return [span for span in self.spans if span.run == run_id]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span), sort_keys=True) + "\n")


def self_seconds(spans: List[Span]) -> Dict[str, float]:
    """Per-module self time: span durations minus their children's."""
    child_time: Dict[int, float] = {}
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] = child_time.get(span.parent, 0.0) + span.seconds
    out = dict.fromkeys(MODULES, 0.0)
    for span in spans:
        module = span.name.split(".", 1)[0]
        out[module] += span.seconds - child_time.get(span.id, 0.0)
    return out


# ================================================================ wrappers

OnExit = Callable[[Span, Tuple[Any, ...], Dict[str, Any], Any], None]


def _traced(tracer: Tracer, name: str, fn: Callable[..., Any],
            on_exit: Optional[OnExit] = None) -> Callable[..., Any]:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        span = tracer.begin(name)
        try:
            value = fn(*args, **kwargs)
        except BaseException as error:
            span.attrs["error"] = type(error).__name__
            raise
        finally:
            tracer.end(span)
        if on_exit is not None:
            on_exit(span, args, kwargs, value)
        return value

    return wrapper


def _task_attrs(span: Span, args: Tuple[Any, ...], kwargs: Dict[str, Any],
                value: Any) -> None:
    span.attrs["spec"] = kwargs.get("spec_name")


def _load_attrs(span: Span, args: Tuple[Any, ...], kwargs: Dict[str, Any],
                value: Any) -> None:
    span.attrs["bytes"] = Path(args[-1]).stat().st_size


def _replay_attrs(span: Span, args: Tuple[Any, ...], kwargs: Dict[str, Any],
                  value: Any) -> None:
    records = len(args[1])
    limit = kwargs.get("max_records")
    span.attrs["records"] = records if limit is None else min(records, limit)


def _lane_attrs(span: Span, args: Tuple[Any, ...], kwargs: Dict[str, Any],
                value: Any) -> None:
    lanes = len(args[1])
    span.attrs.update(lanes=lanes, records=len(args[0]) * lanes)


def _cache_get_attrs(span: Span, args: Tuple[Any, ...], kwargs: Dict[str, Any],
                     value: Any) -> None:
    span.attrs["hit"] = bool(value[0])


Undo = List[Tuple[Any, str, Any]]


def _replace(owner: Any, attr: str, replacement: Any, undo: Undo) -> None:
    undo.append((owner, attr, owner.__dict__[attr]))
    setattr(owner, attr, replacement)


def _restore(undo: Undo) -> None:
    while undo:
        owner, attr, original = undo.pop()
        setattr(owner, attr, original)


def _rebind(original: Callable[..., Any], replacement: Callable[..., Any],
            undo: Undo) -> None:
    """Bind ``replacement`` wherever a ``repro`` module binds ``original``.

    Figure and matrix code import runner functions by name, so replacing
    the attribute of the defining module alone would miss their calls.
    """
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                _replace(module, attr, replacement, undo)


@contextmanager
def rebound(original: Callable[..., Any],
            replacement: Callable[..., Any]) -> Iterator[None]:
    """Run a block with ``replacement`` bound in place of ``original``."""
    undo: Undo = []
    _rebind(original, replacement, undo)
    try:
        yield
    finally:
        _restore(undo)


class Wrappers:
    """Installs the traced wrappers into every loaded ``repro`` module."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: Undo = []

    def _function(self, original: Callable[..., Any], name: str,
                  on_exit: Optional[OnExit] = None) -> None:
        _rebind(original, _traced(self.tracer, name, original, on_exit),
                self._undo)

    def _method(self, cls: type, attr: str, name: str,
                on_exit: Optional[OnExit] = None) -> None:
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            wrapped = classmethod(
                _traced(self.tracer, name, original.__func__, on_exit)
            )
        else:
            wrapped = _traced(self.tracer, name, original, on_exit)
        _replace(cls, attr, wrapped, self._undo)

    def install(self) -> None:
        from repro.bandit.base import MABAlgorithm
        from repro.core_model import lane_kernel
        from repro.core_model.trace_core import TraceCore
        from repro.experiments import reporting, runner, smt
        from repro.workloads.compiled import CompiledTrace, TraceStore

        self._function(runner.run_parallel, "runner.run_parallel")
        self._function(runner.task_key, "runner.task_key")
        self._method(runner.ResultCache, "get", "runner.cache_get",
                     _cache_get_attrs)
        self._method(runner.ResultCache, "put", "runner.cache_put")
        for task_fn in (runner.fixed_prefetcher_task, runner.fixed_arm_task,
                        runner.bandit_prefetch_task, runner.lane_batch_task,
                        runner.smt_static_task, runner.smt_bandit_task):
            self._function(task_fn, f"task.{task_fn.__name__}", _task_attrs)
        self._method(TraceStore, "get", "workloads.trace_get")
        self._method(CompiledTrace, "load", "workloads.trace_load", _load_attrs)
        self._method(TraceCore, "run_compiled", "replay.run_compiled",
                     _replay_attrs)
        self._method(MABAlgorithm, "select_arm", "bandit.select")
        self._method(MABAlgorithm, "observe", "bandit.observe")

        self._function(lane_kernel.run_lane_batch, "lane.run_lane_batch",
                       _lane_attrs)

        def smt_attrs(fn: Callable[..., Any]) -> OnExit:
            signature = inspect.signature(fn)

            def on_exit(span: Span, args: Tuple[Any, ...],
                        kwargs: Dict[str, Any], value: Any) -> None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.attrs.update(
                    epochs=bound.arguments["scale"].total_epochs,
                    cycles=value.rename.cycles,
                )

            return on_exit

        self._function(smt.run_smt_static, "smt.run_smt_static",
                       smt_attrs(smt.run_smt_static))
        self._function(smt.run_smt_bandit, "smt.run_smt_bandit",
                       smt_attrs(smt.run_smt_bandit))
        self._function(reporting.format_table, "reporting.format_table")
        self._function(reporting.format_summary_table,
                       "reporting.format_summary_table")

    def uninstall(self) -> None:
        _restore(self._undo)


@contextmanager
def traced(tracer: Tracer, run_id: str) -> Iterator[None]:
    """Run a block with every wrapper installed and spans tagged ``run_id``."""
    tracer.run_id = run_id
    wrappers = Wrappers(tracer)
    wrappers.install()
    try:
        yield
    finally:
        wrappers.uninstall()
