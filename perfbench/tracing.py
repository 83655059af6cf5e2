"""In-memory spans around calls into the program's public functions.

The benchmark never edits the program to trace it:
:meth:`SpanRecorder.wrap` replaces an attribute (a bound method on one
instance, a method on a class, or a function in a module namespace) with a
wrapper that records a span and calls the original, and
:meth:`SpanRecorder.restore` puts every original back.  Spans nest
through a per-thread stack; a span that starts on a thread with nothing
open (a server thread answering a client) finds its parent through a
*link key* that the client-side span registered, e.g. the single TCP
connection's in-flight fetch or a service job's name.
"""

import collections
import dataclasses
import functools
import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from perfbench.common import LAYERS

KeyFn = Callable[..., Optional[str]]


@dataclasses.dataclass
class Span:
    span_id: int
    parent: Optional[int]
    name: str
    layer: str
    thread: str
    start: float
    end: float = 0.0
    attrs: Dict[str, Any] = dataclasses.field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans in memory; :meth:`write` dumps them as JSON lines."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._local = threading.local()
        self._links: Dict[str, int] = {}
        self._lock = threading.Lock()
        self._next_id = 1
        self._restore: List[Callable[[], None]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(
        self,
        name: str,
        layer: str,
        fn: Callable[..., Any],
        args: Sequence[Any],
        kwargs: Dict[str, Any],
        link_parent: Optional[str] = None,
        link_as: Optional[str] = None,
        attrs: Optional[Callable[..., Dict[str, Any]]] = None,
    ) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span and return its result.

        ``attrs(result, *args, **kwargs)`` supplies span attributes.
        """
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            if parent is None and link_parent is not None:
                parent = self._links.get(link_parent)
            if link_as is not None:
                self._links[link_as] = span_id
        span = Span(span_id, parent, name, layer, threading.current_thread().name, self.clock())
        stack.append(span_id)
        try:
            result = fn(*args, **kwargs)
            if attrs is not None:
                span.attrs.update(attrs(result, *args, **kwargs))
        except BaseException as exc:
            span.attrs["error"] = type(exc).__name__
            raise
        finally:
            span.end = self.clock()
            stack.pop()
            with self._lock:
                if link_as is not None and self._links.get(link_as) == span_id:
                    del self._links[link_as]
                self.spans.append(span)
        return result

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        layer: str,
        link_parent: Optional[KeyFn] = None,
        link_as: Optional[KeyFn] = None,
        attrs: Optional[Callable[..., Dict[str, Any]]] = None,
    ) -> None:
        """Trace every call of ``owner.attr`` until :meth:`restore`.

        ``link_parent``/``link_as`` map the call's arguments to link keys;
        ``attrs`` maps (result, *args) to span attributes.
        """
        original = getattr(owner, attr)
        had_own = attr in vars(owner) if hasattr(owner, "__dict__") else True
        recorder = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            parent_key = link_parent(*args, **kwargs) if link_parent else None
            own_key = link_as(*args, **kwargs) if link_as else None
            return recorder.call(
                name, layer, original, args, kwargs, parent_key, own_key, attrs
            )

        setattr(owner, attr, traced)

        def undo() -> None:
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

        self._restore.append(undo)

    def restore(self) -> None:
        """Put back every wrapped attribute, newest first."""
        while self._restore:
            self._restore.pop()()

    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for span in sorted(self.spans, key=lambda s: s.span_id):
                record = dataclasses.asdict(span)
                handle.write(json.dumps(record, sort_keys=True) + "\n")


def layer_self_seconds(spans: Sequence[Span]) -> Dict[str, float]:
    """Each layer's self time: span durations minus their children's."""
    children: Dict[int, float] = collections.defaultdict(float)
    for span in spans:
        if span.parent is not None:
            children[span.parent] += span.duration
    totals: Dict[str, float] = collections.defaultdict(float)
    for span in spans:
        totals[span.layer] += span.duration - children[span.span_id]
    return dict(totals)


def covered_seconds(spans: Sequence[Span], threads: Sequence[str]) -> float:
    """Time the root spans of the driving threads cover (they never overlap)."""
    wanted = set(threads)
    return sum(s.duration for s in spans if s.parent is None and s.thread in wanted)


def layer_shares(self_s: Dict[str, float], covered: float, total: float
                 ) -> Dict[str, float]:
    """``self_share.<layer>`` for every layer plus ``residual_share``."""
    values = {f"self_share.{layer}": self_s.get(layer, 0.0) / total for layer in LAYERS}
    values["residual_share"] = max(total - covered, 0.0) / total
    return values
