"""The flight recorder: a bounded ring of recent spans and log records.

A long-lived service cannot keep every span forever, but when a chaos run
fails you want the *recent* timeline: what the last N requests were doing
across queue-wait, admission, planning, and journal fsync when things went
sideways.  :class:`FlightRecorder` keeps two fixed-capacity rings (spans
and structured log records, oldest evicted first), counts what it dropped,
and renders the surviving window as a chrome-trace-compatible JSON object
(one row per trace, log records as instants on a ``logs`` row) that
``chrome://tracing`` / Perfetto load directly.

Everything is stamped from one injectable
:data:`~repro.telemetry.clock.Clock` and guarded by a single lock: the
service's HTTP handler threads and worker threads all emit into the same
recorder.  An optional ``tee`` :class:`~repro.telemetry.spans.Tracer`
receives every span as well, which is how a traced chaos run exports the
*full* unbounded stream while the ring stays bounded.
"""

import collections
import dataclasses
import json
import threading
from typing import Deque, Dict, List, Optional, Tuple

from repro.telemetry.clock import Clock, LogicalClock
from repro.telemetry.logs import LogRecord, render_logfmt
from repro.telemetry.spans import BEGIN, END, INSTANT, SpanEvent, Tracer, make_event


@dataclasses.dataclass(frozen=True)
class FlightSnapshot:
    """A consistent copy of the recorder's current window."""

    spans: Tuple[SpanEvent, ...]
    logs: Tuple[LogRecord, ...]
    dropped_spans: int
    dropped_logs: int


class FlightRecorder:
    """Thread-safe bounded recorder for spans + logs, chrome-trace dumpable."""

    def __init__(
        self,
        capacity: int = 2048,
        clock: Optional[Clock] = None,
        tee: Optional[Tracer] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.clock: Clock = clock if clock is not None else LogicalClock()
        self.tee = tee
        self._lock = threading.Lock()
        self._spans: Deque[SpanEvent] = collections.deque(maxlen=capacity)
        self._logs: Deque[LogRecord] = collections.deque(maxlen=capacity)
        self._span_total = 0
        self._log_total = 0

    # -- recording ---------------------------------------------------------

    def record_span(self, event: SpanEvent) -> SpanEvent:
        """Append a pre-built span event (and tee it, if teeing)."""
        with self._lock:
            self._spans.append(event)
            self._span_total += 1
            if self.tee is not None:
                self.tee.events.append(event)
        return event

    def _emit(
        self, trace: str, name: str, phase: str, attrs: Dict[str, object]
    ) -> SpanEvent:
        with self._lock:
            event = make_event(trace, name, phase, self.clock(), attrs)
            self._spans.append(event)
            self._span_total += 1
            if self.tee is not None:
                self.tee.events.append(event)
        return event

    def begin(self, trace: str, name: str, **attrs: object) -> SpanEvent:
        """Open a phase on a trace (pair with :meth:`end`)."""
        return self._emit(trace, name, BEGIN, dict(attrs))

    def end(self, trace: str, name: str, **attrs: object) -> SpanEvent:
        """Close the innermost open phase of this name on the trace."""
        return self._emit(trace, name, END, dict(attrs))

    def instant(self, trace: str, name: str, **attrs: object) -> SpanEvent:
        """A point event on a trace."""
        return self._emit(trace, name, INSTANT, dict(attrs))

    def record_log(self, record: LogRecord) -> None:
        """Sink for :class:`~repro.telemetry.logs.StructuredLogger`."""
        with self._lock:
            self._logs.append(record)
            self._log_total += 1

    # -- inspection --------------------------------------------------------

    def snapshot(self) -> FlightSnapshot:
        with self._lock:
            return FlightSnapshot(
                spans=tuple(self._spans),
                logs=tuple(self._logs),
                dropped_spans=self._span_total - len(self._spans),
                dropped_logs=self._log_total - len(self._logs),
            )

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self._logs.clear()
            self._span_total = 0
            self._log_total = 0

    # -- chrome-trace export -----------------------------------------------

    def to_chrome_trace(self) -> Dict[str, object]:
        """The current window as a chrome-trace JSON object.

        Each distinct trace id gets its own thread row (tid assigned in
        first-seen order); begin/end pairs become complete ``X`` events,
        unmatched begins close at the window's last timestamp, and log
        records land as instants on a dedicated ``logs`` row.  Purely a
        function of the recorded events, so identical windows dump to
        identical bytes.
        """
        snap = self.snapshot()
        events: List[Dict[str, object]] = []
        tids: Dict[str, int] = {}
        last_t = max(
            [e.t_s for e in snap.spans] + [r.t_s for r in snap.logs], default=0.0
        )

        def tid_for(trace: str) -> int:
            if trace not in tids:
                tids[trace] = len(tids) + 1
                events.append(
                    {
                        "ph": "M",
                        "pid": 1,
                        "tid": tids[trace],
                        "name": "thread_name",
                        "args": {"name": trace},
                    }
                )
            return tids[trace]

        open_stacks: Dict[Tuple[str, str], List[SpanEvent]] = {}
        for event in snap.spans:
            tid = tid_for(event.trace_id)
            key = (event.trace_id, event.name)
            if event.phase == BEGIN:
                open_stacks.setdefault(key, []).append(event)
            elif event.phase == END:
                stack = open_stacks.get(key)
                if stack:
                    begin = stack.pop()
                    args = dict(begin.attrs)
                    args.update(event.attrs)
                    events.append(
                        {
                            "ph": "X",
                            "pid": 1,
                            "tid": tid,
                            "name": event.name,
                            "ts": begin.t_s * 1e6,
                            "dur": (event.t_s - begin.t_s) * 1e6,
                            "args": args,
                        }
                    )
            else:  # INSTANT
                events.append(
                    {
                        "ph": "i",
                        "pid": 1,
                        "tid": tid,
                        "name": event.name,
                        "ts": event.t_s * 1e6,
                        "s": "t",
                        "args": dict(event.attrs),
                    }
                )
        # Begins whose end fell outside the window (or never came) still
        # deserve a box: close them at the window's last timestamp.
        for (trace, name), stack in open_stacks.items():
            for begin in stack:
                events.append(
                    {
                        "ph": "X",
                        "pid": 1,
                        "tid": tid_for(trace),
                        "name": name,
                        "ts": begin.t_s * 1e6,
                        "dur": (last_t - begin.t_s) * 1e6,
                        "args": dict(begin.attrs, truncated=True),
                    }
                )
        if snap.logs:
            log_tid = len(tids) + 1
            events.append(
                {
                    "ph": "M",
                    "pid": 1,
                    "tid": log_tid,
                    "name": "thread_name",
                    "args": {"name": "logs"},
                }
            )
            for record in snap.logs:
                events.append(
                    {
                        "ph": "i",
                        "pid": 1,
                        "tid": log_tid,
                        "name": f"log.{record.level}",
                        "ts": record.t_s * 1e6,
                        "s": "t",
                        "args": {"line": render_logfmt(record)},
                    }
                )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "dropped_spans": snap.dropped_spans,
                "dropped_logs": snap.dropped_logs,
                "spans": len(snap.spans),
                "logs": len(snap.logs),
            },
        }

    def dump(self, path: str) -> str:
        """Write the chrome trace to ``path``; returns the path."""
        trace = self.to_chrome_trace()
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(trace, handle, sort_keys=True, separators=(",", ":"))
            handle.write("\n")
        return path
