"""Per-sample spans: a lightweight trace context for the offload path.

A sample's journey -- decision, RPC fetch (attempts, breaker transitions),
server-side prefix execution, degraded-mode demotion, cache hit/miss -- is
recorded as structured :class:`SpanEvent` objects under one ``trace_id``
derived from (sample id, epoch).  Timestamps come from the tracer's
injectable :data:`~repro.telemetry.clock.Clock`, so a tracer bound to the
simulator's virtual clock produces byte-identical event streams across
runs.

Events are deliberately flat (no object graph): a begin/end pair brackets
a phase, an instant marks a point event, and ``attrs`` carries the
structured details.  Exporters pair them back up into nested chrome-trace
spans.
"""

import contextlib
import dataclasses
import re
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from repro.telemetry.clock import Clock, LogicalClock

#: Event phases, mirroring the trace-event vocabulary.
BEGIN = "B"
END = "E"
INSTANT = "I"

#: HTTP header carrying the trace id across the service boundary.
TRACE_HEADER = "X-Sophon-Trace"

#: Wire format for trace ids: 1-128 chars from a conservative token
#: charset (letters, digits, ``._:-``), leading char alphanumeric.  Both
#: the sample ids (``s12-e0``) and the service client's request ids
#: (``jobA-r3``) fit; anything else is dropped at the boundary rather
#: than propagated into journals or span streams.
_TRACE_HEADER_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._:-]{0,127}$")


def trace_id(sample_id: int, epoch: int) -> str:
    """The canonical trace id for one sample in one epoch."""
    return f"s{sample_id}-e{epoch}"


def parse_trace_id(value: str) -> Tuple[int, int]:
    """Invert :func:`trace_id`; raises ValueError on foreign ids."""
    try:
        sample_part, epoch_part = value.split("-", 1)
        if sample_part[0] != "s" or epoch_part[0] != "e":
            raise ValueError
        return int(sample_part[1:]), int(epoch_part[1:])
    except (ValueError, IndexError):
        raise ValueError(f"not a sample trace id: {value!r}") from None


def encode_trace_header(trace: str) -> str:
    """Validate ``trace`` for the ``X-Sophon-Trace`` header; returns it.

    Raises ValueError on ids that would not survive the round trip, so
    senders fail loudly instead of emitting headers receivers must drop.
    """
    if not _TRACE_HEADER_RE.match(trace):
        raise ValueError(f"trace id not header-safe: {trace!r}")
    return trace


def parse_trace_header(value: Optional[str]) -> Optional[str]:
    """The trace id from a received header value, or None.

    Absent, empty, over-long, or badly-charactered values all come back as
    None: a malformed trace header must never fail a request, only strip
    its tracing.
    """
    if value is None:
        return None
    value = value.strip()
    if not _TRACE_HEADER_RE.match(value):
        return None
    return value


class _SpanEventSlots:
    """Storage for :class:`SpanEvent` fields (slots keep a span at one
    GC-tracked object with no per-instance dict; defined on a base class
    because a dataclass field default cannot share a class with its slot
    before Python 3.10's ``slots=True``)."""

    __slots__ = ("trace_id", "name", "phase", "t_s", "attrs")


@dataclasses.dataclass(frozen=True)
class SpanEvent(_SpanEventSlots):
    """One structured event on one trace.

    attrs values must be JSON-representable scalars (str/int/float/bool);
    exporters serialize them with sorted keys so identical runs produce
    identical bytes.
    """

    __slots__ = ()

    trace_id: str
    name: str
    phase: str  # BEGIN | END | INSTANT
    t_s: float
    attrs: Mapping[str, object] = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.phase not in (BEGIN, END, INSTANT):
            raise ValueError(f"bad span phase {self.phase!r}")

    def __reduce__(self) -> Tuple[type, Tuple[str, str, str, float, Mapping[str, object]]]:
        # Copies and pickles rebuild through __init__ (slot state cannot be
        # restored by setattr on a frozen instance).
        return (SpanEvent, (self.trace_id, self.name, self.phase, self.t_s, self.attrs))


_new_event = object.__new__
_set_trace_id = _SpanEventSlots.trace_id.__set__  # type: ignore[attr-defined]
_set_name = _SpanEventSlots.name.__set__  # type: ignore[attr-defined]
_set_phase = _SpanEventSlots.phase.__set__  # type: ignore[attr-defined]
_set_t_s = _SpanEventSlots.t_s.__set__  # type: ignore[attr-defined]
_set_attrs = _SpanEventSlots.attrs.__set__  # type: ignore[attr-defined]


def make_event(
    trace: str, name: str, phase: str, t_s: float, attrs: Dict[str, object]
) -> SpanEvent:
    """A :class:`SpanEvent` built without the frozen ``__init__``.

    For emitters passing one of the module's phase constants, so the
    ``__post_init__`` check has nothing to catch: the slots are filled
    directly, skipping five ``object.__setattr__`` calls and the check.
    Fields, equality, repr and every exporter's bytes are those of a
    public construction; ``attrs`` is stored as given (not copied).
    """
    event = _new_event(SpanEvent)
    _set_trace_id(event, trace)
    _set_name(event, name)
    _set_phase(event, phase)
    _set_t_s(event, t_s)
    _set_attrs(event, attrs)
    return event


class Tracer:
    """Collects span events, stamping them from an injectable clock.

    The default clock is a :class:`LogicalClock`: with no time axis given,
    events still carry strictly increasing deterministic timestamps.
    """

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self.clock: Clock = clock if clock is not None else LogicalClock()
        self.events: List[SpanEvent] = []

    # ``**attrs`` is a fresh dict on every call, so events keep it as is.

    def begin(self, trace: str, name: str, **attrs: object) -> SpanEvent:
        """Open a phase on a trace (pair with :meth:`end`)."""
        event = make_event(trace, name, BEGIN, self.clock(), attrs)
        self.events.append(event)
        return event

    def end(self, trace: str, name: str, **attrs: object) -> SpanEvent:
        """Close the innermost open phase of this name on the trace."""
        event = make_event(trace, name, END, self.clock(), attrs)
        self.events.append(event)
        return event

    def instant(self, trace: str, name: str, **attrs: object) -> SpanEvent:
        """A point event: demotion, retry, breaker transition, cache hit."""
        event = make_event(trace, name, INSTANT, self.clock(), attrs)
        self.events.append(event)
        return event

    @contextlib.contextmanager
    def span(self, trace: str, name: str, **attrs: object) -> Iterator[None]:
        """``with tracer.span(tid, "rpc.fetch"):`` brackets a phase."""
        self.begin(trace, name, **attrs)
        try:
            yield
        finally:
            self.end(trace, name)

    # -- queries -----------------------------------------------------------

    def for_trace(self, trace: str) -> List[SpanEvent]:
        """Every event on one trace, in emission order."""
        return [e for e in self.events if e.trace_id == trace]

    def for_sample(self, sample_id: int, epoch: int) -> List[SpanEvent]:
        return self.for_trace(trace_id(sample_id, epoch))

    def trace_ids(self) -> List[str]:
        """Distinct trace ids in first-seen order (deterministic)."""
        seen: Dict[str, None] = {}
        for event in self.events:
            seen.setdefault(event.trace_id, None)
        return list(seen)

    def clear(self) -> None:
        self.events.clear()
