"""Append-only recovery journal for granted plans and budget state.

Crash recovery is the reason this file exists: the decision service
journals every grant (the job, its parameter digest, the cores it
committed, and the full split vector) *before* acknowledging it, so a
server killed mid-epoch restarts from the journal and resumes with
byte-identical grants -- same sequence numbers, same splits, same budget
ledger.  ``repro.harness.service_chaos`` gates exactly that property.

Format: one JSON object per line, canonical encoding (sorted keys, no
spaces), each carrying a ``crc`` field -- the CRC32 of the line with the
``crc`` key removed.  Deliberately **no wall timestamps**: a journal is a
pure function of the request sequence, which is what makes the
uninterrupted-vs-resumed byte-identity gate possible.

Torn tails are expected (that is what a crash mid-append looks like): a
trailing line that fails to parse or checksum is dropped on replay and
truncated away on the next open.  A corrupt line *before* the tail means
the file was damaged some other way and raises
:class:`JournalCorruptError` -- recovery must not silently skip grants.
"""

import dataclasses
import json
import os
import zlib
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.telemetry.flight import FlightRecorder

#: Schema tag written in the journal's header line.  Bump only on
#: incompatible layout changes; replay refuses unknown schemas.
SCHEMA = "sophon-service-journal/v1"


class JournalCorruptError(Exception):
    """A non-tail journal line failed to parse or checksum."""


@dataclasses.dataclass(frozen=True)
class GrantRecord:
    """One granted plan: the unit of the byte-identity recovery gate."""

    seq: int
    job: str
    params_digest: str
    cores: int
    splits: Tuple[int, ...]
    reason: str

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": "grant",
            "seq": self.seq,
            "job": self.job,
            "params_digest": self.params_digest,
            "cores": self.cores,
            "splits": list(self.splits),
            "reason": self.reason,
        }


@dataclasses.dataclass(frozen=True)
class ReleaseRecord:
    """A job gave its committed cores back to the budget."""

    seq: int
    job: str
    cores: int

    def to_dict(self) -> Dict[str, object]:
        return {"kind": "release", "seq": self.seq, "job": self.job,
                "cores": self.cores}


@dataclasses.dataclass(frozen=True)
class CheckpointRecord:
    """Budget state at a clean shutdown (written by graceful drain)."""

    seq: int
    committed: Tuple[Tuple[str, int], ...]  # (job, cores), sorted by job

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": "checkpoint",
            "seq": self.seq,
            "committed": {job: cores for job, cores in self.committed},
        }


JournalRecord = Union[GrantRecord, ReleaseRecord, CheckpointRecord]


def encode_line(record: Mapping[str, object]) -> str:
    """Canonical journal line for ``record`` (without trailing newline)."""
    body = json.dumps(dict(record), sort_keys=True, separators=(",", ":"))
    crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
    stamped = dict(record)
    stamped["crc"] = crc
    return json.dumps(stamped, sort_keys=True, separators=(",", ":"))


def decode_line(line: str) -> Dict[str, object]:
    """Parse and checksum one journal line; raises ValueError on damage."""
    record = json.loads(line)
    if not isinstance(record, dict) or "crc" not in record:
        raise ValueError("journal line carries no crc")
    crc = record.pop("crc")
    body = json.dumps(record, sort_keys=True, separators=(",", ":"))
    if zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF != crc:
        raise ValueError("journal line failed its crc")
    return record


@dataclasses.dataclass
class JournalState:
    """What replaying a journal recovered.

    grants: every surviving grant, in sequence order.
    committed: cores each journalled job still holds (grants minus
        releases; a re-grant for the same job replaces its old commit).
    last_release: the seq of each journalled job's latest release.
    next_seq: the sequence number the resumed server continues from.
    truncated_tail: True when a torn trailing line was dropped.
    """

    grants: List[GrantRecord] = dataclasses.field(default_factory=list)
    committed: Dict[str, int] = dataclasses.field(default_factory=dict)
    last_release: Dict[str, int] = dataclasses.field(default_factory=dict)
    next_seq: int = 1
    truncated_tail: bool = False

    @property
    def active_grants(self) -> Dict[str, GrantRecord]:
        """The latest grant per job that is still committed."""
        latest: Dict[str, GrantRecord] = {}
        for grant in self.grants:
            latest[grant.job] = grant
        return {job: latest[job] for job in latest if job in self.committed}

    @property
    def live_grants(self) -> List[GrantRecord]:
        """Each still-committed job's grants since its last release.

        Exactly what the live service's idempotency table held: a release
        drops the job's grants from it.
        """
        return [
            grant for grant in self.grants
            if grant.job in self.committed
            and grant.seq > self.last_release.get(grant.job, 0)
        ]


def _record_from_dict(record: Mapping[str, object]) -> Optional[JournalRecord]:
    kind = record.get("kind")
    if kind == "grant":
        return GrantRecord(
            seq=int(record["seq"]),  # type: ignore[arg-type]
            job=str(record["job"]),
            params_digest=str(record["params_digest"]),
            cores=int(record["cores"]),  # type: ignore[arg-type]
            splits=tuple(int(s) for s in record["splits"]),  # type: ignore[union-attr]
            reason=str(record["reason"]),
        )
    if kind == "release":
        return ReleaseRecord(
            seq=int(record["seq"]),  # type: ignore[arg-type]
            job=str(record["job"]),
            cores=int(record["cores"]),  # type: ignore[arg-type]
        )
    if kind == "checkpoint":
        committed = record["committed"]
        if not isinstance(committed, dict):
            raise ValueError("checkpoint committed must be a mapping")
        return CheckpointRecord(
            seq=int(record["seq"]),  # type: ignore[arg-type]
            committed=tuple(sorted((str(j), int(c)) for j, c in committed.items())),
        )
    if kind == "header":
        return None
    raise ValueError(f"unknown journal record kind {kind!r}")


def replay(path: str) -> JournalState:
    """Rebuild the service state a journal at ``path`` encodes.

    A missing file replays to the empty state (fresh server).  A torn
    trailing line is dropped (and flagged); corruption anywhere else
    raises :class:`JournalCorruptError`.
    """
    state = JournalState()
    if not os.path.exists(path):
        return state
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    parsed: List[Mapping[str, object]] = []
    for index, line in enumerate(lines):
        try:
            parsed.append(decode_line(line))
        except ValueError as exc:
            if index == len(lines) - 1:
                state.truncated_tail = True
                break
            raise JournalCorruptError(
                f"{path}:{index + 1}: {exc} (not the tail -- refusing to skip)"
            ) from exc
    if parsed:
        header = parsed[0]
        if header.get("kind") != "header" or header.get("schema") != SCHEMA:
            raise JournalCorruptError(
                f"{path}: journal header missing or schema is not {SCHEMA}"
            )
    for record in parsed[1:]:
        entry = _record_from_dict(record)
        if isinstance(entry, GrantRecord):
            state.grants.append(entry)
            state.committed[entry.job] = entry.cores
            state.next_seq = max(state.next_seq, entry.seq + 1)
        elif isinstance(entry, ReleaseRecord):
            state.committed.pop(entry.job, None)
            state.last_release[entry.job] = entry.seq
            state.next_seq = max(state.next_seq, entry.seq + 1)
        elif isinstance(entry, CheckpointRecord):
            state.committed = {job: cores for job, cores in entry.committed}
            state.next_seq = max(state.next_seq, entry.seq + 1)
    return state


class PlanJournal:
    """The append side: open, append records durably, checkpoint, close.

    Opening a journal replays whatever is already there (exposed as
    :attr:`recovered`), truncates any torn tail, and appends from then
    on.  Every append is flushed (and fsynced when ``sync=True``) before
    returning -- a grant is never acknowledged before it is durable.
    """

    def __init__(
        self,
        path: str,
        sync: bool = True,
        recorder: Optional[FlightRecorder] = None,
    ) -> None:
        self.path = path
        self.sync = sync
        #: Flight recorder receiving ``service.journal_fsync`` spans for
        #: traced appends.  Spans never enter the journal itself -- the
        #: bytes on disk are identical with and without a recorder.
        self.recorder = recorder
        self.recovered = replay(path)
        fresh = not os.path.exists(path)
        if self.recovered.truncated_tail:
            self._truncate_torn_tail()
        self._handle = open(path, "a", encoding="utf-8")
        if fresh:
            self._write({"kind": "header", "schema": SCHEMA, "seq": 0})

    def _truncate_torn_tail(self) -> None:
        with open(self.path, "r", encoding="utf-8") as handle:
            lines = handle.read().split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        kept = []
        for line in lines:
            try:
                decode_line(line)
            except ValueError:
                break
            kept.append(line)
        with open(self.path, "w", encoding="utf-8") as handle:
            for line in kept:
                handle.write(line + "\n")

    def _write(self, record: Mapping[str, object]) -> None:
        if self._handle.closed:
            raise ValueError("journal is closed")
        self._handle.write(encode_line(record) + "\n")
        self._handle.flush()
        if self.sync:
            os.fsync(self._handle.fileno())

    def append_grant(self, grant: GrantRecord, trace: Optional[str] = None) -> None:
        if self.recorder is not None and trace is not None:
            self.recorder.begin(
                trace, "service.journal_fsync", kind="grant", seq=grant.seq
            )
            try:
                self._write(grant.to_dict())
            finally:
                self.recorder.end(trace, "service.journal_fsync")
            return
        self._write(grant.to_dict())

    def append_release(
        self, release: ReleaseRecord, trace: Optional[str] = None
    ) -> None:
        if self.recorder is not None and trace is not None:
            self.recorder.begin(
                trace, "service.journal_fsync", kind="release", seq=release.seq
            )
            try:
                self._write(release.to_dict())
            finally:
                self.recorder.end(trace, "service.journal_fsync")
            return
        self._write(release.to_dict())

    def append_checkpoint(self, seq: int, committed: Mapping[str, int]) -> None:
        record = CheckpointRecord(
            seq=seq, committed=tuple(sorted(committed.items()))
        )
        self._write(record.to_dict())

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "PlanJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def read_grants(path: str) -> Sequence[GrantRecord]:
    """All grants a journal holds, in order (the byte-identity gate input)."""
    return replay(path).grants
