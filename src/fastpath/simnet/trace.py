"""Totally ordered event logs produced by simulation runs.

A trace serializes to line-delimited JSON with sorted keys: one meta line,
one line per event, one snapshot line per validator, and a closing line.
Replaying a scenario with the same seed reproduces the file byte for byte,
which is itself one of the checked guarantees.

`TraceRecorder.emit` is the only writer of events. An actor's `emit` is the
recorder's `emit` bound to the actor's name, so an event reaches the
recorder in one call; the runner advances the recorder's `tick`.

A live trace's sequence payloads (keys, key lists, counter deltas) are
tuples shared by every event that records them; a parsed trace's are lists.
JSON writes both as arrays, so either serializes to the same bytes.
"""

from __future__ import annotations

import json

from .scenario import MAX_COMMITTEE

# Meta keys the invariant checkers read.
META_KEYS = ("n", "f", "faults", "drop_budget", "epoch_length", "objects")


class Trace:
    def __init__(self, meta: dict, events: list[dict] | None = None,
                 snapshots: dict[str, dict] | None = None,
                 quiesced: bool = True, ticks: int = 0, sent: int = 0,
                 dropped: int = 0):
        self.meta = meta
        self.events = [] if events is None else events
        self.snapshots = {} if snapshots is None else snapshots
        self.quiesced = quiesced
        self.ticks = ticks
        self.sent = sent
        self.dropped = dropped

    def to_lines(self) -> list[str]:
        def enc(record):
            return json.dumps(record, sort_keys=True, separators=(",", ":"))

        lines = [enc({"kind": "meta", **self.meta})]
        lines.extend(enc(e) for e in self.events)
        for actor in sorted(self.snapshots):
            lines.append(enc({"kind": "snapshot", "actor": actor,
                              "state": self.snapshots[actor]}))
        lines.append(enc({"kind": "end", "quiesced": self.quiesced,
                          "ticks": self.ticks, "sent": self.sent,
                          "dropped": self.dropped}))
        return lines

    def serialize(self) -> str:
        return "\n".join(self.to_lines()) + "\n"

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.serialize())

    @staticmethod
    def parse(text: str) -> "Trace":
        """Read a serialized trace. Raises ValueError for one the checkers
        cannot judge: no meta record first, a meta record without a key
        the checkers read, a committee size `n` that is not an int in
        [1, MAX_COMMITTEE] (the checkers name every validator), a fault
        bound `f` that is not an int of at least 0, an event whose actor
        is a list or an object (the checkers look actors up in a set), or
        no `end` record last (a cut trace)."""
        lines = [json.loads(line) for line in text.splitlines() if line.strip()]
        if not all(isinstance(record, dict) for record in lines):
            raise ValueError("every trace line must be a JSON object")
        if not lines or lines[0].get("kind") != "meta":
            raise ValueError("trace must start with a meta record")
        meta = {k: v for k, v in lines[0].items() if k != "kind"}
        missing = [key for key in META_KEYS if key not in meta]
        if missing:
            raise ValueError(f"trace meta lacks {', '.join(missing)}")
        n, f = meta["n"], meta["f"]
        if type(n) is not int or not 1 <= n <= MAX_COMMITTEE:
            raise ValueError(f"trace meta n must be an int in "
                             f"[1, {MAX_COMMITTEE}], not {n!r}")
        if type(f) is not int or f < 0:
            raise ValueError(f"trace meta f must be an int >= 0, not {f!r}")
        end = lines[-1]
        if end.get("kind") != "end" or "quiesced" not in end \
                or "ticks" not in end:
            raise ValueError("trace must finish with an end record")
        trace = Trace(meta=meta)
        for record in lines[1:]:
            kind = record.get("kind")
            if kind == "snapshot":
                trace.snapshots[record["actor"]] = record["state"]
            elif kind == "end":
                trace.quiesced = record["quiesced"]
                trace.ticks = record["ticks"]
                trace.sent = record.get("sent", 0)
                trace.dropped = record.get("dropped", 0)
            elif isinstance(record.get("actor"), (list, dict)):
                raise ValueError("an event's actor cannot be a list or an "
                                 "object")
            else:
                trace.events.append(record)
        return trace

    @staticmethod
    def load(path: str) -> "Trace":
        with open(path) as fh:
            return Trace.parse(fh.read())

    def select(self, kind: str) -> list[dict]:
        return [e for e in self.events if e["kind"] == kind]


class TraceRecorder:
    def __init__(self):
        self.events: list[dict] = []
        self.tick = 0

    def emit(self, actor: str, kind: str, **fields) -> None:
        """Record one event. `fields` is this call's own dict and becomes
        the record; no emit site passes a field named tick, actor or kind."""
        fields["tick"] = self.tick
        fields["actor"] = actor
        fields["kind"] = kind
        self.events.append(fields)
