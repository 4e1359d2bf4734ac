"""Span recording around the program's public calls, from outside it.

`Instrumentation` swaps each listed callable for a wrapper that records a
span, re-binding module-level functions wherever a `fastpath` module
imported them by name, and puts every original back on exit. The simulator
is single-threaded, so a stack gives each span its parent. Spans stay in a
flat in-memory array until the benchmark reads them at the end.

A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from collections import Counter

# (span name, module, attribute path); "Class.method" wraps a method.
TARGETS = [
    ("crypto.sign", "fastpath.crypto", "KeyedDigestScheme.sign"),
    ("crypto.verify", "fastpath.crypto", "KeyedDigestScheme.verify"),
    ("crypto.validator_public_key", "fastpath.crypto", "validator_public_key"),
    ("encoding.digest", "fastpath.encoding", "digest"),
    ("encoding.tagged_digest", "fastpath.encoding", "tagged_digest"),
    ("types.verify_certificate", "fastpath.types", "verify_certificate"),
    ("types.verify_effect_cert", "fastpath.types", "verify_effect_cert"),
    ("authenticators.find_path", "fastpath.authenticators", "find_path"),
    ("authenticators.build_reveal", "fastpath.authenticators", "build_reveal"),
    ("authenticators.verify_reveal", "fastpath.authenticators",
     "verify_reveal"),
    ("authenticators.Evidence.build", "fastpath.authenticators",
     "Evidence.build"),
    ("validator.process_tx", "fastpath.validator", "ValidatorState.process_tx"),
    ("validator.process_cert", "fastpath.validator",
     "ValidatorState.process_cert"),
    ("validator.process_unlock_rqt", "fastpath.validator",
     "ValidatorState.process_unlock_rqt"),
    ("validator.process_unlock_cert", "fastpath.validator",
     "ValidatorState.process_unlock_cert"),
    ("validator.process_checkpoint_cert", "fastpath.validator",
     "ValidatorState.process_checkpoint_cert"),
    ("validator.snapshot", "fastpath.validator", "ValidatorState.snapshot"),
    ("client.FastPathDriver.on_message", "fastpath.client",
     "FastPathDriver.on_message"),
    ("client.FastPathDriver.on_timer", "fastpath.client",
     "FastPathDriver.on_timer"),
    ("client.FastUnlockDriver.on_message", "fastpath.client",
     "FastUnlockDriver.on_message"),
    ("client.FastUnlockDriver.on_timer", "fastpath.client",
     "FastUnlockDriver.on_timer"),
    ("client.UnlockCert.verify", "fastpath.client", "UnlockCert.verify"),
    ("client.assemble_unlock_cert", "fastpath.client", "assemble_unlock_cert"),
    ("sequencer.submit", "fastpath.sequencer", "Sequencer.submit"),
    ("counters.initial_budget", "fastpath.counters", "initial_budget"),
    ("scenario.from_dict", "fastpath.simnet.scenario", "Scenario.from_dict"),
    ("scenario.materialize_genesis", "fastpath.simnet.scenario",
     "materialize_genesis"),
    ("runner.init", "fastpath.simnet.runner", "Runner.__init__"),
    ("runner.send", "fastpath.simnet.runner", "Runner.send"),
    ("runner.schedule_timer", "fastpath.simnet.runner", "Runner.schedule_timer"),
    ("runner.loop", "fastpath.simnet.runner", "Runner.run"),
    ("trace.emit", "fastpath.simnet.trace", "TraceRecorder.emit"),
]
INVARIANTS_MODULE = "fastpath.simnet.invariants"

_COLUMNS = ("name", "parent", "run", "start", "end")
_FIELDS = len(_COLUMNS)


def layer_of(span_name: str) -> str:
    """Layer a span belongs to; `encoding` digests count as `crypto`."""
    head = span_name.split(".", 1)[0]
    return "crypto" if head == "encoding" else head


class SpanRecorder:
    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.records = array("q")
        self.stack: list[int] = []
        self.run_id = -1
        self.errors: Counter = Counter()

    def __len__(self) -> int:
        return len(self.records) // _FIELDS

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """Return `fn` wrapped so that each call records one span."""
        nid = self._name_id(name)
        records, stack, clock, errors = (self.records, self.stack, self.clock,
                                         self.errors)
        recorder = self

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            base = len(records)
            records.extend((nid, stack[-1] if stack else -1, recorder.run_id,
                            0, 0))
            stack.append(base // _FIELDS)
            records[base + 3] = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                errors[name] += 1
                raise
            finally:
                records[base + 4] = clock()
                stack.pop()

        spanned.span_name = name
        return spanned

    def column(self, field: str) -> array:
        """One field of every span, in recording order."""
        return self.records[_COLUMNS.index(field)::_FIELDS]

    def write(self, path) -> None:
        """Write every span, gzipped, as a tab-separated line: name, start
        ns, end ns, parent index, run id."""
        r = self.records
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i in range(0, len(r), _FIELDS):
                fh.write(f"{self.names[r[i]]}\t{r[i + 3]}\t{r[i + 4]}\t"
                         f"{r[i + 1]}\t{r[i + 2]}\n")


def self_times(parents, durations) -> array:
    """Duration minus the time covered by direct children, per span."""
    covered = array("q", bytes(8 * len(durations)))
    for i, parent in enumerate(parents):
        if parent >= 0:
            covered[parent] += durations[i]
    return array("q", (d - c for d, c in zip(durations, covered)))


def roots(parents) -> array:
    """Index of the root span enclosing each span (parents come first)."""
    out = array("q")
    for i, parent in enumerate(parents):
        out.append(i if parent < 0 else out[parent])
    return out


def _resolve(module_name: str, path: str):
    module = sys.modules[module_name]
    if "." in path:
        cls_name, attr = path.split(".")
        return module, getattr(module, cls_name), attr
    return module, None, path


def _program_modules():
    return [m for name, m in sorted(sys.modules.items())
            if (name == "fastpath" or name.startswith("fastpath."))
            and m is not None]


class Instrumentation:
    """Context manager that installs span wrappers and restores originals."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._undo: list = []

    def __enter__(self) -> "Instrumentation":
        try:
            for name, module_name, path in TARGETS:
                self._install(name, module_name, path)
            checkers = sys.modules[INVARIANTS_MODULE].CHECKERS
            for i, (checker, fn) in enumerate(checkers):
                checkers[i] = (checker,
                               self.recorder.wrap(f"invariants.{checker}", fn))
                self._undo.append(("item", checkers, i, (checker, fn)))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _install(self, name: str, module_name: str, path: str) -> None:
        module, cls, attr = _resolve(module_name, path)
        if cls is not None:
            raw = cls.__dict__[attr]
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(self.recorder.wrap(name, raw.__func__))
            else:
                wrapped = self.recorder.wrap(name, raw)
            setattr(cls, attr, wrapped)
            self._undo.append(("attr", cls, attr, raw))
            return
        original = getattr(module, attr)
        wrapped = self.recorder.wrap(name, original)
        for mod in _program_modules():
            for key in [k for k, v in vars(mod).items() if v is original]:
                setattr(mod, key, wrapped)
                self._undo.append(("attr", mod, key, original))

    def restore(self) -> None:
        while self._undo:
            kind, owner, key, original = self._undo.pop()
            if kind == "item":
                owner[key] = original
            else:
                setattr(owner, key, original)


def leftover_wrappers() -> list[str]:
    """Every place in the program that still holds a span wrapper."""
    found = []
    for mod in _program_modules():
        for key, value in vars(mod).items():
            if hasattr(value, "span_name"):
                found.append(f"{mod.__name__}.{key}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, raw in vars(value).items():
                    inner = raw.__func__ if isinstance(raw, staticmethod) else raw
                    if hasattr(inner, "span_name"):
                        found.append(f"{mod.__name__}.{key}.{attr}")
    checkers = sys.modules[INVARIANTS_MODULE].CHECKERS
    found.extend(f"CHECKERS[{name}]" for name, fn in checkers
                 if hasattr(fn, "span_name"))
    return found
