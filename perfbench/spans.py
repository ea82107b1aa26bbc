"""In-memory spans around the program's public calls.

A :class:`Tracer` records one span per call it wraps: name, start, end
and the span open when it began (its parent).  Spans live in flat
arrays while the run goes on and are written once, when it ends.  The
program is never edited: :func:`instrument` swaps traced wrappers into
the module namespaces the scan entry points read (``read_pcap`` and
``FlowAssembler`` in ``repro.robust.pipeline`` and ``repro.serve.daemon``)
and onto engine or daemon instances, and puts the originals back after.
"""

from __future__ import annotations

import json
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import repro.robust.pipeline as pipeline
import repro.serve.daemon as daemon_module
from repro.traffic.flows import FlowAssembler

__all__ = ["Tracer", "instrument"]


class Tracer:
    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._open: list[int] = []
        self.enabled = False

    def __len__(self) -> int:
        return len(self.start)

    def begin(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0.0)
        self._open.append(index)
        self.start.append(time.perf_counter())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield index
        finally:
            self.finish(index)

    def wrap(self, name: str, function):
        def traced(*args, **kwargs):
            if not self.enabled:
                return function(*args, **kwargs)
            index = self.begin(name)
            try:
                return function(*args, **kwargs)
            finally:
                self.finish(index)

        return traced

    def wrap_iter(self, name: str, iterator):
        """Yield from ``iterator``, one span per ``next``."""
        iterator = iter(iterator)
        while True:
            index = self.begin(name) if self.enabled else -1
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                if index >= 0:
                    self.finish(index)
            yield item

    def self_times(self, first: int, stop: int) -> dict[str, float]:
        """Self time per span name over spans ``first..stop-1``: each
        span's duration minus the durations of its direct children."""
        own = [self.end[i] - self.start[i] for i in range(first, stop)]
        for i in range(first, stop):
            parent = self.parent[i]
            if parent >= first:
                own[parent - first] -= self.end[i] - self.start[i]
        totals: dict[str, float] = {}
        for offset, seconds in enumerate(own):
            name = self.names[self.name_of[first + offset]]
            totals[name] = totals.get(name, 0.0) + seconds
        return totals

    def durations(self, name: str, first: int, stop: int) -> float:
        """Summed wall time of spans called ``name`` in ``first..stop-1``."""
        return sum(self.end[i] - self.start[i] for i in self._named(name, first, stop))

    def count(self, name: str, first: int, stop: int) -> int:
        """Spans called ``name`` in ``first..stop-1``."""
        return len(self._named(name, first, stop))

    def _named(self, name: str, first: int, stop: int) -> list[int]:
        name_id = self._name_ids.get(name, -1)
        return [i for i in range(first, stop) if self.name_of[i] == name_id]

    def write(self, path: Path, meta: dict) -> None:
        """Write every span: a header, then one ``[name, start_ns, end_ns,
        parent]`` row per span, times relative to the first span."""
        origin = self.start[0] if len(self) else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            header = {"workload": self.workload, "names": self.names, **meta}
            out.write(json.dumps(header) + "\n")
            for i in range(len(self)):
                row = [
                    self.name_of[i],
                    round((self.start[i] - origin) * 1e9),
                    round((self.end[i] - origin) * 1e9),
                    self.parent[i],
                ]
                out.write(json.dumps(row) + "\n")


@contextmanager
def instrument(tracer: Tracer, engine=None, daemon=None, batches: list | None = None):
    """Trace pcap decode, reassembly, engine batches and daemon calls.

    ``batches`` collects the payload lists handed to ``run_batch`` while
    tracing is on (for replaying the prefilter skim afterwards).
    """

    class TracedAssembler(FlowAssembler):
        def add(self, packet):
            if not tracer.enabled:
                return FlowAssembler.add(self, packet)
            with tracer.span("flows.reassembly"):
                return FlowAssembler.add(self, packet)

        def flows(self):
            if not tracer.enabled:
                return FlowAssembler.flows(self)
            with tracer.span("flows.reassembly"):
                return FlowAssembler.flows(self)

    saved = []
    for module in (pipeline, daemon_module):
        original = module.read_pcap
        saved.append((module, "read_pcap", original))
        module.read_pcap = (
            lambda *a, _read=original, **k: tracer.wrap_iter("pcap.decode", _read(*a, **k))
        )
        saved.append((module, "FlowAssembler", module.FlowAssembler))
        module.FlowAssembler = TracedAssembler
    patched = []
    if engine is not None:
        run_batch = engine.run_batch

        def traced_run_batch(payloads):
            if tracer.enabled and batches is not None:
                batches.append(list(payloads))
            return run_batch(payloads)

        engine.run_batch = tracer.wrap("engine.run_batch", traced_run_batch)
        patched.append((engine, "run_batch"))
    if daemon is not None:
        daemon.submit = tracer.wrap("serve.submit", daemon.submit)
        daemon.drain = tracer.wrap("serve.drain", daemon.drain)
        patched += [(daemon, "submit"), (daemon, "drain")]
    try:
        yield tracer
    finally:
        for module, name, original in saved:
            setattr(module, name, original)
        for target, name in patched:
            delattr(target, name)
