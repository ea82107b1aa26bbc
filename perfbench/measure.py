"""The measured process: set up, scan for a fixed time, check every flow.

``run.py`` starts this script as a child process with the capture and
reference it prepared, so the peak RSS read here is the scanner's own
(plus its daemon worker), not the input generator's.  The child writes
one JSON document (``--out``); ``run.py`` turns it into the result line.

For ``--seconds`` the run interleaves three kinds of work, so each one
samples the whole window:

* ``setup_reps`` cold set-ups, evenly spaced: compile with no artifact
  cache plus the engine build, or for ``serve`` a whole daemon start.
* Whole-capture passes, pcap bytes in to alerts out.
* Latency rounds (untraced runs only), given ``latency_share`` of the
  window: at least 1000 flows one at a time, closed loop, payload in to
  alerts out, every one of them timed.  Each round yields its own p50
  and p99.

The host this runs on is shared, and other tenants slow it by up to half
again for seconds to minutes at a time, longer than a run.  So every
set-up, pass and round is followed by :class:`HostSpeed`'s fixed
calibration loop, and its time is scaled to a reference host by the loop
times on either side of it.  The end-to-end metrics are medians over the
run of these scaled values: ``setup_s`` of the set-ups, ``scan_mbps``
of the passes' throughput, ``flow_latency_p50_ms`` and
``flow_latency_p99_ms`` of the rounds' percentiles.  With ``--trace 1``
traced passes alternate with untraced ones, there are no latency
rounds, and the layer metrics are unscaled medians over the traced
passes plus replays of the prefilter skim and the filter program on the
same inputs.  Every pass and every latency sample is compared flow by
flow with the scalar-MFA reference, outside the timing.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import random
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import numpy as np
from inputs import flow_key, reassemble
from spans import Tracer, instrument
from workloads import WORKLOADS, Workload

from repro.core.compiler import compile_mfa
from repro.core.filters import NONE, FilterEngine
from repro.core.serialize import dumps_mfa
from repro.fastpath.engine import FastPathMFA
from repro.fastpath.prefilter import PrefilterRuntime, build_prefilter
from repro.patterns.rulesets import ruleset
from repro.robust.pipeline import resilient_scan
from repro.serve.daemon import ScanDaemon, ServeConfig, serve_scan
from repro.traffic.pcap import read_pcap

MIN_PASSES = 3
MIN_ROUNDS = 3
ROUND_SAMPLES = 1000  # at least this many per round, so p99 has 10 beyond it


def _events_by_flow(alerts) -> dict[str, tuple]:
    grouped: dict[str, list[tuple[int, int]]] = {}
    for alert in alerts:
        grouped.setdefault(flow_key(alert.key), []).append(
            (alert.event.pos, alert.event.match_id)
        )
    return {key: tuple(sorted(events)) for key, events in grouped.items()}


def _diverged(got: dict, expected: dict) -> int:
    """Flows whose (pos, match_id) stream differs from the reference."""
    return sum(1 for key in got.keys() | expected.keys() if got.get(key) != expected.get(key))


class HostSpeed:
    """A fixed calibration loop that tracks how fast the host runs now.

    The loop does interpreter-bound work of the kind that dominates a scan,
    byte slicing and dict updates, on fixed data, so its time moves with
    the host's speed and never with the program's.  It holds no large
    array: a numpy gather loop tried here ran up to a fifth faster or
    slower from one process to the next at the same host speed.
    ``scale()`` runs it after a measured item and returns the factor that
    takes the item's time to a host on which the loop takes
    ``REFERENCE_S``: the reference over the mean of the loop's times just
    before and just after the item.
    """

    REFERENCE_S = 0.025  # about the loop's median time on a 2-vCPU Xeon KVM guest

    def __init__(self) -> None:
        self._data = random.Random(20240).randbytes(45_000)
        self.samples: list[float] = []
        self._last = self._time()

    def _loop(self) -> int:
        data = self._data
        total = 0
        for _ in range(7):
            counts: dict[bytes, int] = {}
            for i in range(0, len(data) - 6, 3):
                key = data[i : i + 6]
                counts[key] = counts.get(key, 0) + 1
            total += len(counts)
        return total

    def _time(self) -> float:
        tick = time.perf_counter()
        self._loop()
        elapsed = time.perf_counter() - tick
        self.samples.append(elapsed)
        return elapsed

    def scale(self) -> float:
        before, self._last = self._last, self._time()
        return self.REFERENCE_S / ((before + self._last) / 2)


class BatchRunner:
    """``resilient_scan`` over the batched fastpath engine, in-process."""

    def __init__(self, rules: list[str], record_phases: bool) -> None:
        self.rules = rules
        self.record_phases = record_phases
        self.engine: FastPathMFA | None = None
        self.phases: list[dict[str, float]] = []
        self.build_s: list[float] = []
        self.report = None
        self.poisoned = 0

    def setup(self) -> float:
        self.engine = None
        gc.collect()
        phases: dict[str, float] | None = {} if self.record_phases else None
        tick = time.perf_counter()
        mfa = compile_mfa(self.rules, phases=phases)
        built = time.perf_counter()
        self.engine = FastPathMFA(mfa, prefilter="auto")
        done = time.perf_counter()
        if phases is not None:
            self.phases.append(phases)
            self.build_s.append(done - built)
        return done - tick

    def instrument(self, tracer: Tracer, batches: list):
        return instrument(tracer, engine=self.engine, batches=batches)

    def scan(self, capture: bytes):
        alerts, self.report = resilient_scan(
            self.engine, capture, batch_size=self.engine.batch_hint
        )
        self.poisoned += self.report.dispatch.flows_poisoned
        return alerts

    def scan_flow(self, flow) -> tuple:
        return tuple(sorted((event.pos, event.match_id) for event in self.engine.run(flow.payload)))

    def failures(self) -> int:
        return self.poisoned

    def close(self) -> None:
        self.engine = None


class ServeRunner:
    """``serve_scan`` through a one-worker fastpath ``ScanDaemon``."""

    def __init__(self, rules: list[str]) -> None:
        self.rules = rules
        self.daemon: ScanDaemon | None = None
        self.config = ServeConfig(workers=1, engine="fastpath", prefilter="auto")
        self.failed_before = 0  # failures counted by daemons already stopped

    def setup(self) -> float:
        self.close()
        gc.collect()
        tick = time.perf_counter()
        self.daemon = ScanDaemon(self.rules, config=self.config)
        self.daemon.start()
        return time.perf_counter() - tick

    def instrument(self, tracer: Tracer, batches: list):
        return instrument(tracer, daemon=self.daemon)

    def scan(self, capture: bytes):
        self.daemon.alerts.clear()  # the previous pass's alerts were consumed
        alerts, _report = serve_scan(self.daemon, capture)
        return alerts

    def scan_flow(self, flow) -> tuple:
        self.daemon.alerts.clear()
        self.daemon.submit(flow.key, flow.payload)
        self.daemon.drain()
        return tuple(sorted((a.event.pos, a.event.match_id) for a in self.daemon.alerts))

    def failures(self) -> int:
        return self.failed_before + self._failed(self.daemon.status())

    @staticmethod
    def _failed(report) -> int:
        return report.dispatch.flows_poisoned + report.flows_shed + report.flows_quarantined

    def close(self) -> None:
        if self.daemon is not None:
            self.failed_before += self._failed(self.daemon.stop())
            self.daemon = None


class Checker:
    """Counts attempted flows and flows that failed or diverged."""

    def __init__(self, reference: dict) -> None:
        # Tuples, not lists: once checked they leave the collector's sight.
        self.expected = {
            key: tuple(map(tuple, events)) for key, events in reference["events"].items()
        }
        self.n_flows = reference["flows"]
        self.attempted = 0
        self.diverged = 0
        self._last_stream = None
        self._last_diverged = 0

    def check_pass(self, alerts) -> None:
        self.attempted += self.n_flows
        stream = _events_by_flow(alerts)
        if stream != self._last_stream:
            self._last_stream = stream
            self._last_diverged = _diverged(stream, self.expected)
        self.diverged += self._last_diverged

    def check_flow(self, flow, events: tuple) -> None:
        self.attempted += 1
        if events != self.expected.get(flow_key(flow.key), ()):
            self.diverged += 1


def _quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def _median_dict(dicts: list[dict[str, float]]) -> dict[str, float]:
    keys = {key for d in dicts for key in d}
    return {key: statistics.median(d.get(key, 0.0) for d in dicts) for key in keys}


def _prefilter_replay(mfa, buffers: list[list[bytes]]) -> dict[str, float]:
    """``PrefilterRuntime.scan`` over the buffers the engine skimmed."""
    plan = mfa.prefilter or build_prefilter(mfa)
    runtime = PrefilterRuntime(plan)
    seconds = 0.0
    occurrences = 0
    n_bytes = 0
    for payloads in buffers:
        joined = b"".join(payloads)
        buf = np.frombuffer(joined, dtype=np.uint8)
        tick = time.perf_counter()
        result = runtime.scan(buf)
        seconds += time.perf_counter() - tick
        occurrences += int(result.ends.size)
        n_bytes += len(joined)
    return {
        "prefilter.skim_s": seconds,
        "prefilter.occurrences": occurrences,
        "prefilter.occurrences_per_kb": occurrences / (n_bytes / 1024) if n_bytes else 0.0,
    }


def _filter_replay(mfa, flows) -> dict[str, float]:
    """The filter program over each flow's raw component hits."""
    priority = mfa.program.action_priority
    engine = FilterEngine(mfa.program)
    raw_hits = reports = 0
    seconds = 0.0
    for flow in flows:
        raw = mfa.raw_matches(flow.payload)
        raw.sort(key=lambda e: (e.pos, priority(e.match_id), e.match_id))
        raw_hits += len(raw)
        state = engine.new_state()
        process = engine.process
        tick = time.perf_counter()
        for event in raw:
            if process(state, event.pos, event.match_id) != NONE:
                reports += 1
        seconds += time.perf_counter() - tick
    return {
        "filter.raw_hits": raw_hits,
        "filter.reports": reports,
        "filter.yield": reports / raw_hits if raw_hits else 0.0,
        "filter.replay_s": seconds,
    }


def _compile_metrics(runner, rules: list[str]) -> tuple:
    if isinstance(runner, ServeRunner):  # the daemon compiles out of sight: once more
        phases: dict[str, float] = {}
        mfa = compile_mfa(rules, phases=phases)
        phases_runs = [phases]
    else:
        mfa = runner.engine.mfa
        phases_runs = runner.phases
    phases = _median_dict(phases_runs)
    metrics = {
        f"compile.{name}_s": phases.get(key, 0.0)
        for name, key in (
            ("parse", "parse"),
            ("split", "split"),
            ("determinize", "determinize"),
            ("minimize", "minimize"),
            ("filter_gen", "filter-gen"),
            ("prefilter", "prefilter"),
        )
    }
    metrics["compile.dfa_states"] = mfa.dfa.n_states
    metrics["compile.artifact_bytes"] = len(dumps_mfa(mfa))
    return metrics, mfa


def _round_flows(flows: list) -> list:
    """The flows one latency round sends, in order: up to ROUND_SAMPLES
    flows spread evenly over the capture, cycled until the round holds at
    least ROUND_SAMPLES of them.  Every round sends the same list."""
    size = min(len(flows), ROUND_SAMPLES)
    picked = [flows[i * len(flows) // size] for i in range(size)]
    return picked * math.ceil(ROUND_SAMPLES / len(picked))


def _latency_round(runner, round_flows: list, checker) -> list[float]:
    """One closed-loop round: each flow's alerts arrive before the next
    flow is sent.  Returns every flow's time, sorted."""
    samples = []
    for flow in round_flows:
        tick = time.perf_counter()
        events = runner.scan_flow(flow)
        samples.append(time.perf_counter() - tick)
        checker.check_flow(flow, events)
    samples.sort()
    return samples


def _traced_pass(runner, tracer, capture, checker, batches, traced_layers, serve_passes) -> float:
    """One whole-capture pass with every span recorded; returns its time."""
    busy_before = _worker_busy(runner)
    first = len(tracer)
    # Only the first traced pass keeps its batches for the prefilter replay.
    with runner.instrument(tracer, None if batches else batches):
        tracer.enabled = True
        root = tracer.begin("scan")
        tick = time.perf_counter()
        alerts = runner.scan(capture)
        elapsed = time.perf_counter() - tick
        tracer.finish(root)
        tracer.enabled = False
    checker.check_pass(alerts)
    traced_layers.append(_pass_layers(tracer, first))
    if isinstance(runner, ServeRunner):
        busy = _worker_busy(runner) - busy_before
        serve_passes.append(
            {
                "serve.worker_busy_s": busy,
                "serve.worker_busy_share": busy / elapsed,
                "serve.overhead_s": elapsed - busy,
            }
        )
    return elapsed


def run(workload: Workload, inputs: Path, seconds: float, trace: bool, spans_path: Path) -> dict:
    capture = (inputs / "capture.pcap").read_bytes()
    reference = json.loads((inputs / "reference.json").read_text())
    flows = reassemble(capture)
    payload_bytes = reference["payload_bytes"]
    rules = list(ruleset(workload.ruleset).rules)
    tracer = Tracer(workload.name) if trace else None
    runner = ServeRunner(rules) if workload.kind == "serve" else BatchRunner(rules, trace)
    checker = Checker(reference)
    del reference
    if not trace:
        # Only the traced run's replays need every flow; dropping the rest
        # here keeps the harness's share of peak_rss_mb small.
        round_flows = _round_flows(flows)
        del flows
    # The harness's own inputs are long-lived; freezing them keeps the
    # program's garbage collections from traversing them, as they would
    # not in a deployment.  The program's objects, built below, stay tracked.
    gc.freeze()
    metrics: dict[str, float] = {}
    try:
        host = HostSpeed()
        setup_times = [runner.setup()]
        setup_scaled = [setup_times[0] * host.scale()]
        pass_times: list[float] = []
        pass_scaled: list[float] = []
        traced_times: list[float] = []
        traced_layers: list[dict[str, float]] = []
        batches: list[list[bytes]] = []
        serve_passes: list[dict[str, float]] = []
        round_p50: list[float] = []
        round_p99: list[float] = []
        latency_samples = 0
        pass_seconds = latency_seconds = 0.0
        while True:
            elapsed = pass_seconds + latency_seconds  # set-ups do not use up the window
            if len(setup_times) < workload.setup_reps and (
                elapsed >= seconds * len(setup_times) / workload.setup_reps
            ):
                setup_times.append(runner.setup())
                setup_scaled.append(setup_times[-1] * host.scale())
                continue
            enough = len(traced_times) >= MIN_PASSES if trace else len(round_p99) >= MIN_ROUNDS
            if elapsed >= seconds and len(pass_times) >= MIN_PASSES and enough:
                break
            gc.collect()
            tick = time.perf_counter()
            if not trace and latency_seconds < workload.latency_share * elapsed:
                samples = _latency_round(runner, round_flows, checker)
                scale = host.scale()
                latency_seconds += time.perf_counter() - tick
                round_p50.append(_quantile(samples, 0.50) * scale)
                round_p99.append(_quantile(samples, 0.99) * scale)
                latency_samples += len(samples)
                continue
            if trace and len(traced_times) < len(pass_times):
                traced_times.append(
                    _traced_pass(runner, tracer, capture, checker, batches, traced_layers,
                                 serve_passes)
                )
                host.scale()  # the next pass's "before" loop time
            else:
                alerts = runner.scan(capture)
                pass_times.append(time.perf_counter() - tick)
                pass_scaled.append(pass_times[-1] * host.scale())
                checker.check_pass(alerts)
            pass_seconds += time.perf_counter() - tick
        failed_in_engine = runner.failures()
        if trace:
            metrics.update(
                _layer_metrics(
                    workload, runner, rules, capture, flows, payload_bytes, setup_times,
                    pass_times, traced_times, traced_layers, serve_passes, batches,
                )
            )
            metrics["trace.spans"] = len(tracer)
            metrics["host.calib_ms"] = statistics.median(host.samples) * 1e3
            tracer.write(spans_path, {"seed_inputs": inputs.name, "passes": len(traced_times)})
        else:
            metrics.update(
                {
                    "scan_mbps": payload_bytes / statistics.median(pass_scaled) / 1e6,
                    "flow_latency_p50_ms": statistics.median(round_p50) * 1e3,
                    "flow_latency_p99_ms": statistics.median(round_p99) * 1e3,
                    "setup_s": statistics.median(setup_scaled),
                }
            )
            unscaled = {
                "scan_mbps": payload_bytes / statistics.median(pass_times) / 1e6,
                "setup_s": statistics.median(setup_times),
                "host_calib_ms": statistics.median(host.samples) * 1e3,
                "host_reference_ms": HostSpeed.REFERENCE_S * 1e3,
            }
    finally:
        runner.close()
    failed = checker.diverged + failed_in_engine
    if not trace:
        # Read after close(): the daemon's worker counts once it is reaped.
        metrics["peak_rss_mb"] = _peak_rss_mb()
        metrics["flows_ok_ratio"] = 1.0 - failed / checker.attempted
    return {
        "attempted": checker.attempted,
        "failed": failed,
        "diverged": checker.diverged,
        "passes": len(pass_times) + len(traced_times),
        "latency_samples": latency_samples,
        "latency_rounds": len(round_p99),
        "unscaled": {} if trace else unscaled,
        "metrics": metrics,
    }


def _worker_busy(runner) -> float:
    if not isinstance(runner, ServeRunner):
        return 0.0
    return sum(worker.busy_seconds for worker in runner.daemon.status().workers)


def _pass_layers(tracer: Tracer, first: int) -> dict[str, float]:
    """One traced pass's layer times and counts."""
    stop = len(tracer)
    own = tracer.self_times(first, stop)
    return {
        "pcap.decode_s": own.get("pcap.decode", 0.0),
        "flows.reassembly_s": own.get("flows.reassembly", 0.0),
        "dispatch.self_s": own.get("scan", 0.0),
        "dispatch.batches": tracer.count("engine.run_batch", first, stop),
        "engine.scan_s": own.get("engine.run_batch", 0.0),
        "serve.submit_wait_s": tracer.durations("serve.submit", first, stop),
        "serve.drain_s": tracer.durations("serve.drain", first, stop),
    }


def _layer_metrics(
    workload, runner, rules, capture, flows, payload_bytes, setup_times,
    pass_times, traced_times, traced_layers, serve_passes, batches,
) -> dict[str, float]:
    layers = _median_dict(traced_layers)
    untraced = payload_bytes / min(pass_times) / 1e6
    traced = payload_bytes / min(traced_times) / 1e6
    compile_metrics, mfa = _compile_metrics(runner, rules)
    report = runner.report if isinstance(runner, BatchRunner) else runner.daemon.status()
    n_packets = sum(1 for _ in read_pcap(io.BytesIO(capture), errors="skip"))
    serve = isinstance(runner, ServeRunner)
    if serve:
        prefilter_active = report.prefilter_active
        buffers = [[flow.payload] for flow in flows]  # the worker scans flow by flow
    else:
        prefilter_active = runner.engine.prefilter_active
        buffers = batches
    metrics: dict[str, float] = {
        "pcap.decode_s": layers["pcap.decode_s"],
        "pcap.packets": n_packets,
        "pcap.ns_per_packet": layers["pcap.decode_s"] / n_packets * 1e9 if n_packets else 0.0,
        "flows.reassembly_s": layers["flows.reassembly_s"],
        "flows.flows": len(flows),
        "flows.evicted": report.assembler.flows_evicted,
        "flows.mean_flow_bytes": payload_bytes / len(flows),
        "dispatch.batches": 0 if serve else layers["dispatch.batches"],
        "dispatch.flows_poisoned": report.dispatch.flows_poisoned,
        "dispatch.self_s": layers["dispatch.self_s"],
        "engine.scan_s": 0.0 if serve else layers["engine.scan_s"],
        "engine.bytes": 0 if serve else payload_bytes,
        "engine.mbps": (
            0.0 if serve or not layers["engine.scan_s"]
            else payload_bytes / layers["engine.scan_s"] / 1e6
        ),
        "engine.build_s": 0.0 if serve else statistics.median(runner.build_s),
        "prefilter.active": int(prefilter_active),
        "prefilter.skim_s": 0.0,
        "prefilter.occurrences": 0,
        "prefilter.occurrences_per_kb": 0.0,
        **_filter_replay(mfa, flows),
        **compile_metrics,
        "trace.scan_mbps_untraced": untraced,
        "trace.scan_mbps_traced": traced,
        "trace.overhead_share": (untraced - traced) / untraced,
    }
    if prefilter_active:
        metrics.update(_prefilter_replay(mfa, buffers))
    serve_metrics = {
        "serve.start_s": 0.0,
        "serve.worker_load_s": 0.0,
        "serve.submit_wait_s": 0.0,
        "serve.drain_s": 0.0,
        "serve.worker_busy_s": 0.0,
        "serve.worker_busy_share": 0.0,
        "serve.overhead_s": 0.0,
        "serve.flows_shed": 0,
        "serve.flows_quarantined": 0,
        "serve.restarts": 0,
    }
    if serve:
        serve_metrics.update(_median_dict(serve_passes))
        serve_metrics.update(
            {
                "serve.start_s": min(setup_times),
                "serve.worker_load_s": statistics.median(w.load_seconds for w in report.workers),
                "serve.submit_wait_s": layers["serve.submit_wait_s"],
                "serve.drain_s": layers["serve.drain_s"],
                "serve.flows_shed": report.flows_shed,
                "serve.flows_quarantined": report.flows_quarantined,
                "serve.restarts": report.restarts,
            }
        )
    metrics.update(serve_metrics)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--spans", required=True, type=Path)
    args = parser.parse_args(argv)
    # Stopping by SIGTERM still runs the finally blocks that stop the daemon.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    result = run(WORKLOADS[args.workload], args.inputs, args.seconds, bool(args.trace), args.spans)
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
