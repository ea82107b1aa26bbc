#!/usr/bin/env python3
"""The pcap-to-alert benchmark: one workload, one seed, one result line.

Run from the root of the repository::

    python3 perfbench/run.py --workload corpus-mixed --seed 1 --seconds 10 --trace 0

The inputs (a pcap capture and its scalar-MFA reference stream) are made
from ``--seed`` in this process, outside any timing, and cached under
``.perfbench-cache``.  ``measure.py`` then sets up and scans in a child
process.  Human-readable lines come first; the last line of standard
output is the JSON result.  ``--trace 0`` reports the end-to-end metrics
of ``BENCHMARK.json``, ``--trace 1`` its per-layer metrics and writes the
spans to ``.perfbench-cache/spans``.  The exit code is 1 when any flow
diverged from the reference or failed.

``--steady`` runs the workload(s) ``--runs`` times on consecutive seeds
and prints the median and quartiles of every end-to-end metric, with the
quartile spread as a share of the median next to the metric's bound::

    python3 perfbench/run.py --steady --workload all --runs 5 --seed 1
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = ROOT / ".perfbench-cache"
CHILD_TIMEOUT_S = 170.0  # the whole run has to end within 180 s


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _child_env() -> dict[str, str]:
    # No REPRO_* knob from the caller's shell may change what is measured;
    # numpy stays single-threaded so load comes from one process.
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env.update(
        {
            "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(HERE)]),
            "PYTHONHASHSEED": "0",
            "OMP_NUM_THREADS": "1",
            "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
            "REPRO_COMPILE_CACHE": "0",
            "REPRO_CACHE_DIR": str(CACHE / "unused-artifact-cache"),
            "REPRO_RESULTS_DIR": str(CACHE / "results"),
        }
    )
    return env


def _run_child(command: list[str], timeout: float) -> int | None:
    """Run the measuring child in its own process group and return its exit
    code (None on timeout).  Nothing it started outlives it, even when this
    process is told to stop: the daemon worker and multiprocessing's helper
    share the group."""
    child = subprocess.Popen(command, env=_child_env(), cwd=ROOT, start_new_session=True)
    returncode = None
    try:
        returncode = child.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        pass
    finally:
        if returncode is None:
            # SIGTERM first: the child then stops its daemon and unlinks
            # the shared-memory segment on the way out.
            os.killpg(child.pid, signal.SIGTERM)
            try:
                child.wait(timeout=15)
            except subprocess.TimeoutExpired:
                os.killpg(child.pid, signal.SIGKILL)
                child.wait()
        # Give the group's helpers a moment to exit on their own, then kill them.
        for attempt in range(100):
            try:
                os.killpg(child.pid, signal.SIGKILL if attempt >= 60 else 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
    return returncode


def run_once(spec: dict, workload: str, seed: int, seconds: int, trace: int) -> int:
    started = time.monotonic()
    if not (ROOT / "src" / "repro").is_dir():
        return _fail(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    sys.path[:0] = [str(ROOT / "src")]
    from inputs import prepare

    wanted = spec["per_layer" if trace else "end_to_end"]
    inputs = prepare(WORKLOADS[workload], seed, CACHE)
    tag = f"{workload}-s{seed}-t{trace}"
    out = CACHE / "runs" / f"{tag}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.unlink(missing_ok=True)
    command = [
        sys.executable,
        str(HERE / "measure.py"),
        "--workload", workload,
        "--inputs", str(inputs),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--out", str(out),
        "--spans", str(CACHE / "spans" / f"{workload}.jsonl"),
    ]
    remaining = CHILD_TIMEOUT_S - (time.monotonic() - started)
    returncode = _run_child(command, remaining)
    if returncode is None:
        return _fail(f"{tag}: measurement exceeded {CHILD_TIMEOUT_S:.0f} s")
    if returncode != 0 or not out.is_file():
        return _fail(f"{tag}: measurement failed with exit code {returncode}")
    result = json.loads(out.read_text())
    got = result["metrics"]
    missing = [metric["name"] for metric in wanted if metric["name"] not in got]
    if missing:
        return _fail(f"{tag}: no value for {', '.join(missing)}")
    correct = result["failed"] == 0
    print(
        f"{workload} seed {seed}: {result['passes']} passes, {result['latency_samples']} "
        f"latency samples in {result['latency_rounds']} rounds, "
        f"{result['attempted']} flows attempted, "
        f"{result['failed']} failed ({result['diverged']} diverged from the scalar reference), "
        f"flows_failed_ratio {result['failed'] / result['attempted']:.6g}"
    )
    for metric in wanted:
        print(f"  {metric['name']}: {got[metric['name']]:.6g} {metric['unit']}")
    if result["unscaled"]:
        raw = result["unscaled"]
        print(
            f"  before host-speed scaling: scan_mbps {raw['scan_mbps']:.6g} MB/s, "
            f"setup_s {raw['setup_s']:.6g} s; calibration loop {raw['host_calib_ms']:.4g} ms "
            f"(reference {raw['host_reference_ms']:.4g} ms)"
        )
    line = {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            metric["name"]: {"value": got[metric["name"]], "unit": metric["unit"]}
            for metric in wanted
        },
    }
    print(json.dumps(line))
    return 0 if correct else 1


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def steady(spec: dict, workloads: list[str], seed: int, runs: int, seconds: int) -> int:
    """Repeat runs on consecutive seeds; print each metric's spread."""
    status = 0
    for workload in workloads:
        values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
        for offset in range(runs):
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", workload, "--seed", str(seed + offset),
                "--seconds", str(seconds), "--trace", "0",
            ]
            tick = time.monotonic()
            child = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
            wall = time.monotonic() - tick
            last = child.stdout.strip().splitlines()[-1:] if child.stdout else []
            if child.returncode != 0 or not last:
                print(f"{workload} seed {seed + offset}: run failed\n{child.stderr}")
                status = 1
                continue
            got = json.loads(last[0])["metrics"]
            for name, metric in got.items():
                values[name].append(metric["value"])
            print(
                f"{workload} seed {seed + offset} ({wall:.1f} s): "
                + " ".join(f"{name}={metric['value']:.4g}" for name, metric in got.items()),
                flush=True,
            )
        print(f"{workload}: {runs} runs, seeds {seed}..{seed + runs - 1}")
        for metric in spec["end_to_end"]:
            series = values[metric["name"]]
            if not series:
                continue
            q1, median, q3 = _quartiles(series)
            spread = (q3 - q1) / median if median else float("inf")
            verdict = "ok" if spread <= metric["bound"] / 3 else "WIDE"
            print(
                f"  {metric['name']:<22} median {median:<10.5g} q1 {q1:<10.5g} q3 {q3:<10.5g}"
                f" spread {spread:6.3f} bound {metric['bound']:.2f} {verdict}"
            )
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="pcap-to-alert benchmark")
    parser.add_argument("--workload", required=True, help="a workload name, or 'all' with --steady")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "BENCHMARK.json").is_file():
        return _fail(f"{ROOT / 'BENCHMARK.json'} is missing")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    # Any defined workload runs by name; "all" means the ones BENCHMARK.json lists.
    chosen = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
    unknown = [name for name in chosen if name not in WORKLOADS]
    if unknown:
        return _fail(f"unknown workload {unknown[0]!r}; have {', '.join(WORKLOADS)}")
    if args.steady:
        return steady(spec, chosen, args.seed, args.runs, seconds)
    return run_once(spec, args.workload, args.seed, seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
