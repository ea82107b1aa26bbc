"""The benchmark's workloads: rule set, traffic recipe and scan path.

Each workload is one generated capture scanned by one path of the
program.  ``kind`` selects the path: ``batch`` scans the capture with
``repro.robust.resilient_scan`` over the batched fastpath engine,
``serve`` feeds it through a one-worker ``repro.serve.ScanDaemon``.
Why each workload exists is in ``BENCHMARK.json`` and README.md.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Workload", "WORKLOADS"]


@dataclass(frozen=True, slots=True)
class Workload:
    name: str
    ruleset: str
    kind: str  # "batch" or "serve"
    traffic: str  # "corpus" (mixed protocols) or "becchi" (synthetic flows)
    payload_bytes: int  # corpus: target payload; becchi: bytes per flow
    n_flows: int = 0  # becchi only
    p_match: float = 0.0  # becchi only
    attack_density: float = 0.02  # corpus only
    setup_reps: int = 15  # cold set-ups per run; setup_s is their scaled median
    latency_share: float = 0.25  # share of the window spent on latency rounds


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "corpus-mixed",
            "S31p",
            "batch",
            "corpus",
            payload_bytes=8_000_000,
        ),
        Workload(
            "match-heavy",
            "S34",
            "batch",
            "becchi",
            payload_bytes=65_536,
            n_flows=128,
            p_match=0.75,
        ),
        Workload(
            "serve-stream",
            "S24",
            "serve",
            "becchi",
            payload_bytes=16_384,
            n_flows=256,
            p_match=0.35,
            setup_reps=12,
            latency_share=0.5,
        ),
        Workload(
            "b217p-cold",
            "B217p",
            "batch",
            "corpus",
            payload_bytes=4_000_000,
            setup_reps=3,
        ),
    )
}
