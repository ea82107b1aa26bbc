"""Input determinism: a seed fixes the capture, another seed changes it.

Run from the repository root: ``python3 -m pytest -q perfbench/test_inputs.py``.
The workloads are shrunk so the checks take seconds; generation is the
same code the benchmark runs at full size.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from inputs import BecchiWalker, build_capture, prepare  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from repro.automata.nfa import build_nfa  # noqa: E402
from repro.core.compiler import compile_patterns  # noqa: E402
from repro.patterns.rulesets import ruleset  # noqa: E402
from repro.traffic.becchi import generate_payload  # noqa: E402

SMALL = {
    "corpus-mixed": {"payload_bytes": 40_000, "attack_density": 0.2},
    "match-heavy": {"payload_bytes": 3_000, "n_flows": 3},
    "serve-stream": {"payload_bytes": 3_000, "n_flows": 3},
    "b217p-cold": {"payload_bytes": 20_000, "attack_density": 0.2},
}


def _small(name: str):
    return dataclasses.replace(WORKLOADS[name], **SMALL[name])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_bytes_other_seed_other_bytes(name):
    workload = _small(name)
    first = build_capture(workload, seed=5)
    assert first == build_capture(workload, seed=5)
    assert first != build_capture(workload, seed=6)


@pytest.mark.parametrize(
    "set_name, p_match", [("S34", 0.75), ("S24", 0.35), ("S31p", 0.9), ("B217p", 0.9)]
)
def test_walker_matches_reference_generator(set_name, p_match):
    nfa = build_nfa(compile_patterns(list(ruleset(set_name).rules)))
    walker = BecchiWalker(nfa)
    for seed in (0, 17):
        assert walker.payload(1500, p_match, seed) == generate_payload(
            nfa, 1500, p_match, seed=seed
        )


def test_prepare_caches_capture_and_reference(tmp_path):
    workload = _small("match-heavy")
    directory = prepare(workload, 3, tmp_path)
    capture = (directory / "capture.pcap").read_bytes()
    assert capture == build_capture(workload, seed=3)
    assert prepare(workload, 3, tmp_path) == directory
    assert (directory / "capture.pcap").read_bytes() == capture
