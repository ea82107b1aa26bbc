"""Deterministic workload inputs and their reference match streams.

Everything here runs before the measured process starts, so none of it
reaches a metric.  A workload's input is a pcap capture made from
``--seed`` alone; its reference is the canonical match stream of that
capture under the scalar ``repro.core.mfa.MFA``.  Both are cached under
``.perfbench-cache/inputs`` in the checkout, keyed by workload, seed and
generator version, so a repeated seed costs nothing.

Becchi traffic comes from :class:`BecchiWalker`, a memoised replica of
``repro.traffic.becchi.generate_payload``: same RNG stream, same bytes
(``test_inputs.py`` checks it), but the NFA active sets are interned and
their successor and forward-byte lists cached, which takes 64 KB at
p_match 0.75 from seconds to a fraction of one.
"""

from __future__ import annotations

import io
import json
import shutil
from pathlib import Path

from workloads import Workload

from repro.automata.nfa import NFA, build_nfa
from repro.core.compiler import compile_patterns
from repro.fastpath.cache import ArtifactCache, compile_mfa_cached
from repro.patterns.rulesets import ruleset
from repro.traffic import corpora
from repro.traffic.becchi import _state_depths
from repro.traffic.flows import PROTO_TCP, FiveTuple, FlowAssembler, Packet
from repro.traffic.pcap import read_pcap, write_pcap
from repro.utils.rng import make_rng

__all__ = [
    "GENERATOR_VERSION",
    "BecchiWalker",
    "build_capture",
    "flow_key",
    "prepare",
    "reassemble",
]

# Bump when a generator change alters the bytes a seed produces.
GENERATOR_VERSION = 1
_SEGMENT = 1400  # TCP payload bytes per packet, as in repro.traffic.corpora
_KEEP_PER_WORKLOAD = 4  # cached seeds kept per workload


class BecchiWalker:
    """Becchi et al. traffic over one NFA, memoised across payloads."""

    def __init__(self, nfa: NFA) -> None:
        self.nfa = nfa
        self.depths = _state_depths(nfa)
        self.group_of_byte = nfa.alphabet_groups()[0]
        self.sets: list[tuple[int, ...]] = []  # set id -> active tuple
        self.ids: dict[tuple[int, ...], int] = {}
        self.forward: list[list[int]] = []  # set id -> bytes that go deeper
        self.rows: list[dict[int, int]] = []  # set id -> {byte group: set id}
        self._intern(nfa.initial)

    def _intern(self, active: tuple[int, ...]) -> int:
        index = self.ids.get(active)
        if index is None:
            index = self.ids[active] = len(self.sets)
            self.sets.append(active)
            bits = self._forward_bits(active)
            self.forward.append([b for b in range(256) if bits >> b & 1])
            self.rows.append({})
        return index

    def _forward_bits(self, active: tuple[int, ...]) -> int:
        # The generator's rule: advance the deepest active state that can
        # move strictly deeper.
        depths = self.depths
        transitions = self.nfa.transitions
        forward = 0
        for state in sorted(active, key=depths.__getitem__, reverse=True):
            depth = depths[state]
            for bits, target in transitions[state]:
                if depths[target] > depth:
                    forward |= bits
            if forward:
                break
        return forward

    def _successor(self, active: tuple[int, ...], byte: int) -> int:
        bit = 1 << byte
        following = set(self.nfa.initial)
        for state in active:
            for bits, target in self.nfa.transitions[state]:
                if bits & bit:
                    following.add(target)
        return self._intern(tuple(following))

    def payload(self, length: int, p_match: float, seed: int) -> bytes:
        """``generate_payload(nfa, length, p_match, seed)``, byte for byte."""
        rng = make_rng(seed, f"becchi:{p_match}:{length}")
        random, randrange = rng.random, rng.randrange
        forward, rows, sets, group = self.forward, self.rows, self.sets, self.group_of_byte
        current = 0
        out = bytearray()
        for _ in range(length):
            deeper = forward[current]
            if deeper and random() < p_match:
                # choose_byte_from_bits draws randrange(count) and takes
                # that set bit, lowest first: the same draw, indexed.
                byte = deeper[randrange(len(deeper))]
            else:
                byte = randrange(256)
            out.append(byte)
            row = rows[current]
            following = row.get(group[byte])
            if following is None:
                following = row[group[byte]] = self._successor(sets[current], byte)
            current = following
        return bytes(out)


def _becchi_packets(workload: Workload, walker: BecchiWalker, seed: int) -> list[Packet]:
    """``n_flows`` client flows of Becchi payload, segments interleaved."""
    streams = []
    for index in range(workload.n_flows):
        payload = walker.payload(
            workload.payload_bytes, workload.p_match, seed=seed * 100_003 + index
        )
        key = FiveTuple(
            PROTO_TCP, f"10.2.{index // 250}.{index % 250}", 1024 + index, "192.168.9.1", 80
        )
        streams.append((key, payload))
    packets = []
    timestamp = 0.0
    for offset in range(0, workload.payload_bytes, _SEGMENT):
        for key, payload in streams:
            chunk = payload[offset : offset + _SEGMENT]
            if chunk:
                packets.append(Packet(key=key, payload=chunk, seq=offset, timestamp=timestamp))
                timestamp += 0.0001
    return packets


def _corpus_packets(workload: Workload, nfa: NFA, seed: int) -> list[Packet]:
    """A mixed-protocol capture from ``repro.traffic.corpora``.

    The corpus generator draws its attack payloads from the Becchi
    generator; the memoised walker stands in for it (same bytes, faster).
    """
    walker = BecchiWalker(nfa)
    profile = corpora.TraceProfile(
        workload.name, workload.payload_bytes, corpora.PROFILES[0].mix, workload.attack_density
    )
    original = corpora.generate_payload
    corpora.generate_payload = lambda _nfa, length, p, seed=0: walker.payload(length, p, seed)
    try:
        return corpora.corpus_packets(profile, _patterns(workload), seed=seed)
    finally:
        corpora.generate_payload = original


def _patterns(workload: Workload):
    return compile_patterns(list(ruleset(workload.ruleset).rules))


def build_capture(workload: Workload, seed: int) -> bytes:
    """The workload's pcap capture for ``seed`` (deterministic)."""
    nfa = build_nfa(_patterns(workload))
    if workload.traffic == "becchi":
        packets = _becchi_packets(workload, BecchiWalker(nfa), seed)
    else:
        packets = _corpus_packets(workload, nfa, seed)
    stream = io.BytesIO()
    write_pcap(stream, packets)
    return stream.getvalue()


def reassemble(capture: bytes) -> list:
    """The capture's flows exactly as ``resilient_scan`` reassembles them."""
    flows = []
    assembler = FlowAssembler(on_evict=flows.append)
    for packet in read_pcap(io.BytesIO(capture), errors="skip"):
        assembler.add(packet)
    flows.extend(assembler.flows())
    return [flow for flow in flows if flow.payload]


def flow_key(key: FiveTuple) -> str:
    return f"{key.proto}|{key.src_ip}|{key.src_port}|{key.dst_ip}|{key.dst_port}"


def _reference(workload: Workload, capture: bytes, cache_root: Path) -> dict:
    """Per-flow scalar-MFA events plus the capture's flow statistics."""
    mfa, _hit = compile_mfa_cached(
        list(ruleset(workload.ruleset).rules), cache=ArtifactCache(cache_root / "artifacts")
    )
    flows = reassemble(capture)
    events: dict[str, list[list[int]]] = {}
    for flow in flows:
        found = [[event.pos, event.match_id] for event in mfa.run(flow.payload)]
        if found:
            events.setdefault(flow_key(flow.key), []).extend(found)
    return {
        "flows": len(flows),
        "payload_bytes": sum(len(flow.payload) for flow in flows),
        "events": {key: sorted(found) for key, found in events.items()},
    }


def prepare(workload: Workload, seed: int, cache_root: Path) -> Path:
    """Make (or reuse) the capture and reference for one seed; returns
    the directory holding ``capture.pcap`` and ``reference.json``."""
    inputs = cache_root / "inputs"
    target = inputs / f"{workload.name}-s{seed}-v{GENERATOR_VERSION}"
    if (target / "reference.json").is_file():
        target.touch()
        return target
    staging = inputs / f".{target.name}.tmp"
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)
    capture = build_capture(workload, seed)
    (staging / "capture.pcap").write_bytes(capture)
    reference = _reference(workload, capture, cache_root)
    (staging / "reference.json").write_text(json.dumps(reference))
    shutil.rmtree(target, ignore_errors=True)
    staging.rename(target)
    _prune(inputs, workload.name)
    return target


def _prune(inputs: Path, name: str) -> None:
    cached = sorted(
        inputs.glob(f"{name}-s*-v*"), key=lambda path: path.stat().st_mtime, reverse=True
    )
    for stale in cached[_KEEP_PER_WORKLOAD:]:
        shutil.rmtree(stale, ignore_errors=True)
