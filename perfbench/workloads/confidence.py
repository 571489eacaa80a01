"""``confidence``: exact tuple confidence by counting poss(S) (paper §5.1).

A closed loop with one caller. Every op builds a fresh seeded consistent
identity collection with ``repro.workloads.random_sources`` — five noisy
copies of a hidden set of 8 facts over 12 constants — and asks
``ConfidenceEngine(collection, domain).confidences()``, the paper's
central computation. Collections never repeat, so the shared memo holds
at most the sub-problems they happen to share and cannot hide the
signature-block decomposition or the kernel DP.

Counting cost depends on the instance's shape (Arenas, Barceló & Monet):
over all draws it spreads across two orders of magnitude, which would put
a few freak instances behind every tail percentile. A draw is therefore
kept only when its covered facts fall into exactly 8 signature
blocks (about one draw in four); op costs then stay within one order of
magnitude and still vary in block sizes, overlaps and bounds.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List

from repro.confidence import ConfidenceEngine, GammaSystem, IdentityInstance
from repro.model import fact
from repro.queries import identity_view
from repro.sources import SourceCollection, SourceDescriptor
from repro.workloads.random_sources import consistent_identity_collection

from perfbench.common import (
    Digest,
    OpLog,
    closed_loop,
    percentile_tail,
    rng_for,
)

#: ``tail_ms`` percentile: every op is one class (8-block collections),
#: and p90 lies inside the dense part of their cost (up to about 3000 DP
#: states); p95 sat where the sparser large instances begin and moved by
#: 13% with the seed's mix. A 15 s run has about 1500 ops, so p90 keeps
#: about 150 samples beyond it.
TAIL_Q = 0.9

SOURCES = 5

#: Generator parameters per scale: universe, hidden-truth size, rates, and
#: the signature blocks (distinct sets of sources holding a covered fact)
#: a kept collection has.
SIZES = {
    "full": {"universe": 12, "truth": 8, "drop": 0.2, "corrupt": 0.1,
             "blocks": 8},
    "tiny": {"universe": 8, "truth": 4, "drop": 0.2, "corrupt": 0.1,
             "blocks": 3},
}

#: Ops whose inputs enter the digest (a fixed prefix, so the digest does
#: not depend on how many ops a run reached).
DIGEST_OPS = 16

#: Small instances per run on which the kernel is checked against
#: brute-force Γ counting (2^8 assignments each).
ANCHOR_INSTANCES = 3


class Op:
    __slots__ = ("cls", "collection", "domain")

    def __init__(self, cls, collection, domain):
        self.cls = cls
        self.collection = collection
        self.domain = domain


class Inputs:
    def __init__(self, seed: int, scale: str):
        self.seed = seed
        self.params = SIZES[scale]

    def op(self, i: int, stream: str = "op") -> Op:
        p = self.params
        for draw in range(10000):
            collection, _truth, domain = consistent_identity_collection(
                SOURCES, p["universe"], p["truth"],
                drop_rate=p["drop"], corrupt_rate=p["corrupt"],
                rng=rng_for(self.seed, "confidence", stream, i, draw),
            )
            if signature_blocks(collection) == p["blocks"]:
                return Op("collection", collection, domain)
        raise RuntimeError(f"no collection with {p['blocks']} signature blocks")


def signature_blocks(collection) -> int:
    """Distinct non-empty sets of sources that hold a covered fact."""
    holders = {}
    for k, source in enumerate(collection):
        for f in source.extension:
            holders.setdefault(f.args, set()).add(k)
    return len({frozenset(ks) for ks in holders.values()})


def build(seed: int, scale: str) -> Inputs:
    return Inputs(seed, scale)


def digest(inputs: Inputs) -> str:
    d = Digest()
    d.add(sorted(inputs.params.items()))
    for i in range(DIGEST_OPS):
        op = inputs.op(i)
        d.add(op.cls, *op.domain)
        d.add_collection(op.collection)
    return d.hexdigest()


def warm(inputs: Inputs) -> None:
    for i in range(5):
        op = inputs.op(i, stream="warm")
        ConfidenceEngine(op.collection, op.domain).confidences()


def _run_op(op: Op):
    confidences = ConfidenceEngine(op.collection, op.domain).confidences()
    return op.cls, True, (op, confidences)


def run(inputs: Inputs, seconds: float, log: OpLog) -> float:
    return closed_loop(log, seconds, inputs.op, _run_op)


def tail(inputs: Inputs, log: OpLog):
    return percentile_tail(log, TAIL_Q)


def check(inputs: Inputs, log: OpLog) -> List[str]:
    """Every op against a cold, memo-off, serial engine, plus the anchors."""
    mismatches = anchor_mismatches(inputs.seed)
    for i, output in enumerate(log.outputs):
        if output is None:
            continue
        op, got = output
        expected = ConfidenceEngine(
            op.collection, op.domain, cache_size=0
        ).confidences()
        if got != expected:
            mismatches.append(f"op {i}: confidences differ from the memo-off engine")
    return mismatches


def example51():
    """The paper's Example 5.1 and its domain {a, b, c, d1}."""
    collection = SourceCollection([
        SourceDescriptor(identity_view("V1", "R", 1),
                         [fact("V1", "a"), fact("V1", "b")], "1/2", "1/2",
                         name="S1"),
        SourceDescriptor(identity_view("V2", "R", 1),
                         [fact("V2", "b"), fact("V2", "c")], "1/2", "1/2",
                         name="S2"),
    ])
    return collection, ["a", "b", "c", "d1"]


def anchor_mismatches(seed: int) -> List[str]:
    """The kernel against Example 5.1 and brute-force Γ counting."""
    out: List[str] = []
    collection, domain = example51()
    engine = ConfidenceEngine(collection, domain, cache_size=0)
    got = engine.confidences()
    want = {fact("R", "b"): Fraction(6, 7), fact("R", "a"): Fraction(4, 7),
            fact("R", "c"): Fraction(4, 7)}
    if got != want or engine.count_worlds() != 7:
        out.append(f"Example 5.1: engine gave {got}, |poss(S)|={engine.count_worlds()}")
    gamma = GammaSystem(IdentityInstance(collection, domain))
    if gamma.count_solutions() != 7 or any(
        gamma.confidence(f) != c for f, c in sorted(want.items())
    ):
        out.append("Example 5.1: brute-force Γ counting disagrees with the paper")
    for k in range(ANCHOR_INSTANCES):
        collection, _truth, domain = consistent_identity_collection(
            3, 8, 3, drop_rate=0.2, corrupt_rate=0.2,
            rng=rng_for(seed, "confidence", "anchor", k),
        )
        engine = ConfidenceEngine(collection, domain, cache_size=0)
        got = engine.confidences()
        gamma = GammaSystem(IdentityInstance(collection, domain))
        if engine.count_worlds() != gamma.count_solutions():
            out.append(f"anchor {k}: |poss(S)| differs from Γ counting")
        for f, c in sorted(got.items()):
            if gamma.confidence(f) != c:
                out.append(f"anchor {k}: confidence of {f} differs from Γ counting")
    return out
