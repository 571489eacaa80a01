"""``worlds``: certain and possible answers over poss(S) (paper §5).

A closed loop with one caller. Every op is ``answer_query`` — the path of
the ``answer`` command — on a fresh seeded consistent collection of five
join views over ``R/2``, ``P/1`` and ``Q/1`` with two constants: a fact
space of 8, so each op enumerates 256 candidate worlds, checks each with
``SourceCollection.admits`` and evaluates the query on the admitted ones
through ``repro.plan``. 256 distinct tiny databases per op is twice the
128 entries of the plan layer's data-source cache, so the cache cannot
hold a sweep, and the confidence engine stays idle.

Collections are consistent by construction: a hidden world is drawn, each
view's content over it is perturbed (``repro.workloads.perturb``), and the
declared bounds stay below the measured ones.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import floor
from typing import List

from repro.confidence import answer_query
from repro.model import Atom, GlobalDatabase
from repro.queries import evaluate_naive, parse_rule
from repro.sources import SourceCollection, SourceDescriptor
from repro.workloads.perturb import perturb_extension

from perfbench.common import (
    Digest,
    OpLog,
    closed_loop,
    percentile_tail,
    rng_for,
)

#: ``tail_ms`` percentile: a 15 s run has about 400 ops, so p90 keeps
#: about 40 samples beyond it.
TAIL_Q = 0.9

VIEW_RULES = (
    "V1(x) <- R(x, y), P(y)",
    "V2(x, y) <- R(x, y)",
    "V3(y) <- P(y)",
    "V4(x) <- R(x, y), Q(y)",
    "V5(x) <- Q(x)",
)
QUERY_RULES = (
    "ans(x) <- R(x, y), P(y)",
    "ans(x, y) <- R(x, y), Q(y)",
)
RELATIONS = (("P", 1), ("Q", 1), ("R", 2))

SIZES = {
    "full": {"constants": 2, "drop": 0.3, "corrupt": 0.2, "slack": 0.3},
    "tiny": {"constants": 1, "drop": 0.3, "corrupt": 0.2, "slack": 0.3},
}

DIGEST_OPS = 16


def fact_space(domain) -> List[Atom]:
    """Every fact over the workload's schema and *domain*, sorted."""
    return sorted(
        Atom(relation, args)
        for relation, arity in RELATIONS
        for args in product(domain, repeat=arity)
    )


class Op:
    __slots__ = ("cls", "collection", "query")

    def __init__(self, cls, collection, query):
        self.cls = cls
        self.collection = collection
        self.query = query


class Inputs:
    def __init__(self, seed: int, scale: str):
        self.seed = seed
        self.params = SIZES[scale]
        self.domain = [f"c{i}" for i in range(self.params["constants"])]
        self.space = fact_space(self.domain)
        self.views = [parse_rule(rule) for rule in VIEW_RULES]
        self.queries = [parse_rule(rule) for rule in QUERY_RULES]

    @staticmethod
    def admitted_worlds(log) -> int:
        """Worlds the timed ops admitted, as ``answer_query`` reported."""
        return sum(answer.world_count for _op, answer in filter(None, log.outputs))

    def op(self, i: int, stream: str = "op") -> Op:
        p = self.params
        rng = rng_for(self.seed, "worlds", stream, i)
        truth = GlobalDatabase(f for f in self.space if rng.random() < 0.5)
        sources = []
        for k, view in enumerate(self.views):
            intended = sorted(evaluate_naive(view, truth))
            result = perturb_extension(
                intended, p["drop"], p["corrupt"], self.domain, rng
            )
            sources.append(SourceDescriptor(
                view, result.extension,
                _under(result.completeness, p["slack"]),
                _under(result.soundness, p["slack"]),
                name=f"S{k + 1}",
            ))
        query = self.queries[i % len(self.queries)]
        return Op(f"query{i % len(self.queries) + 1}",
                  SourceCollection(sources), query)


def _under(measured: Fraction, slack: float) -> Fraction:
    """A declared bound at most *measured*, lowered by *slack* (in 1/20s)."""
    return Fraction(floor(measured * (1 - Fraction(str(slack))) * 20), 20)


def build(seed: int, scale: str) -> Inputs:
    return Inputs(seed, scale)


def digest(inputs: Inputs) -> str:
    d = Digest()
    d.add(sorted(inputs.params.items()), *inputs.domain)
    for i in range(DIGEST_OPS):
        op = inputs.op(i)
        d.add(op.cls, op.query)
        d.add_collection(op.collection)
    return d.hexdigest()


def warm(inputs: Inputs) -> None:
    for i in range(2):
        op = inputs.op(i, stream="warm")
        answer_query(op.query, op.collection, inputs.domain)


def run(inputs: Inputs, seconds: float, log: OpLog) -> float:
    domain = inputs.domain

    def run_op(op: Op):
        answer = answer_query(op.query, op.collection, domain)
        return op.cls, True, (op, answer)

    return closed_loop(log, seconds, inputs.op, run_op)


def brute_force(op: Op, space, domain):
    """poss(S) by subset enumeration with ``evaluate_naive`` and the
    Definition 2.1/2.2 measures: (certain, possible, confidences, worlds)."""
    sources = list(op.collection)
    certain = None
    counts = {}
    total = 0
    for mask in range(1 << len(space)):
        world = GlobalDatabase(f for j, f in enumerate(space) if mask >> j & 1)
        if not all(_bounds_hold(source, world) for source in sources):
            continue
        total += 1
        answers = evaluate_naive(op.query, world)
        for a in answers:
            counts[a] = counts.get(a, 0) + 1
        certain = set(answers) if certain is None else certain & answers
    confidences = {a: Fraction(c, total) for a, c in counts.items()}
    return frozenset(certain or ()), frozenset(counts), confidences, total


def _bounds_hold(source, world) -> bool:
    intended = evaluate_naive(source.view, world)
    extension = source.extension
    hits = len(extension & intended)
    completeness = Fraction(hits, len(intended)) if intended else Fraction(1)
    soundness = Fraction(hits, len(extension)) if extension else Fraction(1)
    return (completeness >= source.completeness_bound
            and soundness >= source.soundness_bound)


def tail(inputs: Inputs, log: OpLog):
    return percentile_tail(log, TAIL_Q)


def check(inputs: Inputs, log: OpLog) -> List[str]:
    mismatches: List[str] = []
    for i, output in enumerate(log.outputs):
        if output is None:
            continue
        op, answer = output
        certain, possible, confidences, total = brute_force(
            op, inputs.space, inputs.domain
        )
        if (answer.certain != certain or answer.possible != possible
                or answer.confidences != confidences
                or answer.world_count != total):
            mismatches.append(f"op {i}: answers differ from subset enumeration")
    return mismatches
