"""Parallel consistency checking over independent source groups.

Two sources *interact* only through the global relations their view bodies
mention: a database assigns each relation its extension independently, so a
collection splits into connected components of the "shares a body relation"
graph, and ``poss(S)`` is the product of the components' possible-world
sets. Consequently S is consistent iff every component is, and a witness
for S is the union of per-component witnesses.

Each component's decision is an independent task — the same shape as the
confidence engine's Monte-Carlo chunks — so this module reuses the engine's
executors (:mod:`repro.confidence.engine.executors`) to run the component
checks across worker processes. The merge is deterministic: components are
ordered by their smallest source name, results are combined in that order.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.model.database import GlobalDatabase
from repro.sources.collection import SourceCollection
from repro.confidence.engine.executors import make_executor
from repro.consistency.checker import check_consistency
from repro.consistency.result import ConsistencyResult


def independent_groups(collection: SourceCollection) -> List[SourceCollection]:
    """Split a collection into relation-disjoint source groups.

    Connected components of the graph joining sources whose view bodies
    share a global relation; ordered by smallest source name so the split
    (and everything downstream) is deterministic.
    """
    sources = list(collection)
    parent = list(range(len(sources)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        parent[find(i)] = find(j)

    # Union-find keyed by interned relation IDs: one dict probe per body
    # atom on ints instead of strings (relation names intern once, up
    # front, in the process-wide symbol table).
    from repro.core.symbols import global_table

    intern_relation = global_table().relation
    by_relation: Dict[int, int] = {}
    for index, source in enumerate(sources):
        for atom in source.view.relational_body():
            rid = intern_relation(atom.relation)
            if rid in by_relation:
                union(index, by_relation[rid])
            else:
                by_relation[rid] = index

    components: Dict[int, List[int]] = {}
    for index in range(len(sources)):
        components.setdefault(find(index), []).append(index)
    groups = [
        SourceCollection([sources[i] for i in members])
        for members in components.values()
    ]
    groups.sort(key=lambda g: min(s.name for s in g))
    return groups


def _check_group(group: SourceCollection) -> ConsistencyResult:
    """Worker body: decide one independent group (picklable, top level)."""
    return check_consistency(group)


def check_consistency_parallel(
    collection: SourceCollection,
    workers: int = 0,
    executor=None,
) -> ConsistencyResult:
    """Decide CONSISTENCY by checking independent source groups in parallel.

    Semantics match :func:`~repro.consistency.checker.check_consistency`:
    consistent iff every group is, with the union of group witnesses; the
    first (in group order) inconsistent group decides a negative verdict,
    and its decisiveness carries over. With one group (or no parallelism
    requested) this is plain ``check_consistency``.
    """
    groups = independent_groups(collection)
    if len(groups) <= 1:
        return check_consistency(collection)

    own_executor = executor is None
    executor = executor if executor is not None else make_executor(workers)
    try:
        results = executor.map(_check_group, groups)
    finally:
        if own_executor:
            executor.close()

    combinations = sum(r.combinations_tried for r in results)
    method = f"independent-groups[{len(groups)}]"
    witness: Optional[GlobalDatabase] = GlobalDatabase()
    for result in results:
        if not result.consistent:
            return ConsistencyResult(
                consistent=False,
                decisive=result.decisive,
                method=f"{method}:{result.method}",
                combinations_tried=combinations,
            )
        witness = witness.union(result.witness)
    return ConsistencyResult(
        consistent=True,
        witness=witness,
        decisive=True,
        method=method,
        combinations_tried=combinations,
    )
