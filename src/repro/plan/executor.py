"""Plan execution over interned fact sets, with per-database operator caches.

A :class:`PlanDataSource` wraps one :class:`~repro.core.factset.IFactSet`
and memoizes the two physical artifacts plans read:

* **column indexes** — one hash index per ``(relation id, arity, key
  positions)``: the relation's argument tuples bucketed on the values at
  those positions, built in one pass over the fact set's ``grouped()``
  tuples. A scan with constant equalities reads only its bucket, and a hash
  join whose build side is a scan probes the index row by row, so a
  relation is passed over once per data source (when its index is built),
  not once per lookup or per join execution;
* **scan row sets** — the pushdown-filtered, projected rows of each distinct
  :class:`~repro.plan.ir.ScanNode` a plan reads whole (a plan's first scan,
  a cross product's build side), keyed by the scan's shape with its
  parameter slots bound (:meth:`~repro.plan.ir.ScanNode.cache_key`): two
  point lookups of one shared plan read two cached row sets.

Every operator runs under one **binding**: ``params``, the constant IDs of
the query being answered, in parameter-slot order
(:func:`repro.plan.compiler.plan_params`).

A data source lives on its fact set (:meth:`IFactSet.derived
<repro.core.factset.IFactSet.derived>`), so evaluating many queries over
one database — or re-evaluating a workload over the same possible worlds —
reuses every index instead of rebuilding it per call, and a superseded
version's indexes leave the heap with the version: a backtracking join
re-derives candidate sets per query per world, while the plan path
amortizes them across the whole workload.

The decode back to boxed answers (:class:`~repro.model.atoms.Atom` facts for
conjunctive queries, rows of :class:`~repro.model.terms.Constant` for the
algebra) happens once per *distinct answer*, not per derivation, through
the symbol table's shared terms and the trusted
:meth:`~repro.model.atoms.Atom.from_constants` (:func:`decode_answers`).
"""

from __future__ import annotations

import threading
from itertools import chain
from operator import itemgetter
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.factset import IFactSet
from repro.model.atoms import Atom
from repro.plan.ir import (
    CompiledPlan,
    FilterNode,
    HashJoinNode,
    PlanError,
    PlanNode,
    ProjectNode,
    ScanNode,
    UnionPlanNode,
    UnitNode,
)

Rows = Tuple[Tuple[int, ...], ...]

#: A hash index: key (one value, or a tuple of values for several key
#: columns, as :func:`operator.itemgetter` renders it) to the rows holding it.
Index = Dict[object, Sequence[Tuple[int, ...]]]

_EMPTY_ROWS: Rows = ()


class PlanDataSource:
    """Cached column indexes and scan rows over one immutable fact set.

    Holds the set's ``grouped()`` tuples and symbol table, never the set:
    the source lives on its fact set and must not keep it alive.
    """

    __slots__ = (
        "grouped", "table", "_scans", "_columns", "_sizes", "__weakref__",
    )

    def __init__(self, facts: IFactSet):
        self.grouped = facts.grouped()
        self.table = facts.table
        self._scans: Dict[Tuple, Rows] = {}
        self._columns: Dict[Tuple[int, int, Tuple[int, ...]], Index] = {}
        self._sizes: Dict[Tuple[int, int], int] = {}

    def scan_rows(self, node: ScanNode, params: Sequence[int] = ()) -> Rows:
        """The scan's output rows under *params* (computed once per scan
        shape and binding)."""
        key = node.cache_key(params)
        rows = self._scans.get(key)
        if rows is None:
            rows = self._build_scan(node, node.bind(params))
            self._scans[key] = rows
        return rows

    def _build_scan(self, node: ScanNode, const_eq) -> Rows:
        if const_eq:
            key = (
                const_eq[0][1] if len(const_eq) == 1
                else tuple(cid for _pos, cid in const_eq)
            )
            index = self.column_index(node.rid, node.arity, node.positions)
            bucket = index.get(key)
            # The bucket holds exactly the tuples of this arity with these
            # constants at these positions: only dup_eq and output remain.
            return _scan_filter(node, bucket, ()) if bucket else _EMPTY_ROWS
        grouped = self.grouped.get(node.rid)
        if not grouped:
            return _EMPTY_ROWS
        if node.plain:
            arity = node.arity
            return tuple(args for args in grouped if len(args) == arity)
        return _scan_filter(node, grouped, const_eq)

    def column_index(
        self, rid: int, arity: int, positions: Tuple[int, ...]
    ) -> Index:
        """Relation *rid*'s arity-*arity* tuples bucketed on *positions*.

        Built in one pass on first use, then cached for the data source's
        lifetime; *positions* must be non-empty.
        """
        key = (rid, arity, positions)
        index = self._columns.get(key)
        if index is None:
            building = _build_index(
                self.grouped.get(rid, _EMPTY_ROWS), positions, arity
            )
            # Buckets are frozen to tuples: the index lives as long as the
            # data source, and the garbage collector stops tracking a tuple
            # of int tuples but traverses a list on every full collection.
            index = {k: tuple(bucket) for k, bucket in building.items()}
            self._columns[key] = index
            self._sizes[rid, arity] = sum(map(len, index.values()))
        return index

    def scan_size(
        self, node: ScanNode, params: Sequence[int] = ()
    ) -> Optional[int]:
        """The scan's row count under *params* if already known, else
        ``None``.

        Known when the scan's rows were built, or — for a plain scan, whose
        rows are the relation's tuples — once any column index over its
        relation and arity was. Never builds anything: the runtime-feedback
        pass reads actual scan cardinalities through this, so recording
        observations costs no work the plan's own execution did not pay.
        """
        rows = self._scans.get(node.cache_key(params))
        if rows is not None:
            return len(rows)
        if node.plain:
            return self._sizes.get((node.rid, node.arity))
        return None

    def cached_artifacts(self) -> Tuple[int, int]:
        """``(scan_count, column_index_count)`` currently memoized."""
        return len(self._scans), len(self._columns)


def _scan_filter(
    node: ScanNode, rows: Sequence[Tuple[int, ...]], const_eq
) -> Rows:
    """Argument tuples through a scan's pushdowns and projection, deduped;
    *const_eq* is the scan's constant equalities under one binding."""
    arity = node.arity
    dup_eq = node.dup_eq
    kept = []
    for args in rows:
        if len(args) != arity:
            continue
        ok = True
        for pos, cid in const_eq:
            if args[pos] != cid:
                ok = False
                break
        if ok:
            for first, later in dup_eq:
                if args[first] != args[later]:
                    ok = False
                    break
        if ok:
            kept.append(args)
    return _project(node.output, kept)


def _project(columns: Tuple, rows: Sequence[Tuple[int, ...]]) -> Rows:
    """*rows* through projection *columns*, deduplicated in first-seen order.

    Plain positions are picked by one :func:`operator.itemgetter` (a slice
    for one column, so rows stay 1-tuples); :class:`~repro.plan.ir.Lit`
    columns and zero-width heads take the per-row path.
    """
    if columns and all(isinstance(c, int) for c in columns):
        if len(columns) == 1:
            pick = itemgetter(slice(columns[0], columns[0] + 1))
        else:
            pick = itemgetter(*columns)
        return tuple(dict.fromkeys(map(pick, rows)))
    return tuple(dict.fromkeys(
        tuple(row[c] if isinstance(c, int) else c.cid for c in columns)
        for row in rows
    ))


def _build_index(
    rows: Sequence[Tuple[int, ...]],
    key_cols: Tuple[int, ...],
    arity: Optional[int] = None,
) -> Dict[object, List[Tuple[int, ...]]]:
    """Hash *rows* on *key_cols* in one pass; rows whose width is not
    *arity* (when given) are skipped."""
    key_of = itemgetter(*key_cols)
    building: Dict[object, List[Tuple[int, ...]]] = {}
    get = building.get
    for row in rows:
        if arity is not None and len(row) != arity:
            continue
        key = key_of(row)
        bucket = get(key)
        if bucket is None:
            building[key] = [row]
        else:
            bucket.append(row)
    return building


# -- one data source per fact set --------------------------------------------

_BUILT_LOCK = threading.Lock()
_BUILT = 0


def _build_source(facts: IFactSet) -> PlanDataSource:
    global _BUILT
    with _BUILT_LOCK:
        _BUILT += 1
    return PlanDataSource(facts)


def data_source_for(facts: IFactSet) -> PlanDataSource:
    """The :class:`PlanDataSource` of a fact set, built on first use.

    It is kept on the fact set itself, so it lives exactly as long as the
    set: every query over one database shares it, and it is freed with
    the database.
    """
    return facts.derived(_build_source)


def data_sources_built() -> int:
    """How many data sources were built in this process (for ``--stats``)."""
    return _BUILT


# -- the interpreter -----------------------------------------------------------

def _probed_scan(node: ScanNode, get, const_eq):
    """A bucket lookup that runs each probed bucket through *node*'s scan
    (its constant equalities bound to *const_eq*).

    For build-side scans that are not plain: a bucket holds raw argument
    tuples, so each distinct probed key is filtered, projected and
    deduplicated once per join execution. Keys are join columns, which the
    scan emits, so per-bucket deduplication equals :meth:`scan_rows`'s.
    """
    scanned: Dict[object, Rows] = {}

    def lookup(key) -> Rows:
        rows = scanned.get(key)
        if rows is None:
            bucket = get(key)
            rows = _scan_filter(node, bucket, const_eq) if bucket else _EMPTY_ROWS
            scanned[key] = rows
        return rows

    return lookup


def _hash_join(
    node: HashJoinNode,
    left_rows: Sequence[Tuple[int, ...]],
    right_rows: Optional[Sequence[Tuple[int, ...]]],
    source: PlanDataSource,
    params: Sequence[int],
) -> List[Tuple[int, ...]]:
    """Join *left_rows* against the build side.

    *right_rows* is ``None`` when the build side is a :class:`ScanNode`: a
    keyed join then probes the data source's column index on the scan's
    key positions, with no per-execution pass over the relation, and a
    cross product reads the scan's cached rows. Other build sides arrive
    materialized and are hashed here.
    """
    out: List[Tuple[int, ...]] = []
    if not left_rows:
        return out
    right = node.right
    left_keys = node.left_keys
    if not left_keys:
        if right_rows is None:
            right_rows = source.scan_rows(right, params)
        for lrow in left_rows:
            for rrow in right_rows:
                out.append(lrow + rrow)
        return out
    if right_rows is None:
        output = right.output
        get = source.column_index(
            right.rid, right.arity, tuple(output[c] for c in node.right_keys)
        ).get
        if not right.plain:
            get = _probed_scan(right, get, right.bind(params))
    else:
        get = _build_index(right_rows, node.right_keys).get
    probe = itemgetter(*left_keys)
    for lrow in left_rows:
        matches = get(probe(lrow))
        if matches:
            for rrow in matches:
                out.append(lrow + rrow)
    return out


def _run(
    node: PlanNode, source: PlanDataSource, params: Sequence[int]
) -> Sequence[Tuple[int, ...]]:
    node_type = type(node)
    if node_type is ScanNode:
        return source.scan_rows(node, params)
    if node_type is HashJoinNode:
        left_rows = _run(node.left, source, params)
        if not left_rows:
            return _EMPTY_ROWS
        right = node.right
        right_rows = (
            None if type(right) is ScanNode else _run(right, source, params)
        )
        return _hash_join(node, left_rows, right_rows, source, params)
    if node_type is FilterNode:
        predicate = node.predicate
        table = source.table
        return [
            row
            for row in _run(node.child, source, params)
            if predicate.evaluate(row, table)
        ]
    if node_type is ProjectNode:
        return _project(node.columns, _run(node.child, source, params))
    if node_type is UnitNode:
        return ((),)
    if node_type is UnionPlanNode:
        return tuple(dict.fromkeys(chain.from_iterable(
            _run(child, source, params) for child in node.children
        )))
    raise PlanError(f"unknown plan node {node_type.__name__}")


def record_feedback(
    plan: CompiledPlan,
    source: PlanDataSource,
    result_count: int,
    params: Sequence[int] = (),
) -> None:
    """Fold one execution's observations into the plan's feedback loop.

    Only free observations are taken: scan cardinalities come off what the
    data source already built (:meth:`PlanDataSource.scan_size`) under the
    execution's binding *params*, and the result count is the length the
    caller already has. Observations are kept by scan shape, not by
    binding, so a plan serving many bindings keeps one entry per scan. A
    q-error beyond the re-optimization threshold flips ``feedback.stale`` —
    the plan cache re-optimizes on its next hit.
    """
    from repro.plan.optimizer import optimizer_counters

    feedback = plan.feedback
    if feedback is None:
        return
    counters = optimizer_counters()
    for scan in plan.scan_nodes:
        actual = source.scan_size(scan, params)
        if actual is None:
            continue
        feedback.observed[scan.shape] = actual
        counters.record_q_error(feedback.record(scan.est_rows, actual))
    if plan.root.est_rows is not None:
        counters.record_q_error(
            feedback.record(plan.root.est_rows, result_count)
        )


def execute_plan(
    plan: CompiledPlan,
    source: PlanDataSource,
    params: Optional[Sequence[int]] = (),
) -> FrozenSet[Tuple[int, ...]]:
    """Run a compiled plan under one binding of its parameter slots.

    *params* are the constant IDs of the query being answered
    (:func:`repro.plan.compiler.plan_params`); answers are rows of
    constant IDs. ``None`` — a query constant no fact holds — answers
    nothing, without executing.
    """
    if params is None:
        return frozenset()  # boxed-ok: ints
    if len(params) != plan.param_count:
        raise PlanError(
            f"plan binds {plan.param_count} parameter(s), got {len(params)}"
        )
    table = source.table
    for predicate in plan.prefilters:
        if not predicate.evaluate((), table):
            return frozenset()  # boxed-ok: ints
    rows = frozenset(_run(plan.root, source, params))  # boxed-ok: ints
    if plan.feedback is not None:
        record_feedback(plan, source, len(rows), params)
    return rows


# -- boxed entry points --------------------------------------------------------

def decode_answers(plan: CompiledPlan, rows) -> FrozenSet[Atom]:
    """A conjunctive-query plan's ID rows as boxed head facts.

    Cells are the symbol table's shared terms, so a constant is boxed once
    and not per answer; facts come from the trusted
    :meth:`~repro.model.atoms.Atom.from_constants`.
    """
    term = plan.table.constant_term
    head_relation = plan.head_relation
    make = Atom.from_constants
    return frozenset(
        make(head_relation, tuple(map(term, row))) for row in rows
    )


def evaluate(query, database) -> FrozenSet[Atom]:
    """``Q(D)`` for a conjunctive query, through the plan pipeline.

    Answer-identical to :func:`repro.queries.evaluation.evaluate_naive`
    (differentially tested), compiled once per query shape and bound to
    the query's constants, indexes shared per database.
    """
    from repro.plan.compiler import plan_for, plan_params

    core = database.core()
    plan = plan_for(query, facts=core)
    rows = execute_plan(
        plan, data_source_for(core), plan_params(query, plan.table)
    )
    return decode_answers(plan, rows)


def evaluate_rows(algebra_query, database) -> FrozenSet[Tuple]:
    """Algebra-tree evaluation to rows of boxed constants.

    Raises :class:`~repro.plan.ir.PlanError` for trees outside the compiled
    vocabulary.
    """
    from repro.plan.compiler import plan_for

    core = database.core()
    plan = plan_for(algebra_query, facts=core)
    rows = execute_plan(plan, data_source_for(core))
    term = plan.table.constant_term
    return frozenset(tuple(map(term, row)) for row in rows)


def format_est(value: float) -> str:
    """Render a cardinality estimate for EXPLAIN (integers above ten)."""
    if value >= 10 or value == int(value):
        return f"{value:.0f}"
    return f"{value:.2f}"


def _estimate_suffix(node: PlanNode) -> str:
    est = node.est_rows
    if est is None:
        return ""
    return f"  (est={format_est(est)} rows)"


def explain_text(plan: CompiledPlan, query, annotate=None) -> str:
    """*plan* rendered for *query*: its header line and its constants."""
    from repro.plan.compiler import _interned_params

    return plan.explain(
        annotate,
        _interned_params(query, plan.table),
        str(query) if plan.kind == "cq" else None,
    )


def explain(query, table=None, database=None) -> str:
    """The EXPLAIN rendering of a query's (cached) physical plan.

    With a *database*, the plan is compiled cost-based against its
    statistics and each operator line carries the optimizer's cardinality
    estimate; without one the rendering is the plan as cached (static on
    first sight). Either way the header and the scans' constants are
    *query*'s own, whichever query of its shape compiled the plan.
    """
    from repro.plan.compiler import plan_for

    facts = database.core() if database is not None else None
    plan = plan_for(query, table=table, facts=facts)
    annotate = _estimate_suffix if plan.optimizer_info else None
    return explain_text(plan, query, annotate)
