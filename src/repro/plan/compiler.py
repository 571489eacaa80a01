"""Logical→physical compilation and alpha-equivalence cache keys.

Both query languages compile into one IR (:mod:`repro.plan.ir`):

* **Conjunctive queries** — relational body atoms are ordered either by the
  cost-based optimizer (:func:`repro.plan.optimizer.choose_join_order`, used
  whenever the caller supplies a fact set to profile and the body has at
  least two relational atoms) or by the static syntactic order
  (:func:`repro.queries.evaluation.order_body`) when no statistics are
  available; the first atom becomes a :class:`~repro.plan.ir.ScanNode` and
  each later one the build side of a :class:`~repro.plan.ir.HashJoinNode`
  keyed on every variable already bound; constants and repeated variables
  push into the scans, each constant as a numbered **parameter slot** that
  every execution binds (:func:`plan_params`); builtin atoms become
  :class:`~repro.plan.ir.FilterNode` predicates at the earliest point all
  their variables are bound (ground builtins become per-execution
  prefilters). Optimized plans carry per-operator cardinality estimates, a
  :class:`~repro.plan.optimizer.PlanFeedback` for the adaptive loop.
* **Algebra trees** — ``Selection*``-over-``Product*`` chains are flattened;
  ``Col = Col`` equalities across product leaves become hash-join keys,
  per-leaf equalities push into the scans, and every other condition becomes
  the cheapest applicable filter. Nodes outside the known vocabulary raise
  :class:`~repro.plan.ir.PlanError`.

Cache keys quotient out variable naming and, for conjunctive queries, the
constants of relational body atoms. A conjunctive key holds relation names,
variables numbered by first occurrence (head first, then body in written
order), the head's and builtin atoms' constants as values, a parameter
slot number (0, 1, ... in written order) for every relational body
constant, and the builtin-registry token. It names no symbol ID, so it is
rendered once per query object and kept, with the query's parameter
values, in the query's ``_plan_shape`` slot (re-rendered only after its
builtin registry changes). Two alpha-equivalent queries — and two queries
that differ only in body constants, such as ``ans(v) <- R('k1', v)`` and
``ans(v) <- R('k2', v)`` — therefore share one key and one compiled plan,
the cache-hit property the per-world evaluation loops and point lookups
rely on (tested in ``tests/property/test_plan_equivalence.py`` and
``tests/property/test_plan_params.py``). Algebra keys intern their
constants to symbol-table IDs, and an algebra plan keeps them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.symbols import global_table
from repro.exceptions import ModelError
from repro.model.terms import Constant, Variable
from repro.plan.cache import shared_plan_cache
from repro.plan.ir import (
    BuiltinPredicate,
    ColEqualsCol,
    ColEqualsConst,
    ComparePredicate,
    CompiledPlan,
    ConditionPredicate,
    FilterNode,
    HashJoinNode,
    Lit,
    PlanError,
    PlanNode,
    Predicate,
    ProjectNode,
    ScanNode,
    UnionPlanNode,
    UnitNode,
)
from repro.queries.conjunctive import ConjunctiveQuery


# -- canonical keys ------------------------------------------------------------

def _render_cq_shape(query) -> Tuple[Tuple, Tuple]:
    """``(key, parameter values)`` of a conjunctive query.

    Variables are numbered −1, −2, ... by first occurrence (head first,
    then body in written order). Head and builtin constants stay in the key
    as :class:`Constant` terms (compared by value, never equal to a
    variable number); each constant of a relational body atom becomes the
    next parameter slot number 0, 1, ... and its value the next parameter
    value.
    """
    numbers: Dict[Variable, int] = {}
    values: List = []

    def tokens(args, parameters: bool) -> Tuple:
        out = []
        for term in args:
            if isinstance(term, Constant):
                if parameters:
                    out.append(len(values))
                    values.append(term.value)
                else:
                    out.append(term)
            else:
                token = numbers.get(term)
                if token is None:
                    token = numbers[term] = -len(numbers) - 1
                out.append(token)
        return tuple(out)

    registry = query.builtins
    head = (query.head.relation, tokens(query.head.args, False))
    body = []
    builtin_names = []
    for atom in query.body:
        if registry.is_builtin(atom.relation):
            builtin_names.append(atom.relation)
            body.append((1, atom.relation, tokens(atom.args, False)))
        else:
            body.append((0, atom.relation, tokens(atom.args, True)))
    key = ("cq", head, tuple(body), _registry_token(registry, builtin_names))
    return key, tuple(values)


def _cq_shape(query) -> Tuple[Tuple, Tuple]:
    """The query's ``(key, parameter values)``, rendered on first use.

    Kept in the query's ``_plan_shape`` slot with the version of its
    builtin registry: a :meth:`~repro.queries.builtins.BuiltinRegistry.register`
    since then re-renders it, because which atoms are builtins, and what
    they compute, may have changed.
    """
    version = query.builtins.version
    shape = query._plan_shape
    if shape is None or shape[0] != version:
        shape = (version, *_render_cq_shape(query))
        query._plan_shape = shape
    return shape[1], shape[2]


def _registry_token(registry, names) -> object:
    """Cache-key component identifying the *behavior* of used builtins.

    Builtin-free queries share plans across registries (token 0). For the
    rest, a plain function with no closure, defaults, or bound self is
    identified by its code object — every ``default_registry()`` call builds
    a fresh registry, but around the same module-level functions, so
    independently parsed queries still share plans (a plan captures its
    builtins at compile time, so its code objects live as long as it does).
    Anything fancier (closures, partials) falls back to the registry itself
    and its version, held by the key. *names* are the builtin relations
    the query's body uses.
    """
    if not names:
        return 0
    parts = []
    for name in sorted(set(names)):
        builtin = registry.get(name)
        if builtin is None:
            return ("registry", registry, registry.version)
        predicate = builtin.predicate
        code = getattr(predicate, "__code__", None)
        if (
            code is None
            or getattr(predicate, "__closure__", None)
            or getattr(predicate, "__defaults__", None)
            or getattr(predicate, "__kwdefaults__", None)
            or getattr(predicate, "__self__", None) is not None
        ):
            return ("registry", registry, registry.version)
        parts.append((name, builtin.arity, id(code)))
    return ("builtins", tuple(parts))


def _condition_key(condition, table) -> Tuple:
    from repro.algebra.conditions import (
        And,
        Col,
        Comparison,
        Not,
        Or,
        TrueCondition,
    )

    def operand_token(operand) -> Tuple:
        if isinstance(operand, Col):
            return ("col", operand.index)
        value = operand.value if isinstance(operand, Constant) else operand
        return ("val", table.constant(value))

    if isinstance(condition, TrueCondition):
        return ("true",)
    if isinstance(condition, Comparison):
        return (
            "cmp",
            operand_token(condition.lhs),
            condition.op,
            operand_token(condition.rhs),
        )
    if isinstance(condition, And):
        return ("and",) + tuple(_condition_key(p, table) for p in condition.parts)
    if isinstance(condition, Or):
        return ("or",) + tuple(_condition_key(p, table) for p in condition.parts)
    if isinstance(condition, Not):
        return ("not", _condition_key(condition.part, table))
    raise PlanError(f"no canonical key for condition {condition!r}")


def _algebra_key(node, table) -> Tuple:
    from repro.algebra.ast import (
        Product,
        Projection,
        RelationScan,
        Selection,
        UnionNode,
    )

    if type(node) is RelationScan:
        return ("scan", table.relation(node.relation), node.arity)
    if type(node) is Selection:
        return (
            "sel",
            _condition_key(node.condition, table),
            _algebra_key(node.child, table),
        )
    if type(node) is Projection:
        columns = []
        for c in node.columns:
            if isinstance(c, int):
                columns.append(("col", c))
            elif isinstance(c, Constant):
                columns.append(("lit", table.constant(c.value)))
            else:
                raise PlanError(f"unsupported projection column {c!r}")
        return ("proj", tuple(columns), _algebra_key(node.child, table))
    if type(node) is Product:
        return (
            "prod",
            _algebra_key(node.left, table),
            _algebra_key(node.right, table),
        )
    if type(node) is UnionNode:
        return (
            "union",
            _algebra_key(node.left, table),
            _algebra_key(node.right, table),
        )
    raise PlanError(f"no plan translation for algebra node {type(node).__name__}")


def plan_key(query, table) -> Tuple:
    """The alpha-equivalence cache key of a query (CQ or algebra tree).

    A conjunctive query's key names no symbol ID: *table* is read only for
    algebra trees.
    """
    if isinstance(query, ConjunctiveQuery):
        return _cq_shape(query)[0]
    from repro.algebra.ast import AlgebraQuery

    if isinstance(query, AlgebraQuery):
        try:
            return ("ra", _algebra_key(query, table))
        except ModelError as exc:  # unhashable literal
            raise PlanError(str(exc)) from exc
    raise PlanError(f"not a plannable query: {type(query).__name__}")


def plan_params(query, table) -> Optional[Tuple[int, ...]]:
    """The constant IDs *query* binds to its plan's parameter slots.

    The constants of a conjunctive query's relational body atoms, in
    written order, looked up in *table* (the plan's table) and never
    interned, so a read leaves the table as it was; ``()`` for an algebra
    tree, whose plan fixes its constants at compile time. Call it after
    the database's core is built, so every stored value is interned.
    ``None`` when a value is not in *table*: no fact holds it, so the query
    has no answers, and :func:`~repro.plan.executor.execute_plan` returns
    none without executing. Bound per call, so a rollback that frees and
    reassigns a constant's ID cannot leave a stale binding.
    """
    params = _bind(query, table.find_constant)
    return None if None in params else params


def _interned_params(query, table) -> Tuple[int, ...]:
    """:func:`plan_params` with every value interned: the binding EXPLAIN
    and EXPLAIN ANALYZE render, which names a constant no database holds
    too."""
    return _bind(query, table.constant)


def _bind(query, lookup) -> Tuple:
    if isinstance(query, ConjunctiveQuery):
        values = _cq_shape(query)[1]
        if values:
            return tuple(map(lookup, values))
    return ()


# -- conjunctive-query compilation ---------------------------------------------

def _builtin_predicate(atom, registry, var_cols: Dict[Variable, int]) -> Predicate:
    specs = []
    for term in atom.args:
        if isinstance(term, Constant):
            specs.append(("val", term.value))
        else:
            specs.append(("col", var_cols[term]))
    builtin = registry.get(atom.relation)
    if builtin is None:
        raise PlanError(f"unknown builtin: {atom.relation}")
    return BuiltinPredicate(builtin, tuple(specs))


def _scan_for_atom(atom, table, first_slot: int) -> Tuple[ScanNode, List[Variable]]:
    """A pushdown scan for one relational body atom, plus its output
    variables in order.

    The atom's constants become parameter slots *first_slot*,
    *first_slot* + 1, ... in argument order.
    """
    const_eq: List[Tuple[int, int]] = []
    dup_eq: List[Tuple[int, int]] = []
    first_pos: Dict[Variable, int] = {}
    output: List[int] = []
    out_vars: List[Variable] = []
    for i, term in enumerate(atom.args):
        if isinstance(term, Constant):
            const_eq.append((i, ~(first_slot + len(const_eq))))
        else:
            first = first_pos.get(term)
            if first is None:
                first_pos[term] = i
                output.append(i)
                out_vars.append(term)
            else:
                dup_eq.append((first, i))
    scan = ScanNode(
        atom.relation,
        table.relation(atom.relation),
        atom.arity,
        tuple(const_eq),
        tuple(dup_eq),
        tuple(output),
    )
    return scan, out_vars


def _compile_cq(
    query,
    table,
    key: Tuple,
    stats=None,
    overrides=None,
    feedback=None,
) -> CompiledPlan:
    """Compile one conjunctive query, cost-based when *stats* is given.

    With statistics (and at least two relational atoms) the join order comes
    from :func:`repro.plan.optimizer.choose_join_order`, per-operator
    ``est_rows`` are annotated, and the plan carries a
    :class:`~repro.plan.optimizer.PlanFeedback` (*feedback*, or a fresh one)
    for the adaptive loop; *overrides* are observed scan cardinalities from
    a previous execution, fed back during re-optimization. Without
    statistics the static ``order_body`` order is kept unchanged. Either
    way the plan serves every query of *query*'s shape: its relational
    constants are parameter slots, numbered in written order.
    """
    from repro.plan.optimizer import (
        FILTER_SELECTIVITY,
        PlanFeedback,
        choose_join_order,
        optimizer_counters,
    )
    from repro.queries.evaluation import order_positions

    registry = query.builtins
    relational = query.relational_body()
    prefilters: List[Predicate] = []
    pending = []
    for atom in query.builtin_body():
        if atom.is_ground():
            prefilters.append(_builtin_predicate(atom, registry, {}))
        else:
            pending.append(atom)

    # Scans in written order, so parameter slots follow the key's numbering
    # whatever order the joins take.
    scans = []
    param_count = 0
    for atom in relational:
        scan, out_vars = _scan_for_atom(atom, table, param_count)
        param_count += len(scan.const_eq)
        scans.append((scan, out_vars, atom))

    counters = optimizer_counters()
    optimized = stats is not None and len(relational) >= 2
    optimizer_info: Optional[str] = None
    if optimized:
        order = choose_join_order(scans, stats, overrides)
        steps = [(o.scan, o.out_vars, o.scan_est, o.result_est) for o in order.ordered]
        counters.bump("plans_optimized")
        if feedback is None:
            feedback = PlanFeedback()
        optimizer_info = (
            f"{order.method} join order over {len(steps)} atoms, "
            f"est cost {order.total_cost:.0f}"
        )
        if feedback.reopt_count:
            optimizer_info += f" (reopt #{feedback.reopt_count})"
    else:
        steps = [
            (scans[i][0], scans[i][1], None, None)
            for i in order_positions(relational)
        ]
        feedback = None
        counters.bump("plans_static")

    root: Optional[PlanNode] = None
    var_cols: Dict[Variable, int] = {}
    width = 0
    scan_nodes: List[ScanNode] = []
    prev_est: Optional[float] = None
    for scan, out_vars, scan_est, result_est in steps:
        scan.est_rows = scan_est
        scan_nodes.append(scan)
        if root is None:
            root = scan
            for j, v in enumerate(out_vars):
                var_cols[v] = j
            width = scan.width
            prev_est = scan_est
        else:
            left_keys: List[int] = []
            right_keys: List[int] = []
            fresh: List[Tuple[int, Variable]] = []
            for j, v in enumerate(out_vars):
                bound_col = var_cols.get(v)
                if bound_col is None:
                    fresh.append((j, v))
                else:
                    left_keys.append(bound_col)
                    right_keys.append(j)
            root = HashJoinNode(root, scan, tuple(left_keys), tuple(right_keys))
            root.est_rows = result_est
            for j, v in fresh:
                var_cols[v] = width + j
            width += scan.width
            prev_est = result_est
        still = []
        for b in pending:
            if all(v in var_cols for v in b.variables()):
                root = FilterNode(root, _builtin_predicate(b, registry, var_cols))
                if prev_est is not None:
                    prev_est = prev_est * FILTER_SELECTIVITY
                    root.est_rows = prev_est
            else:
                still.append(b)
        pending = still

    if pending:
        # Safety (checked at query construction) should make this impossible.
        raise PlanError(f"builtin atoms with unbindable variables: {pending}")
    if root is None:
        root = UnitNode()

    columns = []
    for term in query.head.args:
        if isinstance(term, Constant):
            columns.append(Lit(table.constant(term.value)))
        else:
            col = var_cols.get(term)
            if col is None:
                raise PlanError(f"unsafe head variable {term} survived safety")
            columns.append(col)
    root = ProjectNode(root, tuple(columns))
    root.est_rows = prev_est
    return CompiledPlan(
        "cq", root, tuple(prefilters), query.head.relation, table, key,
        str(query), param_count=param_count, optimizer_info=optimizer_info,
        scan_nodes=tuple(scan_nodes), feedback=feedback,
    )


# -- algebra compilation -------------------------------------------------------

def _strip_selections(node) -> Tuple[List, object]:
    """Peel nested selections: ``(conditions, core)`` with core not a Selection."""
    from repro.algebra.ast import Selection

    conditions: List = []
    while type(node) is Selection:
        conditions.append(node.condition)
        node = node.child
    return conditions, node


def _product_leaves(node) -> List:
    from repro.algebra.ast import Product

    if type(node) is Product:
        return _product_leaves(node.left) + _product_leaves(node.right)
    return [node]


def _flatten_and(conditions) -> List:
    from repro.algebra.conditions import And, TrueCondition

    flat: List = []
    stack = list(conditions)
    while stack:
        condition = stack.pop(0)
        if isinstance(condition, And):
            stack = list(condition.parts) + stack
        elif isinstance(condition, TrueCondition):
            continue
        else:
            flat.append(condition)
    return flat


def _literal_value(operand):
    return operand.value if isinstance(operand, Constant) else operand


def _compile_select_product(conditions, core, table) -> PlanNode:
    """``Selection*`` over ``Product*``: flatten, push down, hash-join."""
    from repro.algebra.conditions import Col, Comparison

    leaves = _product_leaves(core)
    compiled = [_compile_algebra(leaf, table) for leaf in leaves]
    widths = [n.width for n in compiled]
    offsets: List[int] = []
    acc = 0
    for w in widths:
        offsets.append(acc)
        acc += w
    total_width = acc

    def leaf_of(col: int) -> int:
        if not 0 <= col < total_width:
            raise PlanError(f"σ condition references column {col} out of range")
        for i in range(len(leaves) - 1, -1, -1):
            if col >= offsets[i]:
                return i
        raise PlanError("unreachable")

    # Pushdown accumulators for leaves that are plain scans.
    extra_const: Dict[int, List[Tuple[int, int]]] = {}
    extra_dup: Dict[int, List[Tuple[int, int]]] = {}
    join_pairs: List[Tuple[int, int]] = []      # cross-leaf equalities (lo, hi)
    filters: List[Tuple[int, Predicate]] = []   # (needed_width, predicate)

    def pushable(i: int) -> bool:
        return type(compiled[i]) is ScanNode

    for condition in _flatten_and(conditions):
        if isinstance(condition, Comparison):
            lhs, rhs, op = condition.lhs, condition.rhs, condition.op
            lhs_col = isinstance(lhs, Col)
            rhs_col = isinstance(rhs, Col)
            if lhs_col and rhs_col and op in ("=", "=="):
                lo, hi = sorted((lhs.index, rhs.index))
                li, hi_leaf = leaf_of(lo), leaf_of(hi)
                if li == hi_leaf and pushable(li):
                    extra_dup.setdefault(li, []).append(
                        (lo - offsets[li], hi - offsets[li])
                    )
                elif li == hi_leaf:
                    filters.append((hi + 1, ColEqualsCol(lo, hi)))
                else:
                    join_pairs.append((lo, hi))
                continue
            if lhs_col != rhs_col and op in ("=", "=="):
                col = lhs.index if lhs_col else rhs.index
                value = _literal_value(rhs if lhs_col else lhs)
                try:
                    cid = table.constant(value)
                except ModelError as exc:
                    raise PlanError(str(exc)) from exc
                i = leaf_of(col)
                if pushable(i):
                    extra_const.setdefault(i, []).append((col - offsets[i], cid))
                else:
                    filters.append((col + 1, ColEqualsConst(col, cid)))
                continue
            # Non-equality (or literal-literal) comparison → value filter.
            lhs_spec = ("col", lhs.index) if lhs_col else ("val", _literal_value(lhs))
            rhs_spec = ("col", rhs.index) if rhs_col else ("val", _literal_value(rhs))
            needed_cols = []
            if lhs_col:
                needed_cols.append(lhs.index)
            if rhs_col:
                needed_cols.append(rhs.index)
            needed = 1 + max(needed_cols, default=-1)
            filters.append((needed, ComparePredicate(lhs_spec, op, rhs_spec)))
            continue
        # Or/Not/unknown conditions run boxed over the complete row.
        filters.append((total_width, ConditionPredicate(condition)))

    for i, extras in extra_const.items():
        scan = compiled[i]
        compiled[i] = ScanNode(
            scan.relation, scan.rid, scan.arity,
            scan.const_eq + tuple(sorted(extras)),
            scan.dup_eq, scan.output,
        )
    for i, extras in extra_dup.items():
        scan = compiled[i]
        compiled[i] = ScanNode(
            scan.relation, scan.rid, scan.arity, scan.const_eq,
            scan.dup_eq + tuple(sorted(extras)), scan.output,
        )

    filters.sort(key=lambda pair: pair[0])

    def attach_ready(root: PlanNode, acc_width: int) -> PlanNode:
        while filters and filters[0][0] <= acc_width:
            root = FilterNode(root, filters.pop(0)[1])
        return root

    root = compiled[0]
    acc_width = widths[0]
    root = attach_ready(root, acc_width)
    for i in range(1, len(compiled)):
        hi_lo, hi_hi = offsets[i], offsets[i] + widths[i]
        left_keys: List[int] = []
        right_keys: List[int] = []
        remaining: List[Tuple[int, int]] = []
        for lo, hi in join_pairs:
            if hi_lo <= hi < hi_hi and lo < hi_lo:
                left_keys.append(lo)
                right_keys.append(hi - hi_lo)
            else:
                remaining.append((lo, hi))
        join_pairs = remaining
        root = HashJoinNode(
            root, compiled[i], tuple(left_keys), tuple(right_keys)
        )
        acc_width += widths[i]
        root = attach_ready(root, acc_width)
    if join_pairs or filters:
        raise PlanError("σ conditions left unattached after join build")
    return root


def _compile_algebra(node, table) -> PlanNode:
    from repro.algebra.ast import (
        Product,
        Projection,
        RelationScan,
        Selection,
        UnionNode,
    )

    if type(node) is RelationScan:
        return ScanNode(
            node.relation,
            table.relation(node.relation),
            node.arity,
            (),
            (),
            tuple(range(node.arity)),
        )
    if type(node) is Selection or type(node) is Product:
        conditions, core = _strip_selections(node)
        return _compile_select_product(conditions, core, table)
    if type(node) is Projection:
        child = _compile_algebra(node.child, table)
        columns = []
        for c in node.columns:
            if isinstance(c, int):
                if not 0 <= c < child.width:
                    raise PlanError(f"projection column {c} out of range")
                columns.append(c)
            elif isinstance(c, Constant):
                try:
                    columns.append(Lit(table.constant(c.value)))
                except ModelError as exc:
                    raise PlanError(str(exc)) from exc
            else:
                raise PlanError(f"unsupported projection column {c!r}")
        return ProjectNode(child, tuple(columns))
    if type(node) is UnionNode:
        children: List[PlanNode] = []
        stack = [node]
        while stack:
            item = stack.pop()
            if type(item) is UnionNode:
                stack.append(item.right)
                stack.append(item.left)
            else:
                children.append(_compile_algebra(item, table))
        children.reverse()
        return UnionPlanNode(children)
    raise PlanError(f"no plan translation for algebra node {type(node).__name__}")


# -- entry points --------------------------------------------------------------

def compile_query(query, table, stats=None) -> CompiledPlan:
    """Compile one query (CQ or algebra) to a :class:`CompiledPlan`."""
    key = plan_key(query, table)
    return compile_with_key(query, table, key, stats=stats)


def compile_with_key(
    query, table, key: Tuple, stats=None, overrides=None, feedback=None
) -> CompiledPlan:
    """Compile with a precomputed cache key; see :func:`_compile_cq`.

    Statistics only influence conjunctive queries — algebra trees keep their
    structural order (their columns are positional, so reordering products
    would change answers, not just cost).
    """
    from repro.queries.conjunctive import ConjunctiveQuery

    if isinstance(query, ConjunctiveQuery):
        return _compile_cq(
            query, table, key, stats=stats, overrides=overrides,
            feedback=feedback,
        )
    root = _compile_algebra(query, table)
    return CompiledPlan("algebra", root, (), None, table, key, repr(query))


def plan_for(query, cache=None, table=None, facts=None) -> CompiledPlan:
    """The cached plan for *query*'s shape, compiling on first sight.

    Every query of one shape — equal up to variable names and the
    constants of relational body atoms — shares one plan, whose parameter
    slots each execution binds to its own query's constants
    (:func:`plan_params`); the key is rendered once per query object. A
    hit serves only a plan compiled against *table*: an entry compiled
    against another symbol table is recompiled and replaced.

    *facts* (an :class:`~repro.core.factset.IFactSet`) turns on cost-based
    compilation: first sight profiles the fact set through the statistics
    catalog and optimizes against it. A hit on a plan of two or more
    relational atoms that was compiled statically (without facts — a
    static EXPLAIN, say) is replaced by the cost-based plan, and a hit
    whose runtime feedback marked the plan stale is **re-optimized** —
    recompiled against the current statistics with the observed scan
    cardinalities overriding the estimates that proved wrong. Every other
    hit is a dictionary lookup.

    Raises :class:`~repro.plan.ir.PlanError` when the query cannot be
    planned.
    """
    if table is None:
        table = global_table()
    if cache is None:
        cache = shared_plan_cache()
    key = plan_key(query, table)
    hit, plan = cache.lookup(key)
    feedback = None
    if hit and plan.table is table:
        if facts is None:
            return plan
        feedback = plan.feedback
        if feedback is None:
            if len(plan.scan_nodes) < 2:
                return plan
        elif not feedback.stale:
            return plan
    from repro.plan.statistics import statistics_for

    stats = statistics_for(facts) if facts is not None else None
    if feedback is not None:
        from repro.plan.optimizer import PlanFeedback, optimizer_counters

        plan = compile_with_key(
            query, table, key,
            stats=stats,
            overrides=dict(feedback.observed),
            feedback=PlanFeedback(reopt_count=feedback.reopt_count + 1),
        )
        optimizer_counters().bump("reoptimizations")
    else:
        plan = compile_with_key(query, table, key, stats=stats)
    cache.store(key, plan)
    return plan
