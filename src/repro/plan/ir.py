"""The physical plan IR: interned scans, hash joins, filters, projections.

Plan nodes evaluate over rows of constant IDs (tuples of non-negative ints
from the process-wide :class:`~repro.core.symbols.SymbolTable`), never boxed
terms — the same discipline as :mod:`repro.core.views`, but generalized from
builtin-free view application to the full query surface (conjunctive queries
with builtins, and the σ/π/×/∪ algebra).

Operators:

* :class:`ScanNode` — one relation's extension with **build-side pushdown**:
  constant equalities and same-atom repeated-variable equalities are applied
  while scanning, before any join sees the rows; ``output`` then projects the
  scan down to the columns later operators need. A constant equality may
  name a **parameter slot** instead of a constant: the plan is then shared
  by every query of its shape, and each execution binds the slots to its
  own query's constant IDs (the ``params`` vector every operator receives).
* :class:`HashJoinNode` — equi-join; the right side is hash-indexed on its
  key columns (a scan's column index, cached per data source, when the
  right side is a scan).
* :class:`FilterNode` — a residual predicate at the earliest point where all
  the columns it mentions are bound.
* :class:`ProjectNode` — column picks plus :class:`Lit` literal columns.
* :class:`UnitNode` / :class:`UnionPlanNode` — the nullary row and union.

Every node renders itself for ``EXPLAIN`` (``repro.cli ... --explain``); the
rendering decodes IDs back to values through the owning symbol table, so the
output is readable while the runtime representation stays integer-only. A
parameter slot renders as the constant its binding names, or as ``$n``
when no binding is given.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from repro.exceptions import ReproError


class PlanError(ReproError):
    """A query (or query fragment) the plan compiler cannot handle.

    Raised during compilation — or when a plan is executed with a binding
    of the wrong length — and never caught into a fallback: an unsupported
    construct fails loudly instead of silently taking another path.
    """


def _decode(table, cid: int):
    return table.constant_value(cid)


# -- predicates ----------------------------------------------------------------

class Predicate:
    """A row predicate; ``evaluate(row, table) -> bool``."""

    __slots__ = ()

    def evaluate(self, row: Tuple[int, ...], table) -> bool:
        """Decide this predicate on one row of constant IDs."""
        raise NotImplementedError

    def explain(self, table) -> str:
        """Human-readable rendering, decoding IDs through *table*."""
        raise NotImplementedError


class ColEqualsConst(Predicate):
    """``row[col] == cid`` — an integer compare, no decoding."""

    __slots__ = ("col", "cid")

    def __init__(self, col: int, cid: int):
        self.col = col
        self.cid = cid

    def evaluate(self, row, table) -> bool:
        """Integer compare of one column against the interned constant."""
        return row[self.col] == self.cid

    def explain(self, table) -> str:
        """Render as ``colN = value`` with the constant decoded."""
        return f"col{self.col} = {_decode(table, self.cid)!r}"


class ColEqualsCol(Predicate):
    """``row[left] == row[right]`` — an integer compare, no decoding."""

    __slots__ = ("left", "right")

    def __init__(self, left: int, right: int):
        self.left = left
        self.right = right

    def evaluate(self, row, table) -> bool:
        """Integer compare of two columns of the row."""
        return row[self.left] == row[self.right]

    def explain(self, table) -> str:
        """Render as ``colL = colR``."""
        return f"col{self.left} = col{self.right}"


#: Argument spec of a value-level predicate: ``("col", i)`` reads (and
#: decodes) column *i*; ``("val", v)`` is a literal Python value.
ArgSpec = Tuple[str, Any]


def _resolve_spec(spec: ArgSpec, row, table):
    kind, payload = spec
    if kind == "col":
        return table.constant_value(row[payload])
    return payload


def _explain_spec(spec: ArgSpec) -> str:
    kind, payload = spec
    return f"col{payload}" if kind == "col" else repr(payload)


class ComparePredicate(Predicate):
    """A σ comparison over decoded values (non-equality, or non-scan sides).

    Mirrors :class:`repro.algebra.conditions.Comparison`: heterogeneous
    comparisons (``TypeError``) fail the predicate rather than aborting.
    """

    __slots__ = ("lhs", "op", "rhs", "_fn")

    def __init__(self, lhs: ArgSpec, op: str, rhs: ArgSpec):
        from repro.algebra.conditions import _OPS

        if op not in _OPS:
            raise PlanError(f"unknown comparison operator: {op!r}")
        self.lhs = lhs
        self.op = op
        self.rhs = rhs
        self._fn = _OPS[op]

    def evaluate(self, row, table) -> bool:
        """Decoded-value comparison; incomparable types compare false."""
        try:
            return bool(
                self._fn(
                    _resolve_spec(self.lhs, row, table),
                    _resolve_spec(self.rhs, row, table),
                )
            )
        except TypeError:
            return False

    def explain(self, table) -> str:
        """Render as ``lhs op rhs`` over column/literal specs."""
        return f"{_explain_spec(self.lhs)} {self.op} {_explain_spec(self.rhs)}"


class BuiltinPredicate(Predicate):
    """A builtin body atom applied at the earliest point its columns bind.

    The :class:`~repro.queries.builtins.Builtin` is captured at compile
    time, so a plan is a pure function of its cache key: the key names the
    builtins' code (or their registry and its version), and re-registering
    a builtin changes the key of every query over that registry.
    """

    __slots__ = ("builtin", "specs")

    def __init__(self, builtin, specs: Tuple[ArgSpec, ...]):
        self.builtin = builtin
        self.specs = specs

    def evaluate(self, row, table) -> bool:
        """Apply the builtin to the row's decoded arguments."""
        return self.builtin.check(
            _resolve_spec(spec, row, table) for spec in self.specs
        )

    def explain(self, table) -> str:
        """Render as ``name(args...)`` over column/literal specs."""
        inner = ", ".join(_explain_spec(s) for s in self.specs)
        return f"{self.builtin.name}({inner})"


class ConditionPredicate(Predicate):
    """Fallback for σ conditions with no faster translation (``Or``/``Not``).

    Decodes the whole row back to boxed constants and delegates to the
    original :class:`~repro.algebra.conditions.Condition` — correct for any
    condition, at boxed cost; only reached for condition shapes the compiler
    does not special-case.
    """

    __slots__ = ("condition",)

    def __init__(self, condition):
        self.condition = condition

    def evaluate(self, row, table) -> bool:
        """Decode the row to boxed constants and ask the condition."""
        return self.condition.evaluate(tuple(map(table.constant_term, row)))

    def explain(self, table) -> str:
        """Render the wrapped boxed condition."""
        return f"condition {self.condition!r}"


# -- plan nodes ----------------------------------------------------------------

class Lit:
    """A literal projection column: emits one interned constant."""

    __slots__ = ("cid",)

    def __init__(self, cid: int):
        self.cid = cid


class PlanNode:
    """Base class of physical plan nodes; ``width`` is the row arity.

    ``est_rows`` is the optimizer's cardinality estimate for this operator's
    output (``None`` on statically compiled plans); EXPLAIN prints it and
    EXPLAIN ANALYZE pairs it with the measured actual.
    """

    __slots__ = ("width", "est_rows")

    def children(self) -> Tuple["PlanNode", ...]:
        """This node's child operators, in rendering order."""
        return ()

    def explain_line(self, table, params=()) -> str:
        """One line of EXPLAIN text for this operator (no indentation)."""
        raise NotImplementedError

    def explain_into(
        self, table, lines: List[str], depth: int, annotate=None, params=()
    ) -> None:
        """Render this subtree into *lines*, one indented line per node.

        *annotate*, when given, maps a node to a suffix string — the hook
        EXPLAIN ANALYZE uses to append ``(est=… actual=…)`` per operator.
        *params* is the binding whose constants the scans render.
        """
        line = "  " * depth + self.explain_line(table, params)
        if annotate is not None:
            suffix = annotate(self)
            if suffix:
                line += suffix
        lines.append(line)
        for child in self.children():
            child.explain_into(table, lines, depth + 1, annotate, params)


class ScanNode(PlanNode):
    """Scan one relation with pushed-down selections and column projection.

    * ``const_eq`` — ``(arg_position, ref)`` equalities applied while
      scanning. A ref ``>= 0`` is a constant ID fixed in the plan (an
      algebra tree's σ(col = literal)); a ref ``< 0`` names parameter slot
      ``~ref``, which each execution binds (a constant of a conjunctive
      query's body atom). :meth:`bind` resolves the refs under one binding;
    * ``dup_eq`` — ``(first_position, later_position)`` equalities from
      repeated variables within one atom (or same-scan σ(col = col));
    * ``output`` — argument positions the scan emits, in order.

    Facts whose arity differs from ``arity`` are skipped, mirroring the
    boxed :class:`~repro.algebra.ast.RelationScan`. A ``plain`` scan has no
    pushdowns and emits every argument in order, so its rows are the
    relation's argument tuples themselves. ``positions`` are the
    ``const_eq`` positions, whose column index a scan with constants reads.
    ``shape`` identifies the scan within its plan whatever the binding (the
    feedback loop's key); :meth:`cache_key` identifies its rows under one
    binding.
    """

    __slots__ = (
        "relation", "rid", "arity", "const_eq", "dup_eq", "output", "plain",
        "positions", "shape", "_parametric",
    )

    def __init__(
        self,
        relation: str,
        rid: int,
        arity: int,
        const_eq: Tuple[Tuple[int, int], ...],
        dup_eq: Tuple[Tuple[int, int], ...],
        output: Tuple[int, ...],
    ):
        self.relation = relation
        self.rid = rid
        self.arity = arity
        self.const_eq = const_eq
        self.dup_eq = dup_eq
        self.output = output
        self.plain = (
            not const_eq and not dup_eq and output == tuple(range(arity))
        )
        self.positions = tuple(pos for pos, _ref in const_eq)
        self.shape = (rid, arity, const_eq, dup_eq, output)
        self._parametric = any(ref < 0 for _pos, ref in const_eq)
        self.width = len(output)
        self.est_rows = None

    def bind(self, params: Sequence[int]) -> Tuple[Tuple[int, int], ...]:
        """``const_eq`` with every parameter slot replaced by its constant
        ID in *params*."""
        if not self._parametric:
            return self.const_eq
        return tuple([
            (pos, ref if ref >= 0 else params[~ref])
            for pos, ref in self.const_eq
        ])

    def cache_key(self, params: Sequence[int] = ()) -> Tuple:
        """Identity of this scan's row set within one data source, under
        the binding *params*."""
        if not self._parametric:
            return self.shape
        return (self.rid, self.arity, self.bind(params), self.dup_eq, self.output)

    def explain_line(self, table, params=()) -> str:
        """One line: relation/arity, pushdowns, and emitted columns."""
        parts = [f"scan {self.relation}/{self.arity}"]
        for pos, ref in self.const_eq:
            if ref < 0 and ~ref >= len(params):
                value = f"${~ref}"
            else:
                value = repr(_decode(table, ref if ref >= 0 else params[~ref]))
            parts.append(f"[arg{pos} = {value}]")
        for first, later in self.dup_eq:
            parts.append(f"[arg{first} = arg{later}]")
        cols = ", ".join(f"arg{p}" for p in self.output)
        parts.append(f"-> ({cols})")
        return " ".join(parts)


class HashJoinNode(PlanNode):
    """Hash equi-join; output rows are ``left_row + right_row``.

    The left side streams and probes with ``left_keys`` into the right side
    indexed on ``right_keys``. Empty keys degrade to a cross product (the
    algebra's ×). A keyed join over a :class:`ScanNode` right side never
    materializes the scan: the left side probes the data source's cached
    column index on the scan's key positions, so repeated plans over one
    database build each index once and never re-read the relation. Any
    other right side is materialized and hashed per execution.
    """

    __slots__ = ("left", "right", "left_keys", "right_keys")

    def __init__(
        self,
        left: PlanNode,
        right: PlanNode,
        left_keys: Tuple[int, ...],
        right_keys: Tuple[int, ...],
    ):
        if len(left_keys) != len(right_keys):
            raise PlanError("join key lists must have equal length")
        self.left = left
        self.right = right
        self.left_keys = left_keys
        self.right_keys = right_keys
        self.width = left.width + right.width
        self.est_rows = None

    def children(self) -> Tuple[PlanNode, ...]:
        """The build (right) and probe (left) inputs."""
        return (self.left, self.right)

    def explain_line(self, table, params=()) -> str:
        """One line: join keys, or cross-product."""
        if self.left_keys:
            keys = ", ".join(
                f"left.col{l} = right.col{r}"
                for l, r in zip(self.left_keys, self.right_keys)
            )
            return f"hash-join [{keys}]"
        return "cross-product"


class FilterNode(PlanNode):
    """Apply one residual predicate to the child's rows."""

    __slots__ = ("child", "predicate")

    def __init__(self, child: PlanNode, predicate: Predicate):
        self.child = child
        self.predicate = predicate
        self.width = child.width
        self.est_rows = None

    def children(self) -> Tuple[PlanNode, ...]:
        """The single filtered input."""
        return (self.child,)

    def explain_line(self, table, params=()) -> str:
        """One line: the residual predicate, decoded."""
        return f"filter {self.predicate.explain(table)}"


class ProjectNode(PlanNode):
    """Pick/duplicate columns and emit literal columns; dedupes its output."""

    __slots__ = ("child", "columns")

    def __init__(self, child: PlanNode, columns: Tuple):
        self.child = child
        self.columns = columns
        self.width = len(columns)
        self.est_rows = None

    def children(self) -> Tuple[PlanNode, ...]:
        """The single projected input."""
        return (self.child,)

    def explain_line(self, table, params=()) -> str:
        """One line: emitted columns and literal constants."""
        cols = ", ".join(
            f"col{c}" if isinstance(c, int) else repr(_decode(table, c.cid))
            for c in self.columns
        )
        return f"project ({cols})"


class UnitNode(PlanNode):
    """One empty row — the join seed for queries with no relational body."""

    __slots__ = ()

    def __init__(self):
        self.width = 0
        self.est_rows = None

    def explain_line(self, table, params=()) -> str:
        """One line: the nullary seed row."""
        return "unit (one empty row)"


class UnionPlanNode(PlanNode):
    """Set union of same-width children (the algebra's ∪).

    ``children`` is a plain tuple attribute (shadowing the base method — the
    attribute predates it and tests rely on it), so this node keeps its own
    ``explain_into`` instead of the ``explain_line`` protocol.
    """

    __slots__ = ("children",)

    def __init__(self, children: Sequence[PlanNode]):
        self.children = tuple(children)
        if not self.children:
            raise PlanError("union of no children")
        self.width = self.children[0].width
        self.est_rows = None

    def explain_into(self, table, lines, depth, annotate=None, params=()) -> None:
        """Render ``union`` and recurse into every branch."""
        line = "  " * depth + f"union ({len(self.children)} branches)"
        if annotate is not None:
            suffix = annotate(self)
            if suffix:
                line += suffix
        lines.append(line)
        for child in self.children:
            child.explain_into(table, lines, depth + 1, annotate, params)


class CompiledPlan:
    """A compiled physical plan plus the context needed to run and explain it.

    * ``kind`` — ``"cq"`` (answers decode to head facts) or ``"algebra"``
      (answers decode to positional rows);
    * ``prefilters`` — ground builtin atoms, checked once per execution
      against the empty row (kept out of compile time so a cached plan stays
      a pure function of the query, not of any one evaluation);
    * ``key`` — the alpha-equivalence cache key the plan was stored under;
    * ``source_text`` — the query the plan was compiled from (EXPLAIN of
      another query of the same shape passes its own text);
    * ``param_count`` — how many parameter slots an execution binds (the
      constants of a conjunctive query's relational body atoms);
    * ``optimizer_info`` — ``None`` for statically ordered plans, else a
      short description of how the optimizer ordered the joins (printed in
      the EXPLAIN header);
    * ``scan_nodes`` — every :class:`ScanNode` in the plan, in join order
      (the runtime-feedback loop reads observed scan cardinalities off it);
    * ``feedback`` — the :class:`repro.plan.optimizer.PlanFeedback` attached
      by the optimizer, or ``None`` on static plans.
    """

    __slots__ = (
        "kind", "root", "prefilters", "head_relation", "table", "key",
        "source_text", "param_count", "optimizer_info", "scan_nodes",
        "feedback",
    )

    def __init__(
        self,
        kind: str,
        root: PlanNode,
        prefilters: Tuple[Predicate, ...],
        head_relation: Optional[str],
        table,
        key: Tuple,
        source_text: str,
        param_count: int = 0,
        optimizer_info: Optional[str] = None,
        scan_nodes: Tuple[ScanNode, ...] = (),
        feedback=None,
    ):
        self.kind = kind
        self.root = root
        self.prefilters = prefilters
        self.head_relation = head_relation
        self.table = table
        self.key = key
        self.source_text = source_text
        self.param_count = param_count
        self.optimizer_info = optimizer_info
        self.scan_nodes = scan_nodes
        self.feedback = feedback

    @property
    def width(self) -> int:
        """Number of columns the plan's answers carry."""
        return self.root.width

    def explain(self, annotate=None, params=(), source_text=None) -> str:
        """A human-readable rendering of the physical plan.

        *annotate* maps a plan node to a per-line suffix (EXPLAIN ANALYZE
        appends ``(est=… actual=…)`` through it); plain EXPLAIN passes none.
        *params* and *source_text* name the query being explained: its
        parameter binding and its text for the header (by default the
        compiled query's text, with parameter slots unbound).
        """
        text = self.source_text if source_text is None else source_text
        lines = [f"plan [{self.kind}] for: {text}"]
        if self.optimizer_info:
            lines.append(f"optimizer: {self.optimizer_info}")
        for predicate in self.prefilters:
            lines.append(f"prefilter {predicate.explain(self.table)}")
        self.root.explain_into(self.table, lines, 0, annotate, params)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"CompiledPlan({self.kind!r}, width={self.width})"
