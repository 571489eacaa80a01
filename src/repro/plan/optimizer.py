"""The cost-based adaptive optimizer: join order, build sides, feedback.

The static compiler orders a conjunctive body with ``order_body`` — a purely
syntactic most-bound-first heuristic that cannot see that ``Big`` holds
20 000 rows and ``Tiny`` holds 12. This module prices orders with the
statistics catalog (:mod:`repro.plan.statistics`) instead:

* **scan estimates** — relation cardinality × the selectivity of the scan's
  pushed-down equalities. A constant of a conjunctive body is a parameter
  slot, which the plan serves for every value, so it is priced at its
  column's mean frequency, ``1 / distinct`` — cardinality / distinct rows —
  and a plan is a function of its query's shape and the statistics, not of
  the constants of whichever query compiled it; skewed values show up as
  q-errors in the runtime feedback below. Repeated-variable equalities use
  ``1 / max(distinct)``.
* **join estimates** — the textbook ``|L|·|R| / ∏ max(d_L(v), d_R(v))``
  over the shared variables, with per-variable distinct counts carried
  through the intermediate states.
* **order search** — exhaustive dynamic programming over atom subsets
  (Selinger-style, cost = total intermediate rows) for bodies of at most
  :data:`DP_THRESHOLD` relational atoms, greedy cheapest-next-join above
  it. Both tie-break deterministically, so a plan is a pure function of
  (query shape, statistics).
* **runtime feedback** — every optimized plan carries a
  :class:`PlanFeedback`; executions record actual vs estimated
  cardinalities, and a q-error beyond :data:`REOPT_RATIO` marks the plan
  stale. The next plan-cache hit re-optimizes against the *observed*
  cardinalities (capped by :data:`MAX_REOPTS_PER_PLAN` so an adversarial
  workload cannot thrash the compiler).

Answers never change: the optimizer only permutes join order, and the
property suite pins optimized ≡ backtracking ≡ naive on randomized
databases.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple

from repro.plan.statistics import TableStatistics

#: Bodies with at most this many relational atoms get the exact
#: dynamic-programming order search; larger bodies fall back to greedy.
DP_THRESHOLD = 7

#: A plan whose estimated/actual cardinality ratio (q-error) exceeds this
#: on any recorded operator is marked stale and re-optimized on the next
#: plan-cache hit.
REOPT_RATIO = 8.0

#: Ignore mis-estimates where both sides are below this many rows — the
#: plans are indistinguishable down there and re-optimizing is pure churn.
REOPT_MIN_ROWS = 16

#: After this many re-optimizations one plan is pinned as-is.
MAX_REOPTS_PER_PLAN = 3

#: Selectivity charged to a residual (builtin / comparison) filter when
#: annotating estimates; filters never participate in the order search.
FILTER_SELECTIVITY = 1.0 / 3.0


# -- global optimizer health counters ------------------------------------------

class OptimizerCounters:
    """Process-wide optimizer health counters (thread-safe, monotonic)."""

    __slots__ = (
        "_lock", "plans_optimized", "plans_static", "dp_orders",
        "greedy_orders", "feedback_checks",
        "misestimates", "reoptimizations", "q_error_sum", "q_error_count",
        "max_q_error",
    )

    def __init__(self):
        self._lock = threading.Lock()
        self.plans_optimized = 0
        self.plans_static = 0
        self.dp_orders = 0
        self.greedy_orders = 0
        self.feedback_checks = 0
        self.misestimates = 0
        self.reoptimizations = 0
        self.q_error_sum = 0.0
        self.q_error_count = 0
        self.max_q_error = 0.0

    def record_q_error(self, q: float) -> None:
        """Fold one observed estimate-vs-actual q-error into the counters."""
        with self._lock:
            self.feedback_checks += 1
            self.q_error_sum += q
            self.q_error_count += 1
            if q > self.max_q_error:
                self.max_q_error = q

    def bump(self, name: str, amount: int = 1) -> None:
        """Increment one named counter."""
        with self._lock:
            setattr(self, name, getattr(self, name) + amount)

    def snapshot(self) -> Dict[str, object]:
        """A JSON-serializable view (``plan_stats()`` / service ``stats()``)."""
        with self._lock:
            mean = (
                self.q_error_sum / self.q_error_count
                if self.q_error_count else None
            )
            return {
                "plans_optimized": self.plans_optimized,
                "plans_static": self.plans_static,
                "dp_orders": self.dp_orders,
                "greedy_orders": self.greedy_orders,
                "feedback_checks": self.feedback_checks,
                "misestimates": self.misestimates,
                "reoptimizations": self.reoptimizations,
                "mean_q_error": mean,
                "max_q_error": self.max_q_error or None,
            }

    def reset(self) -> None:
        """Zero every counter (tests and benchmarks)."""
        with self._lock:
            self.plans_optimized = 0
            self.plans_static = 0
            self.dp_orders = 0
            self.greedy_orders = 0
            self.feedback_checks = 0
            self.misestimates = 0
            self.reoptimizations = 0
            self.q_error_sum = 0.0
            self.q_error_count = 0
            self.max_q_error = 0.0


_COUNTERS = OptimizerCounters()


def optimizer_counters() -> OptimizerCounters:
    """The process-wide :class:`OptimizerCounters` singleton."""
    return _COUNTERS


def optimizer_stats() -> Dict[str, object]:
    """The counters as plain data (exposed under ``plan_stats()['optimizer']``)."""
    return _COUNTERS.snapshot()


def reset_optimizer_stats() -> None:
    """Zero the process-wide counters (tests and benchmarks)."""
    _COUNTERS.reset()


# -- runtime feedback ----------------------------------------------------------

def q_error(estimated: Optional[float], actual: int) -> float:
    """The symmetric over/under-estimation ratio (1.0 = perfect)."""
    if estimated is None:
        return 1.0
    est = max(float(estimated), 0.0) + 1.0
    act = float(actual) + 1.0
    return max(est / act, act / est)


class PlanFeedback:
    """Actual-vs-estimated cardinalities observed while running one plan.

    ``observed`` maps a scan's ``shape`` to the actual row count its
    pushed-down scan produced under the latest binding — exactly the
    overrides the re-optimization pass feeds back into the cost model. It
    is keyed by shape, not by binding, so it holds one entry per scan
    however many queries the plan serves. ``stale`` flips when any recorded
    operator mis-estimates beyond :data:`REOPT_RATIO`; the plan cache acts
    on it at the next hit.
    """

    __slots__ = ("observed", "checks", "max_q_error", "stale", "reopt_count")

    def __init__(self, reopt_count: int = 0):
        self.observed: Dict[Tuple, int] = {}
        self.checks = 0
        self.max_q_error = 1.0
        self.stale = False
        self.reopt_count = reopt_count

    def record(self, estimated: Optional[float], actual: int) -> float:
        """Fold one operator observation in; returns its q-error."""
        q = q_error(estimated, actual)
        self.checks += 1
        if q > self.max_q_error:
            self.max_q_error = q
        significant = max(
            actual, estimated if estimated is not None else 0
        ) >= REOPT_MIN_ROWS
        if (
            q > REOPT_RATIO
            and significant
            and self.reopt_count < MAX_REOPTS_PER_PLAN
            and not self.stale
        ):
            self.stale = True
            _COUNTERS.bump("misestimates")
        return q


# -- cardinality estimation ----------------------------------------------------

def estimate_scan(
    scan,
    stats: TableStatistics,
    overrides: Optional[Dict[Tuple, int]] = None,
) -> float:
    """Estimated output rows of one pushed-down scan.

    An override (observed actual from a previous execution of the same scan
    shape) wins outright; otherwise cardinality × pushdown selectivity from
    the exact per-column distinct counts: a constant equality (a parameter
    slot — only conjunctive bodies are optimized) at its column's mean
    frequency, ``1 / distinct``.
    """
    if overrides:
        observed = overrides.get(scan.shape)
        if observed is not None:
            return float(observed)
    relation = stats.relation(scan.rid)
    if relation is None:
        return 0.0
    est = float(relation.cardinality)
    for position, _slot in scan.const_eq:
        column = relation.column(position)
        if column is None or not column.distinct:
            return 0.0
        est /= float(column.distinct)
    for first, later in scan.dup_eq:
        distincts = [
            c.distinct
            for c in (relation.column(first), relation.column(later))
            if c is not None and c.distinct
        ]
        est /= float(max(distincts)) if distincts else 1.0
    return est


def _scan_var_distincts(scan, out_vars, stats, est: float) -> Dict[object, float]:
    """Per-output-variable distinct-count estimates of one scan."""
    relation = stats.relation(scan.rid)
    distincts: Dict[object, float] = {}
    for j, variable in enumerate(out_vars):
        position = scan.output[j]
        column = relation.column(position) if relation is not None else None
        d = float(column.distinct) if column is not None else 1.0
        distincts[variable] = max(1.0, min(d, est if est >= 1.0 else 1.0))
    return distincts


def estimate_join(
    left_rows: float,
    left_distincts: Dict[object, float],
    right_rows: float,
    right_distincts: Dict[object, float],
) -> Tuple[float, Dict[object, float]]:
    """``|L ⨝ R|`` and the merged per-variable distincts of the result."""
    est = left_rows * right_rows
    shared = [v for v in right_distincts if v in left_distincts]
    for v in shared:
        est /= max(left_distincts[v], right_distincts[v], 1.0)
    merged: Dict[object, float] = {}
    for v, d in left_distincts.items():
        merged[v] = min(d, est) if est >= 1.0 else 1.0
    for v, d in right_distincts.items():
        merged.setdefault(v, min(d, est) if est >= 1.0 else 1.0)
    return est, merged


# -- join-order search ---------------------------------------------------------

class OrderedScan:
    """One scan in the chosen order, with its cost-model annotations."""

    __slots__ = ("scan", "out_vars", "atom", "scan_est", "result_est")

    def __init__(self, scan, out_vars, atom, scan_est: float, result_est: float):
        self.scan = scan
        self.out_vars = out_vars
        self.atom = atom
        self.scan_est = scan_est
        self.result_est = result_est


class JoinOrder:
    """The optimizer's verdict: ordered scans plus bookkeeping for EXPLAIN."""

    __slots__ = ("ordered", "method", "total_cost")

    def __init__(self, ordered: List[OrderedScan], method: str, total_cost: float):
        self.ordered = ordered
        self.method = method
        self.total_cost = total_cost


def _tie_key(item) -> Tuple:
    """Deterministic tie-break: relation name, scan shape, body position."""
    scan, _out_vars, _atom, index = item
    return (scan.relation, scan.shape, index)


def choose_join_order(
    items: Sequence[Tuple],
    stats: TableStatistics,
    overrides: Optional[Dict[Tuple, int]] = None,
) -> JoinOrder:
    """Pick a join order for ``(scan, out_vars, atom)`` triples.

    Dynamic programming (exact over the cost metric) below
    :data:`DP_THRESHOLD`, greedy cheapest-next-join above. The cost metric
    is the classic C\\ :sub:`out` — the sum of estimated intermediate result
    sizes — which is also what the executor's materializing interpreter
    actually pays.
    """
    indexed = [
        (scan, out_vars, atom, i) for i, (scan, out_vars, atom) in enumerate(items)
    ]
    scan_ests = [estimate_scan(scan, stats, overrides) for scan, _v, _a, _i in indexed]
    var_dists = [
        _scan_var_distincts(scan, out_vars, stats, scan_ests[i])
        for i, (scan, out_vars, _a, _i2) in enumerate(indexed)
    ]
    if len(indexed) <= 1:
        ordered = [
            OrderedScan(s, v, a, scan_ests[i], scan_ests[i])
            for i, (s, v, a, _j) in enumerate(indexed)
        ]
        return JoinOrder(ordered, "trivial", sum(scan_ests))
    if len(indexed) <= DP_THRESHOLD:
        order, cost = _dp_order(indexed, scan_ests, var_dists)
        method = "dp"
        _COUNTERS.bump("dp_orders")
    else:
        order, cost = _greedy_order(indexed, scan_ests, var_dists)
        method = "greedy"
        _COUNTERS.bump("greedy_orders")
    ordered: List[OrderedScan] = []
    acc_rows = 0.0
    acc_dists: Dict[object, float] = {}
    for step, i in enumerate(order):
        scan, out_vars, atom, _j = indexed[i]
        if step == 0:
            acc_rows = scan_ests[i]
            acc_dists = dict(var_dists[i])
        else:
            acc_rows, acc_dists = estimate_join(
                acc_rows, acc_dists, scan_ests[i], var_dists[i]
            )
        ordered.append(OrderedScan(scan, out_vars, atom, scan_ests[i], acc_rows))
    return JoinOrder(ordered, method, cost)


def _greedy_order(indexed, scan_ests, var_dists) -> Tuple[List[int], float]:
    """Cheapest start, then cheapest next join; deterministic tie-breaks."""
    remaining = list(range(len(indexed)))
    start = min(remaining, key=lambda i: (scan_ests[i], _tie_key(indexed[i])))
    remaining.remove(start)
    order = [start]
    acc_rows = scan_ests[start]
    acc_dists = dict(var_dists[start])
    cost = acc_rows
    while remaining:
        best_i = None
        best_est: Tuple = ()
        for i in remaining:
            est, _merged = estimate_join(
                acc_rows, acc_dists, scan_ests[i], var_dists[i]
            )
            candidate = (est, _tie_key(indexed[i]))
            if best_i is None or candidate < best_est:
                best_i, best_est = i, candidate
        remaining.remove(best_i)
        order.append(best_i)
        acc_rows, acc_dists = estimate_join(
            acc_rows, acc_dists, scan_ests[best_i], var_dists[best_i]
        )
        cost += acc_rows
    return order, cost


def _dp_order(indexed, scan_ests, var_dists) -> Tuple[List[int], float]:
    """Selinger-style DP over atom subsets; exact for the C_out metric."""
    n = len(indexed)
    # state: bitmask -> (cost, rows, distincts, order-tuple)
    states: Dict[int, Tuple[float, float, Dict[object, float], Tuple[int, ...]]] = {}
    for i in range(n):
        states[1 << i] = (scan_ests[i], scan_ests[i], var_dists[i], (i,))
    for size in range(1, n):
        current = [m for m in states if _popcount(m) == size]
        for mask in current:
            cost, rows, dists, order = states[mask]
            for i in range(n):
                bit = 1 << i
                if mask & bit:
                    continue
                est, merged = estimate_join(
                    rows, dists, scan_ests[i], var_dists[i]
                )
                new_cost = cost + est
                new_order = order + (i,)
                new_mask = mask | bit
                existing = states.get(new_mask)
                if (
                    existing is None
                    or (new_cost, new_order) < (existing[0], existing[3])
                ):
                    states[new_mask] = (new_cost, est, merged, new_order)
    full = (1 << n) - 1
    cost, _rows, _dists, order = states[full]
    return list(order), cost


def _popcount(mask: int) -> int:
    """Number of set bits (3.10-compatible spelling of ``int.bit_count``)."""
    return bin(mask).count("1")
