"""The interned CONSISTENCY search (§3/§4 over term IDs).

This is the hot half of :mod:`repro.consistency.checker`: the same
freeze-then-quotient decision procedure, but every candidate database is a
grouped map of relation ID → argument-ID tuples and every ``poss(S)`` test
is an integer join
(:meth:`repro.core.views.CoreCollection.admits_grouped`). Candidates are
ground directly into that shape (:func:`repro.tableaux.core.ground_atoms_grouped`),
so the enumeration path never constructs a model object and never interns a
transient fact into the process-wide table (enforced by
``tools/check_no_boxed_hotpath.py``).

Fidelity to the boxed search (kept in ``tests/oracles/`` as the
differential oracle) is exact:

* fresh constants reuse the boxed factories (prefixes ``_frz`` / ``_q``
  against the same taken sets), so witnesses are equal as fact sets;
* combinations and quotient valuations are visited in the boxed order, so
  resource-cap truncation points and reported counters are identical.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.core.adapters import database_of_grouped
from repro.core.symbols import global_table
from repro.model.database import GlobalDatabase
from repro.model.terms import FreshConstantFactory
from repro.tableaux.construction import allowable_combinations, template_for_combination
from repro.tableaux.core import ground_atoms_grouped, quotient_valuations_ids
from repro.consistency.result import ConsistencyResult


def core_check_consistency(
    collection,
    max_quotients: int,
    max_combinations: int,
) -> ConsistencyResult:
    """The generic (non-identity, builtin-free) search, over interned IDs.

    Mirrors passes 1 and 2 of the boxed search in ``tests/oracles/``
    exactly — same visit order, same counters, same truncation semantics —
    with every candidate ``poss(S)`` membership test running on integer
    argument tuples.
    """
    table = global_table()
    core_collection = collection.core()
    intern_relation = table.relation
    intern_constant = table.constant
    base_constants = sorted(collection.all_constants())
    base_cids: Tuple[int, ...] = tuple(
        intern_constant(c.value) for c in base_constants
    )
    combinations_tried = 0
    truncated = False

    # Pass 1: canonical freeze of every combination (cheap, often decisive).
    frozen_attempts: List = []
    for combination in allowable_combinations(collection):
        combinations_tried += 1
        if combinations_tried > max_combinations:
            truncated = True
            break
        template = template_for_combination(collection, combination)
        tableau = template.tableaux[0]
        frozen, _ = tableau.freeze(base_constants)
        grouped: Dict[int, Set[Tuple[int, ...]]] = {}
        for f in frozen.atoms:
            args = tuple(intern_constant(a.value) for a in f.args)
            grouped.setdefault(intern_relation(f.relation), set()).add(args)
        if core_collection.admits_grouped(grouped):
            return ConsistencyResult(
                consistent=True,
                witness=GlobalDatabase(frozen.atoms),
                method="canonical-freeze",
                combinations_tried=combinations_tried,
            )
        frozen_attempts.append(tableau)

    # Pass 2: complete quotient search over each combination's tableau.
    quotients_tried = 0
    for tableau in frozen_attempts:
        variables = sorted(tableau.variables())
        vids: Tuple[int, ...] = tuple(table.variable(v.name) for v in variables)
        factory = FreshConstantFactory(taken=base_constants, prefix="_q")
        fresh_pool: Tuple[int, ...] = tuple(
            intern_constant(factory.fresh().value) for _ in range(len(variables))
        )
        pattern = tableau.core()
        for valuation in quotient_valuations_ids(vids, base_cids, fresh_pool):
            quotients_tried += 1
            if quotients_tried > max_quotients:
                truncated = True
                break
            candidate = ground_atoms_grouped(pattern, valuation)
            if core_collection.admits_grouped(candidate):
                return ConsistencyResult(
                    consistent=True,
                    witness=database_of_grouped(table, candidate),
                    method="quotient-search",
                    combinations_tried=combinations_tried,
                )
        if truncated:
            break

    return ConsistencyResult(
        consistent=False,
        decisive=not truncated,
        method="exhausted" if not truncated else "truncated",
        combinations_tried=combinations_tried,
    )
