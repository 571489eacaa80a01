"""Valuation enumeration and embedding over ID domains (the tableau hot path).

This module is the interned mirror of the tableau operations the
CONSISTENCY search and ``rep(T)`` membership hammer on: everything here
speaks term IDs (:mod:`repro.core`) — variables are negative ints, constants
non-negative ints, atoms are :class:`~repro.core.iatoms.IAtom` patterns, and
databases are :class:`~repro.core.factset.IFactSet`. No boxed model object
is constructed on these paths (enforced by ``tools/check_no_boxed_hotpath.py``).

Three operations live here:

* :func:`core_embeddings` / :func:`core_embeds` — the backtracking
  homomorphism search σ(U) ⊆ D over integer tuples;
* :func:`ground_atoms` — applying an ID valuation to a pattern tableau,
  producing fact IDs;
* :func:`quotient_valuations_ids` — the restricted-growth enumeration of
  valuations over a constant pool plus canonically-ordered fresh constants
  (the complete quotient search of Lemma 3.1's proof shape).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.factset import IFactSet
from repro.core.iatoms import IAtom
from repro.core.symbols import SymbolTable


def order_for_embedding(atoms: Sequence[IAtom], keys: Sequence) -> Tuple[IAtom, ...]:
    """Most-constrained-first atom order, by externally supplied sort keys.

    The boundary passes keys derived from the boxed rendering so the search
    visits atoms in the same deterministic order as the boxed implementation.
    """
    paired = sorted(zip(keys, range(len(atoms))))
    return tuple(atoms[i] for _, i in paired)


def core_embeddings(
    atoms: Sequence[IAtom],
    facts: IFactSet,
    seed: Optional[Dict[int, int]] = None,
) -> Iterator[Dict[int, int]]:
    """All valuations σ (variable ID → constant ID) with σ(atoms) ⊆ facts.

    Backtracking search; *atoms* should already be in most-constrained-first
    order (see :func:`order_for_embedding`). Yielded dicts are fresh copies,
    safe to keep across iterations.
    """
    table = facts.table
    fact_args = table.fact_args
    n = len(atoms)
    binding: Dict[int, int] = dict(seed) if seed else {}

    def extend(index: int) -> Iterator[Dict[int, int]]:
        if index == n:
            yield dict(binding)
            return
        atom = atoms[index]
        pattern = atom.args
        ground = True
        for t in pattern:
            if t < 0 and t not in binding:
                ground = False
                break
        if ground:
            fid = table.find_fact(
                atom.relation,
                tuple(binding[t] if t < 0 else t for t in pattern),
            )
            if fid is not None and fid in facts:
                yield from extend(index + 1)
            return
        for fid in facts.by_relation(atom.relation):
            args = fact_args(fid)
            added: List[int] = []
            ok = True
            for p, c in zip(pattern, args):
                if p >= 0:
                    if p != c:
                        ok = False
                        break
                else:
                    seen = binding.get(p)
                    if seen is None:
                        binding[p] = c
                        added.append(p)
                    elif seen != c:
                        ok = False
                        break
            if ok:
                yield from extend(index + 1)
            for p in added:
                del binding[p]

    yield from extend(0)


def core_embeds(atoms: Sequence[IAtom], facts: IFactSet) -> bool:
    """Is there at least one embedding of *atoms* into *facts*?"""
    for _ in core_embeddings(atoms, facts):
        return True
    return False


def ground_atoms(
    table: SymbolTable,
    atoms: Sequence[IAtom],
    valuation: Dict[int, int],
) -> Set[int]:
    """Apply an ID valuation to pattern atoms; returns the set of fact IDs.

    Every variable of every atom must be bound by *valuation* (the quotient
    search guarantees this: valuations are total over the tableau's
    variables).
    """
    fact = table.fact
    out: Set[int] = set()
    for atom in atoms:
        if atom.ground:
            out.add(fact(atom.relation, atom.args))
        else:
            out.add(
                fact(
                    atom.relation,
                    tuple(
                        valuation[t] if t < 0 else t for t in atom.args
                    ),
                )
            )
    return out


def ground_atoms_grouped(
    atoms: Sequence[IAtom],
    valuation: Dict[int, int],
) -> Dict[int, Set[Tuple[int, ...]]]:
    """Apply an ID valuation to pattern atoms, grouped by relation.

    Unlike :func:`ground_atoms` this never touches a symbol table: the
    result maps relation IDs to sets of argument-ID tuples — exactly the
    candidate shape :meth:`repro.core.views.CoreCollection.admits_grouped`
    consumes — so the quotient search interns nothing per candidate.
    """
    grouped: Dict[int, Set[Tuple[int, ...]]] = {}
    for atom in atoms:
        if atom.ground:
            args = atom.args
        else:
            args = tuple(valuation[t] if t < 0 else t for t in atom.args)
        grouped.setdefault(atom.relation, set()).add(args)
    return grouped


def quotient_valuations_ids(
    variables: Sequence[int],
    constants: Sequence[int],
    fresh_pool: Sequence[int],
) -> Iterator[Dict[int, int]]:
    """All valuations of *variables* over *constants* plus fresh constants,
    canonical up to renaming of the fresh part.

    The ID mirror of the boxed ``quotient_valuations`` in
    ``tests/oracles/``: fresh constants (pre-interned by the boundary, one
    per variable) are introduced in restricted-growth order — a variable
    may map to fresh constant #j only when #0..#j−1 are already in use — so
    each identification pattern is enumerated exactly once. The
    enumeration order matches the boxed implementation image-for-image.
    """
    n = len(variables)
    images: List[int] = [0] * n

    def extend(index: int, used_fresh: int) -> Iterator[Dict[int, int]]:
        if index == n:
            yield dict(zip(variables, images))
            return
        for c in constants:
            images[index] = c
            yield from extend(index + 1, used_fresh)
        for j in range(used_fresh + 1):
            if j < len(fresh_pool):
                images[index] = fresh_pool[j]
                yield from extend(index + 1, max(used_fresh, j + 1))

    yield from extend(0, 0)
