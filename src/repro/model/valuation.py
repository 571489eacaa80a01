"""Valuations and substitutions (Sections 2.1 and 4).

* A **substitution** is a finite map ``{x_1/e_1, ..., x_p/e_p}`` from
  variables to terms (constants *or* variables).
* A **valuation** is a partial map from ``var ∪ dom`` to ``dom`` that is the
  identity on ``dom`` — i.e. a substitution whose images are all constants.
* A valuation σ is **compatible** with a substitution θ = {x_i/e_i} when
  ``σ(x_i) = σ(e_i)`` for every binding (Section 4); this drives constraint
  satisfaction in database templates.

Both are immutable mappings with dict-like access. ``substitute`` on atoms and
tableaux accepts either.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping, Optional, Tuple

from repro.exceptions import ModelError
from repro.model.atoms import Atom
from repro.model.terms import Constant, Term, Variable, as_term


class Substitution:
    """An immutable finite map from variables to terms.

    >>> theta = Substitution({Variable("x"): Constant(1)})
    >>> theta[Variable("x")]
    Constant(1)
    """

    __slots__ = ("_map", "_hash")

    def __init__(self, mapping: Mapping[Variable, Term] = None):
        items: Dict[Variable, Term] = {}
        if mapping:
            for var, term in mapping.items():
                if not isinstance(var, Variable):
                    raise ModelError(f"substitution keys must be variables: {var!r}")
                items[var] = as_term(term)
        self._map = items
        self._hash = hash(frozenset(items.items()))

    # -- mapping interface --------------------------------------------------

    def __getitem__(self, var: Variable) -> Term:
        return self._map[var]

    def get(self, term: Term, default: Optional[Term] = None) -> Optional[Term]:
        """Image of *term*; constants map to themselves."""
        if isinstance(term, Constant):
            return term
        return self._map.get(term, default)

    def __contains__(self, var: Variable) -> bool:
        return var in self._map

    def __iter__(self) -> Iterator[Variable]:
        return iter(self._map)

    def __len__(self) -> int:
        return len(self._map)

    def items(self) -> Iterable[Tuple[Variable, Term]]:
        """The ``(variable, term)`` bindings."""
        return self._map.items()

    def domain(self) -> frozenset:
        """The variables this substitution binds."""
        return frozenset(self._map)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Substitution) and self._map == other._map

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuilt from the map, so the hash is the loading process's.
        return (type(self), (self._map,))

    def __repr__(self) -> str:
        inner = ", ".join(f"{v}/{t}" for v, t in sorted(
            self._map.items(), key=lambda kv: kv[0].name))
        return f"{{{inner}}}"

    # -- operations -----------------------------------------------------------

    def apply(self, atom: Atom) -> Atom:
        """Apply the substitution to an atom."""
        return atom.substitute(self)

    def apply_all(self, atoms: Iterable[Atom]) -> Tuple[Atom, ...]:
        """Apply to several atoms, preserving order."""
        return tuple(a.substitute(self) for a in atoms)

    def compose(self, other: "Substitution") -> "Substitution":
        """``(self ∘ other)``: apply *self* first, then *other* to the images.

        Bindings of *other* on variables untouched by *self* are kept.
        """
        merged: Dict[Variable, Term] = {}
        for var, term in self._map.items():
            merged[var] = other.get(term, term) if isinstance(term, Variable) else term
        for var, term in other._map.items():
            merged.setdefault(var, term)
        return Substitution(merged)

    def extended(self, var: Variable, term: Term) -> "Substitution":
        """A new substitution with one extra binding."""
        merged = dict(self._map)
        merged[var] = as_term(term)
        return Substitution(merged)

    def is_valuation(self) -> bool:
        """True when every image is a constant."""
        return all(isinstance(t, Constant) for t in self._map.values())


class Valuation(Substitution):
    """A substitution whose images are all constants (paper's valuations).

    Valuations extend to ``dom`` by identity: ``get`` on a constant returns
    the constant itself, matching "partial mapping ... identity on dom".
    """

    def __init__(self, mapping: Mapping[Variable, Constant] = None):
        if mapping:
            for var, const in mapping.items():
                if not isinstance(as_term(const), Constant):
                    raise ModelError(
                        f"valuation images must be constants: {var!r} -> {const!r}"
                    )
        super().__init__(mapping)

    def extended(self, var: Variable, term: Term) -> "Valuation":
        """A new valuation with one extra binding, which must be a constant."""
        term = as_term(term)
        if not isinstance(term, Constant):
            raise ModelError(f"valuation images must be constants: {term!r}")
        merged = dict(self._map)
        merged[var] = term
        return Valuation(merged)


def compatible(valuation: Substitution, theta: Substitution) -> bool:
    """Section 4 compatibility: ``σ(x_i) = σ(e_i)`` for all bindings of θ.

    For an unbound variable, σ acts as the identity (the paper's valuations
    are partial maps). Thus two distinct unbound variables are *not* equal
    under σ unless θ maps one to the other and σ leaves both alone — in which
    case σ(x) = x ≠ e = σ(e) whenever x ≠ e. This strictness is exactly what
    the cardinality constraints of Section 4 need: a valuation that embeds
    m+1 *distinct* rows must genuinely merge two of them to be compatible.
    """
    for var, term in theta.items():
        image_var = valuation.get(var, var)
        image_term = valuation.get(term, term)
        if image_var != image_term:
            return False
    return True


def match_atom(pattern: Atom, ground: Atom, seed: Optional[Substitution] = None) -> Optional[Substitution]:
    """Extend *seed* to a substitution σ with ``σ(pattern) == ground``.

    Returns ``None`` when no extension exists. *ground* must be a fact.
    This is the single-atom matching step underlying query evaluation and
    homomorphism search.
    """
    if pattern.relation != ground.relation or pattern.arity != ground.arity:
        return None
    bindings: Dict[Variable, Term] = dict(seed.items()) if seed else {}
    for pat_term, ground_term in zip(pattern.args, ground.args):
        if isinstance(pat_term, Constant):
            if pat_term != ground_term:
                return None
        else:
            bound = bindings.get(pat_term)
            if bound is None:
                bindings[pat_term] = ground_term
            elif bound != ground_term:
                return None
    return Substitution(bindings)


def unify_atoms(left: Atom, right: Atom) -> Optional[Substitution]:
    """Most general unifier of two atoms, or ``None``.

    Standard syntactic unification without occurs-check subtleties (terms are
    flat, so the occurs check is trivial). Used by query containment and by
    template construction when heads must equal selected facts.
    """
    if left.relation != right.relation or left.arity != right.arity:
        return None
    bindings: Dict[Variable, Term] = {}

    def resolve(term: Term) -> Term:
        while isinstance(term, Variable) and term in bindings:
            term = bindings[term]
        return term

    for l_term, r_term in zip(left.args, right.args):
        l_res, r_res = resolve(l_term), resolve(r_term)
        if l_res == r_res:
            continue
        if isinstance(l_res, Variable):
            bindings[l_res] = r_res
        elif isinstance(r_res, Variable):
            bindings[r_res] = l_res
        else:
            return None

    flattened: Dict[Variable, Term] = {}
    for var in bindings:
        flattened[var] = resolve(var)
    return Substitution(flattened)
