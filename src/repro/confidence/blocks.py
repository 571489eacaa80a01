"""Signature-block decomposition for identity-view collections (Section 5.1).

Section 5.1 reduces confidence computation to counting 0/1 integer solutions
of a linear system Γ with one variable per fact in the finite fact space —
"at least in principle", in exponential time. This module supplies the
principled exact algorithm that makes the computation practical, exploiting
the symmetry implicit in the paper's own Example 5.1:

Two facts contained in exactly the same view extensions (the same *membership
signature*) are interchangeable in Γ. Grouping the fact space into signature
blocks B_1..B_g (plus one *anonymous* block for facts outside every
extension), the number of solutions depends only on the per-block occupancy
counts (n_1..n_g, n_0), with weight ``∏_j C(|B_j|, n_j)``. A dynamic program
over blocks, whose state is the per-source sound counts (t_1..t_n) plus the
covered total, sums these weights; the anonymous block is folded in
analytically at the end via partial binomial sums. Example 5.1's closed
forms — e.g. confidence(R(b)) = (2m+2)/(2m+3) — drop out exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import SourceError
from repro.model.atoms import Atom
from repro.model.terms import Constant, Variable, as_term
from repro.sources.collection import SourceCollection
from repro.confidence.engine import kernel


def check_identity_collection(
    collection: SourceCollection, domain: Iterable
) -> str:
    """The global relation of *collection*, checked against *domain*.

    The §5.1 precondition, by value: every view is an identity over one
    global relation, and every extension constant is in *domain* (values
    or boxed constants). Raises :class:`~repro.exceptions.SourceError`
    otherwise, and interns nothing, so a caller can check a collection
    before committing to it.
    """
    relation = collection.identity_relation()
    if relation is None:
        raise SourceError(
            "IdentityInstance requires all views to be identities over one "
            "global relation (Section 5.1 special case)"
        )
    domain_set = frozenset(
        c.value if isinstance(c, (Constant, Variable)) else c for c in domain
    )
    for source in collection:
        if domain_set.issuperset(
            [a.value for f in source.extension for a in f.args]
        ):
            continue
        for f in source.extension:
            missing = [a for a in f.args if a.value not in domain_set]
            if missing:
                raise SourceError(
                    f"extension fact {Atom(relation, f.args)} uses constants "
                    f"outside the domain: {missing}"
                )
    return relation


class SignatureBlock:
    """A maximal set of facts sharing one membership signature."""

    __slots__ = ("signature", "facts")

    def __init__(self, signature: FrozenSet[int], facts: Sequence[Atom]):
        self.signature = signature
        self.facts: Tuple[Atom, ...] = tuple(sorted(facts))

    @property
    def size(self) -> int:
        return len(self.facts)

    def __repr__(self) -> str:
        sig = ",".join(str(i) for i in sorted(self.signature))
        return f"SignatureBlock({{{sig}}}, size={self.size})"


class IdentityInstance:
    """An identity-view collection over a finite domain, in set form.

    All views must be identities over one global relation (the §5.1 /
    Corollary 3.4 setting). Extension facts become *global* facts by renaming
    the local relation to the global one; the fact space is every fact over
    the relation with constants from *domain*.

    >>> from repro.queries import identity_view
    >>> from repro.model import fact
    >>> from repro.sources import SourceDescriptor, SourceCollection
    >>> col = SourceCollection([
    ...     SourceDescriptor(identity_view("V1", "R", 1),
    ...                      [fact("V1", "a"), fact("V1", "b")], 0.5, 0.5),
    ... ])
    >>> inst = IdentityInstance(col, ["a", "b", "c"])
    >>> inst.fact_space_size
    3
    """

    def __init__(self, collection: SourceCollection, domain: Iterable):
        # The domain is kept as raw values; the boxed Constant tuple is a
        # lazy property. Only *extension* constants are ever interned — the
        # anonymous fact space exists purely as the arithmetic
        # ``|dom|^arity − covered`` below, which is what keeps decomposition
        # cost proportional to the extensions, not the domain.
        self._raw_domain: Tuple = tuple(
            c.value if isinstance(c, (Constant, Variable)) else c
            for c in dict.fromkeys(domain)
        )
        relation = check_identity_collection(collection, self._raw_domain)
        self.collection = collection
        self.relation = relation
        self.arity = collection.sources[0].view.head.arity
        self._domain_boxed: Optional[Tuple[Constant, ...]] = None
        self.fact_space_size = len(self._raw_domain) ** self.arity

        # Interned decomposition: rename each extension fact to the global
        # relation and intern it to a fact ID, accumulating its membership
        # signature as a bitmask (bit i set ⇔ fact ∈ v_i). One dict pass
        # replaces the per-source frozenset membership probes of the boxed
        # algorithm (kept in tests/oracles/ as the differential oracle).
        from repro.core.symbols import global_table

        table = global_table()
        rid = table.relation(relation)
        intern_constant = table.constant

        # Per-source data, in collection order.
        self.names: List[str] = []
        self.extension_sizes: List[int] = []
        self.completeness_bounds: List[Fraction] = []
        self.soundness_bounds: List[Fraction] = []
        self.min_sound: List[int] = []
        signature_of: Dict[int, int] = {}
        for i, source in enumerate(collection):
            bit = 1 << i
            fids: set = set()
            for f in source.extension:
                fids.add(
                    table.fact(
                        rid, tuple([intern_constant(a.value) for a in f.args])
                    )
                )
            for fid in fids:
                signature_of[fid] = signature_of.get(fid, 0) | bit
            self.names.append(source.name)
            self.extension_sizes.append(len(fids))
            self.completeness_bounds.append(source.completeness_bound)
            self.soundness_bounds.append(source.soundness_bound)
            self.min_sound.append(source.min_sound_count())

        # Block decomposition of the covered fact space, grouped by bitmask.
        by_mask: Dict[int, List[int]] = {}
        for fid, mask in signature_of.items():
            by_mask.setdefault(mask, []).append(fid)

        from repro.core.adapters import atom_of_fact

        def indices(mask: int) -> Tuple[int, ...]:
            return tuple(i for i in range(len(self.names)) if mask & (1 << i))

        self.blocks: Tuple[SignatureBlock, ...] = tuple(
            SignatureBlock(
                frozenset(indices(mask)),
                [atom_of_fact(table, fid) for fid in fids],
            )
            for mask, fids in sorted(
                by_mask.items(), key=lambda kv: (indices(kv[0]), len(kv[1]))
            )
        )
        self.covered_size = sum(b.size for b in self.blocks)
        self.anonymous_size = self.fact_space_size - self.covered_size

        # Process-local caches (term IDs never cross process boundaries, so
        # none of these survive pickling — see __getstate__).
        self._extensions: Optional[Tuple[FrozenSet[Atom], ...]] = None
        self._fact_block_ids: Optional[Dict[int, int]] = None
        self._domain_set: Optional[FrozenSet] = None

    # -- structure -------------------------------------------------------------

    @property
    def domain(self) -> Tuple[Constant, ...]:
        """The deduplicated domain as boxed constants (boxed lazily).

        Decomposition and counting never need this tuple; it exists for the
        enumeration-style consumers (samplers, the linear-system baseline,
        exact calculus) that iterate the fact space as boxed atoms.
        """
        if self._domain_boxed is None:
            self._domain_boxed = tuple(as_term(v) for v in self._raw_domain)
        return self._domain_boxed

    @property
    def n_sources(self) -> int:
        return len(self.names)

    @property
    def extensions(self) -> Tuple[FrozenSet[Atom], ...]:
        """Per-source global-renamed extensions, as boxed frozensets.

        Rebuilt lazily from the block decomposition (every extension fact is
        covered by construction); the hot paths never touch this.
        """
        if self._extensions is None:
            per_source: List[set] = [set() for _ in self.names]
            for block in self.blocks:
                for i in block.signature:
                    per_source[i].update(block.facts)
            self._extensions = tuple(frozenset(e) for e in per_source)
        return self._extensions

    def _fact_ids(self) -> Dict[int, int]:
        """Lazy fact-ID → block-index map against the process-wide table."""
        if self._fact_block_ids is None:
            from repro.core.adapters import fact_of_atom
            from repro.core.symbols import global_table

            table = global_table()
            self._fact_block_ids = {
                fact_of_atom(table, f): j
                for j, block in enumerate(self.blocks)
                for f in block.facts
            }
        return self._fact_block_ids

    def block_of(self, fact: Atom) -> Optional[int]:
        """Index of the block containing *fact*; ``None`` for anonymous facts.

        Accepts both global facts over the instance relation and local facts
        (same argument tuple, any local name). The probe interns the fact and
        hits the ID index — no boxed atom is rebuilt.
        """
        from repro.core.symbols import global_table

        index = self._fact_ids()
        table = global_table()
        rid = table.find_relation(self.relation)
        if rid is None:
            return None
        args = []
        for a in fact.args:
            cid = table.find_constant(a.value)
            if cid is None:
                return None
            args.append(cid)
        fid = table.find_fact(rid, tuple(args))
        if fid is None:
            return None
        return index.get(fid)

    def in_fact_space(self, fact: Atom) -> bool:
        """Is *fact* (as a global fact) part of the finite fact space?"""
        if len(fact.args) != self.arity:
            return False
        if self._domain_set is None:
            self._domain_set = frozenset(self._raw_domain)
        domain_set = self._domain_set
        for a in fact.args:
            if not isinstance(a, Constant) or a.value not in domain_set:
                return False
        return True

    # -- pickling (IDs are process-local; ship only boxed state) ---------------

    def __getstate__(self):
        state = dict(self.__dict__)
        state["_extensions"] = None
        state["_fact_block_ids"] = None
        state["_domain_set"] = None
        state["_domain_boxed"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)

    # -- constraint predicates ----------------------------------------------------

    def state_is_final_feasible(self, sound_counts: Sequence[int], total: int) -> bool:
        """Do (t_1..t_n, |D|) satisfy every soundness and completeness bound?"""
        for i in range(self.n_sources):
            if sound_counts[i] < self.min_sound[i]:
                return False
            if sound_counts[i] < self.completeness_bounds[i] * total:
                return False
        return True


class BlockCounter:
    """Counts possible worlds of an :class:`IdentityInstance` exactly.

    The dynamic program sweeps signature blocks; a state is the tuple of
    per-source sound counts plus the covered-fact total, mapped to the total
    combinatorial weight of ways to reach it. The anonymous block (facts
    outside every extension) is folded in at the end with partial binomial
    sums, so its size never enters the state space — which is what keeps
    Example 5.1 polynomial in m.

    The DP itself lives in :mod:`repro.confidence.engine.kernel` (pure
    functions over a :class:`~repro.confidence.engine.kernel.CountingSpec`);
    this class is the fact-level serial facade. The memoized route to the
    same numbers is
    :class:`~repro.confidence.engine.ConfidenceEngine`.
    """

    def __init__(self, instance: IdentityInstance):
        self.instance = instance
        self.spec = kernel.spec_of(instance)
        self._world_count: Optional[int] = None

    # -- public API ----------------------------------------------------------------

    def count_worlds(self) -> int:
        """``|poss(S)|`` restricted to the finite fact space (``N_sol(Γ)``).

        Memoized — it is the denominator of every confidence query.
        """
        if self._world_count is None:
            self._world_count = kernel.count_worlds(self.spec)
        return self._world_count

    # -- ranked access ------------------------------------------------------------

    def block_confidences(self) -> Dict[int, Fraction]:
        """Confidence per signature block (all its facts share the value).

        One sweep counts the worlds and, per block, the worlds containing
        one of its facts (see :func:`~repro.confidence.engine.kernel.solve`).
        """
        from repro.exceptions import InconsistentCollectionError

        track = tuple(
            j for j, block in enumerate(self.instance.blocks) if block.facts
        )
        denominator, _, numerators = kernel.solve(
            kernel.reduce_spec(self.spec), track
        )
        self._world_count = denominator
        if denominator == 0:
            raise InconsistentCollectionError(
                "collection admits no possible database over this domain"
            )
        return {
            j: Fraction(numerator, denominator)
            for j, numerator in zip(track, numerators)
        }

    def top_k_facts(self, k: int) -> List[Tuple[Atom, Fraction]]:
        """The k most-confident covered facts, computed per block.

        One counting sweep for all blocks (facts in a block are
        interchangeable), so the cost is independent of k and of block sizes.
        """
        if k <= 0:
            return []
        per_block = self.block_confidences()
        ranked_blocks = sorted(
            per_block.items(), key=lambda kv: (-kv[1], kv[0])
        )
        out: List[Tuple[Atom, Fraction]] = []
        for j, confidence in ranked_blocks:
            for f in self.instance.blocks[j].facts:
                out.append((f, confidence))
                if len(out) == k:
                    return out
        return out

    def count_worlds_containing(self, fact: Atom) -> int:
        """``N_sol(Γ[x_fact / 1])``: worlds that contain *fact*."""
        return self.count_worlds_containing_all([fact])

    def count_worlds_containing_all(self, facts: Iterable[Atom]) -> int:
        """Worlds containing *every* fact in *facts* (joint count).

        Generalizes the paper's ``Γ[x_p/1]`` to fixing several variables at
        once; each forced fact seeds the DP and shrinks its block. Duplicate
        facts are collapsed. The basis for joint and conditional
        confidences.
        """
        inst = self.instance
        forced = {Atom(inst.relation, f.args) for f in facts}
        if not forced:
            return self.count_worlds()
        per_block: Dict[Optional[int], int] = {}
        for f in forced:
            if not inst.in_fact_space(f):
                return 0
            per_block[inst.block_of(f)] = per_block.get(inst.block_of(f), 0) + 1
        problem = kernel.reduce_spec(self.spec, forced=per_block)
        return kernel.solve(problem)[0]

    def count_worlds_excluding(self, fact: Atom) -> int:
        """Worlds that do *not* contain *fact* (``N_sol(Γ[x_fact / 0])``)."""
        inst = self.instance
        if not inst.in_fact_space(fact):
            return self.count_worlds()
        problem = kernel.reduce_spec(
            self.spec, excluded={inst.block_of(fact): 1}
        )
        return kernel.solve(problem)[0]

    def confidence(self, fact: Atom) -> Fraction:
        """``confidence(t) = N_sol(Γ[x_t/1]) / N_sol(Γ)`` (Section 5.1).

        Raises :class:`~repro.exceptions.InconsistentCollectionError` when the
        collection admits no possible world over the fact space.
        """
        from repro.exceptions import InconsistentCollectionError

        denominator = self.count_worlds()
        if denominator == 0:
            raise InconsistentCollectionError(
                "collection admits no possible database over this domain"
            )
        return Fraction(self.count_worlds_containing(fact), denominator)

    def joint_confidence(self, facts: Iterable[Atom]) -> Fraction:
        """``Pr(all facts ∈ D | D ∈ poss(S))``."""
        from repro.exceptions import InconsistentCollectionError

        denominator = self.count_worlds()
        if denominator == 0:
            raise InconsistentCollectionError(
                "collection admits no possible database over this domain"
            )
        return Fraction(self.count_worlds_containing_all(facts), denominator)

    def conditional_confidence(self, fact: Atom, given: Iterable[Atom]) -> Fraction:
        """``Pr(fact ∈ D | given ⊆ D, D ∈ poss(S))``.

        Raises :class:`~repro.exceptions.InconsistentCollectionError` when no
        possible world contains all the *given* facts.
        """
        from repro.exceptions import InconsistentCollectionError

        given = list(given)
        denominator = self.count_worlds_containing_all(given)
        if denominator == 0:
            raise InconsistentCollectionError(
                "no possible world contains all the conditioning facts"
            )
        numerator = self.count_worlds_containing_all(list(given) + [fact])
        return Fraction(numerator, denominator)

    def covariance(self, left: Atom, right: Atom) -> Fraction:
        """``Pr(both) − Pr(left)·Pr(right)``: the membership correlation the
        Definition 5.1 calculus ignores (zero means independent).
        """
        return self.joint_confidence([left, right]) - (
            self.confidence(left) * self.confidence(right)
        )

    def world_size_distribution(self) -> Dict[int, int]:
        """Number of possible worlds per database size |D|.

        Exact, via the same DP: swept states carry the covered total, and
        the anonymous block contributes ``C(N₀, j)`` worlds of j extra
        facts. Summing the distribution reproduces ``count_worlds()``; its
        mean equals Σ_t confidence(t) (linearity of expectation) — both are
        asserted in the test suite.
        """
        inst = self.instance
        spec = self.spec
        states = kernel.sweep(spec.signatures, spec.sizes, spec.n_sources)
        distribution: Dict[int, int] = {}
        for (sound, covered_total), weight in states.items():
            if any(
                sound[i] < inst.min_sound[i] for i in range(inst.n_sources)
            ):
                continue
            cap = kernel.max_total_for(inst.completeness_bounds, sound)
            if cap is None:
                budget = inst.anonymous_size
            else:
                budget = cap - covered_total
                if budget < 0:
                    continue
                budget = min(budget, inst.anonymous_size)
            for extra in range(budget + 1):
                size = covered_total + extra
                distribution[size] = distribution.get(size, 0) + (
                    weight * math.comb(inst.anonymous_size, extra)
                )
        return distribution

    def expected_world_size(self) -> Fraction:
        """``E[|D|]`` over a uniformly random possible world."""
        from repro.exceptions import InconsistentCollectionError

        distribution = self.world_size_distribution()
        total = sum(distribution.values())
        if total == 0:
            raise InconsistentCollectionError(
                "collection admits no possible database over this domain"
            )
        weighted = sum(size * count for size, count in distribution.items())
        return Fraction(weighted, total)

    def is_consistent(self) -> bool:
        """Non-emptiness of poss(S) over the finite fact space."""
        return self.count_worlds() > 0
