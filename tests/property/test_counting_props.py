"""Property tests: BlockCounter vs brute-force Γ enumeration, and the
structural invariants of exact confidences."""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.model import fact
from repro.queries import identity_view
from repro.sources import SourceCollection, SourceDescriptor
from repro.confidence import (
    BlockCounter,
    ConfidenceEngine,
    GammaSystem,
    IdentityInstance,
)
from repro.confidence.engine import kernel

from tests.property.strategies import VALUES, identity_collections

DOMAIN = VALUES  # 5 unary facts -> 32 candidate worlds: cheap to enumerate


@given(identity_collections())
@settings(max_examples=50, deadline=None)
def test_block_counting_equals_brute_force(collection):
    instance = IdentityInstance(collection, DOMAIN)
    blocks = BlockCounter(instance)
    gamma = GammaSystem(instance)
    assert blocks.count_worlds() == gamma.count_solutions()


@given(identity_collections())
@settings(max_examples=40, deadline=None)
def test_confidences_match_brute_force(collection):
    instance = IdentityInstance(collection, DOMAIN)
    blocks = BlockCounter(instance)
    gamma = GammaSystem(instance)
    if blocks.count_worlds() == 0:
        return
    for value in DOMAIN:
        f = fact("R", value)
        assert blocks.confidence(f) == gamma.confidence(f)


@given(identity_collections())
@settings(max_examples=50, deadline=None)
def test_containing_excluding_partition(collection):
    blocks = BlockCounter(IdentityInstance(collection, DOMAIN))
    total = blocks.count_worlds()
    for value in DOMAIN:
        f = fact("R", value)
        assert (
            blocks.count_worlds_containing(f) + blocks.count_worlds_excluding(f)
            == total
        )


@given(identity_collections())
@settings(max_examples=40, deadline=None)
def test_confidence_bounds_and_certainty(collection):
    blocks = BlockCounter(IdentityInstance(collection, DOMAIN))
    total = blocks.count_worlds()
    if total == 0:
        return
    for value in DOMAIN:
        f = fact("R", value)
        confidence = blocks.confidence(f)
        assert 0 <= confidence <= 1
        # confidence 1 <=> fact in every enumerated world
        gamma = GammaSystem(blocks.instance)
        in_all = all(f in world for world in gamma.solution_databases())
        assert (confidence == 1) == in_all


@given(identity_collections())
@settings(max_examples=40, deadline=None)
def test_sound_facts_of_fully_sound_source_are_certain(collection):
    """If some source has s = 1, its facts appear in every world."""
    blocks = BlockCounter(IdentityInstance(collection, DOMAIN))
    if blocks.count_worlds() == 0:
        return
    for i, source in enumerate(collection):
        if source.soundness_bound == 1:
            for local in source.extension:
                assert blocks.confidence(fact("R", local.args[0].value)) == 1


@given(identity_collections())
@settings(max_examples=50, deadline=None)
def test_tracked_sweep_equals_per_block_solves(collection):
    """One tracked sweep gives every block's forced-problem count."""
    spec = kernel.spec_of(IdentityInstance(collection, DOMAIN))
    track = tuple(range(spec.n_blocks))
    count, _, containing = kernel.solve(kernel.reduce_spec(spec), track)
    assert count == kernel.count_worlds(spec)
    for j, numerator in zip(track, containing):
        forced = kernel.reduce_spec(spec, forced={j: 1})
        assert numerator == kernel.solve(forced)[0]


@given(identity_collections(), st.data())
@settings(max_examples=50, deadline=None)
def test_tracking_a_subset_gives_the_same_counts(collection, data):
    spec = kernel.spec_of(IdentityInstance(collection, DOMAIN))
    every = tuple(range(spec.n_blocks))
    subset = tuple(
        j for j in every if data.draw(st.booleans(), label=f"track {j}")
    )
    base = kernel.reduce_spec(spec)
    full = dict(zip(every, kernel.solve(base, every).containing))
    count, _, containing = kernel.solve(base, subset)
    assert count == kernel.count_worlds(spec)
    assert containing == tuple(full[j] for j in subset)


@given(identity_collections())
@settings(max_examples=40, deadline=None)
def test_block_confidences_match_brute_force(collection):
    instance = IdentityInstance(collection, DOMAIN)
    gamma = GammaSystem(instance)
    if gamma.count_solutions() == 0:
        return
    for j, confidence in BlockCounter(instance).block_confidences().items():
        for f in instance.blocks[j].facts:
            assert confidence == gamma.confidence(f)


@given(
    identity_collections(),
    st.permutations(range(3)),
    st.permutations(range(len(DOMAIN))),
)
@settings(max_examples=40, deadline=None)
def test_shared_memo_line_serves_a_permuted_renamed_copy(
    collection, order, renaming
):
    """One confidence line answers a draw and its alpha-equivalent copy
    (sources permuted, facts renamed), exactly as counting each afresh."""
    gamma = GammaSystem(IdentityInstance(collection, DOMAIN))
    assume(gamma.count_solutions() > 0)
    rename = {v: f"{DOMAIN[k]}'" for v, k in zip(DOMAIN, renaming)}
    sources = [s for i in order for s in list(collection)[i:i + 1]]
    copy = SourceCollection(
        SourceDescriptor(
            identity_view(f"W{k}", "R", 1),
            [fact(f"W{k}", rename[f.args[0].value]) for f in s.extension],
            s.completeness_bound, s.soundness_bound, name=f"T{k}",
        )
        for k, s in enumerate(sources)
    )
    copy_domain = [rename[v] for v in DOMAIN]

    with ConfidenceEngine(collection, DOMAIN) as engine:
        first = engine.confidences()
    with ConfidenceEngine(copy, copy_domain) as engine:
        second = engine.confidences()
        assert engine.stats.tasks_memoized == 1
    with ConfidenceEngine(collection, DOMAIN, cache_size=0) as engine:
        assert first == engine.confidences()
    with ConfidenceEngine(copy, copy_domain, cache_size=0) as engine:
        assert second == engine.confidences()
    for f, confidence in first.items():
        assert gamma.confidence(f) == confidence
        assert second[fact("R", rename[f.args[0].value])] == confidence
