"""Property tests: Monte-Carlo estimates are executor-independent.

Under a fixed seed, serial and multi-process engines must return
bit-identical floats. One worker pool is shared across examples (pool
start-up dwarfs the tiny instances hypothesis draws).
"""

import atexit

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.model import fact
from repro.confidence import ConfidenceEngine
from repro.confidence.engine import ProcessExecutor

from tests.property.strategies import VALUES, identity_collections

DOMAIN = VALUES

_POOL = ProcessExecutor(2)
atexit.register(_POOL.close)


def serial_engine(collection):
    return ConfidenceEngine(collection, DOMAIN, cache_size=0)


def parallel_engine(collection):
    return ConfidenceEngine(
        collection, DOMAIN, cache_size=0, executor=_POOL
    )


@given(identity_collections(), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=15, deadline=None)
def test_parallel_estimates_bit_identical(collection, seed):
    engine = serial_engine(collection)
    assume(engine.is_consistent())
    facts = [fact("R", v) for v in DOMAIN[:3]]
    kwargs = dict(samples=120, seed=seed, samples_per_chunk=40)
    serial = engine.estimate_confidences(facts, **kwargs)
    parallel = parallel_engine(collection).estimate_confidences(facts, **kwargs)
    assert serial == parallel
