"""Chaos schedules: parsing, deterministic application, fire-once."""

import pytest

from repro.resilience import ChaosRunner, ChaosSchedule, ChaosSpecError
from repro.service import PerSourceGateway


def test_parse_spec_modes_and_order():
    schedule = ChaosSchedule.parse(
        "600:S2:error:0.8, 0:S1:crash, 400:S1:ok, 900:S2:slow:20, "
        "1200:S2:partition"
    )
    assert [e.source for e in schedule] == ["S1", "S1", "S2", "S2", "S2"]
    assert [e.at for e in schedule] == [0.0, 0.4, 0.6, 0.9, 1.2]
    assert schedule.horizon == 1.2
    by_mode = {(e.at, e.mode): e.policy for e in schedule}
    assert by_mode[(0.0, "crash")].crash
    assert by_mode[(0.4, "ok")] is None
    assert by_mode[(0.6, "error")].error_rate == 0.8
    assert by_mode[(0.9, "slow")].latency == 0.02
    assert by_mode[(1.2, "partition")].partition


def test_parse_rejects_bad_specs():
    for spec in (
        "S1:crash",            # missing time
        "abc:S1:crash",        # non-numeric time
        "-5:S1:crash",         # negative time
        "100::crash",          # empty source
        "100:S1:meltdown",     # unknown mode
        "100:S1:error:x",      # bad argument
    ):
        with pytest.raises(ChaosSpecError):
            ChaosSchedule.parse(spec)


def test_empty_and_flaky_alias():
    assert len(ChaosSchedule.parse("")) == 0
    event = next(iter(ChaosSchedule.parse("0:S1:flaky:0.3")))
    assert event.policy.error_rate == 0.3


def test_runner_fires_due_events_exactly_once():
    gateway = PerSourceGateway()
    runner = ChaosRunner(
        gateway, ChaosSchedule.parse("0:S1:crash, 500:S1:ok, 800:S2:crash")
    )
    assert runner.advance(0.0) == 1
    assert gateway.policy_for("S1").crash
    assert runner.advance(0.1) == 0  # already fired, nothing due
    assert runner.advance(0.5) == 1
    assert gateway.policy_for("S1").healthy
    assert not runner.exhausted
    assert runner.finish() == 1
    assert gateway.policy_for("S2").crash
    assert runner.exhausted
    assert [a["mode"] for a in runner.applied] == ["crash", "ok", "crash"]


def test_runner_applies_skipped_window_in_order():
    # A driver that jumps past several events fires them all, in order.
    gateway = PerSourceGateway()
    runner = ChaosRunner(
        gateway,
        ChaosSchedule.parse("0:S1:error:0.9, 100:S1:slow:50, 200:S1:ok"),
    )
    assert runner.advance(10.0) == 3
    assert gateway.policy_for("S1").healthy  # last event wins


def test_same_schedule_same_seed_is_bit_deterministic():
    def trace(seed):
        gateway = PerSourceGateway(seed=seed)
        runner = ChaosRunner(
            gateway, ChaosSchedule.parse("0:S1:error:0.5")
        )
        runner.advance(0.0)
        lane = gateway.lane("S1")
        outcomes = []
        for _ in range(16):
            outcomes.append(lane._rng.random())
        return outcomes

    assert trace(3) == trace(3)
    assert trace(3) != trace(4)
