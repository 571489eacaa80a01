#!/usr/bin/env python3
"""Validate a ``bench_e22_resilience.py`` JSON trajectory entry.

Reads one JSON document from stdin (or a file given as argv[1]) and checks
the chaos-smoke contract CI relies on:

* **containment** — zero crashed (unhandled-exception) requests in every
  scenario;
* **availability** — the hard-down scenario stayed above the bench's own
  acceptance floor;
* **breaker lifecycle** — the flap-recover-flap scenario's transition log
  shows the breaker opening, half-opening after cooldown, closing on the
  recovery window, and *re*-opening on the second flap;
* **semantics** — every scenario that degraded also ran its differential
  check against the statically demoted collection.

Exit 0 when well-formed, 1 with a report of every violation otherwise.

Usage: python tools/check_chaos.py BENCH_resilience.json
"""

from __future__ import annotations

import json
import sys
from typing import List


def validate(payload: object) -> List[str]:
    problems: List[str] = []
    if not isinstance(payload, dict):
        return [f"payload is {type(payload).__name__}, expected object"]
    if payload.get("bench") != "e22_resilience":
        problems.append(f"bench is {payload.get('bench')!r}, "
                        "expected 'e22_resilience'")
    scenarios = payload.get("scenarios")
    if not isinstance(scenarios, dict) or not scenarios:
        return problems + ["no scenarios section"]

    for name, outcome in scenarios.items():
        crashed = outcome.get("crashed_requests")
        if crashed != 0:
            problems.append(f"{name}: {crashed} crashed requests (want 0)")
        terminal = sum(
            outcome.get(status, 0)
            for status in ("ok", "timeout", "rejected", "error")
        )
        if terminal != outcome.get("requests"):
            problems.append(
                f"{name}: {terminal} terminal statuses for "
                f"{outcome.get('requests')} requests"
            )
        if outcome.get("degraded", 0) and not outcome.get(
            "differential_checks", 0
        ):
            problems.append(f"{name}: degraded but never checked against "
                            "the demoted semantics")

    acceptance = payload.get("acceptance", {})
    floor = acceptance.get("availability_floor", 0.95)
    hard = scenarios.get("hard_down", {}).get("availability", 0.0)
    if hard < floor:
        problems.append(f"hard_down availability {hard} < floor {floor}")

    flap = scenarios.get("flap_recover_flap", {}).get("transitions", {})
    for edge, minimum in (
        ("opened", 2), ("half_opened", 1), ("closed", 1), ("reopened", 1),
    ):
        if flap.get(edge, 0) < minimum:
            problems.append(
                f"flap_recover_flap: {edge} = {flap.get(edge, 0)} < "
                f"{minimum} (breaker lifecycle incomplete)"
            )
    if not acceptance.get("passed", False):
        problems.append(
            f"bench did not self-accept: {acceptance.get('failures')}"
        )
    return problems


def main() -> int:
    raw = (
        open(sys.argv[1]).read() if len(sys.argv) > 1 else sys.stdin.read()
    )
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError as exc:
        print(f"invalid JSON: {exc}", file=sys.stderr)
        return 1
    problems = validate(payload)
    if problems:
        for problem in problems:
            print(f"chaos-smoke violation: {problem}", file=sys.stderr)
        return 1
    print("chaos smoke OK: zero crashes, availability floor met, "
          "breaker lifecycle complete")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
