"""The four workloads. Each module exposes the same functions:

* ``build(seed, scale)`` — the generated inputs (static data plus an op
  generator), deterministic in the seed;
* ``digest(inputs)`` — a hash of the generated inputs;
* ``warm(inputs)`` — untimed warm-up, part of set-up;
* ``run(inputs, seconds, log)`` — the timed loop, returns the timed wall;
* ``check(inputs, log)`` — the oracle, outside the timed region; returns
  a list of mismatch descriptions;
* ``tail(inputs, log)`` — ``tail_ms`` and how it was taken (closed loops:
  a percentile inside one op class; ``serve``: the median over updates of
  the slowest response after each).
"""

WORKLOADS = ("serve", "confidence", "worlds", "cq_eval")
