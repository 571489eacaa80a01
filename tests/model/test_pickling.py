"""Boxed model objects pickle by value, not by their cached hash.

String hashes depend on ``PYTHONHASHSEED``, and spawn or forkserver
worker pools start each worker under its own seed. An object that carried
its cached hash across would be unequal-by-hash to its twin on the other
side: missing from sets and dicts it belongs to.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

OBJECTS = """
from repro.model import Atom, Constant, Substitution, Valuation, Variable
from repro.queries import ConjunctiveQuery, parse_rule
objects = [
    Constant("a"),
    Variable("x"),
    Atom("R", (Constant("a"), Variable("x"), 7)),
    Atom.from_constants("S", (Constant("b"), Constant(("t", 1)))),
    ConjunctiveQuery(
        Atom("V", (Variable("x"),)),
        [Atom("R", (Variable("x"), Constant("a")))],
    ),
    Substitution({Variable("x"): Variable("y"), Variable("z"): Constant(1)}),
    Valuation({Variable("x"): Constant("a")}),
    parse_rule("V(x) <- R(x, y), Lt(x, y)"),
]
"""

DUMP = OBJECTS + """
import pickle, sys
sys.stdout.buffer.write(pickle.dumps(objects))
"""

LOAD = OBJECTS + """
import pickle, sys
loaded = pickle.loads(sys.stdin.buffer.read())
assert loaded == objects, loaded
for mine, theirs in zip(objects, loaded):
    assert hash(theirs) == hash(mine), (theirs, hash(theirs), hash(mine))
    assert theirs in set(objects) and theirs in {mine: 1}, theirs
print("ok")
"""


def _python(code: str, seed: int, stdin: bytes = b"") -> bytes:
    env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", code], input=stdin, env=env,
        capture_output=True, check=True,
    )
    return result.stdout


def test_terms_and_atoms_survive_a_change_of_hash_seed():
    pickled = _python(DUMP, seed=1)
    assert _python(LOAD, seed=2, stdin=pickled).strip() == b"ok"
