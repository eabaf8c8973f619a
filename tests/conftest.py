"""Shared helpers and fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.data.database import Database
from repro.data.relation import Relation
from repro.joins.generic_join import evaluate
from repro.query.atoms import Atom
from repro.query.query import JoinQuery
from repro.query.variable_order import VariableOrder


def lex_answers(
    query: JoinQuery, database: Database, order: VariableOrder
) -> list[tuple]:
    """Brute-force oracle: all answers sorted by the given lex order."""
    result = evaluate(query, database, list(order))
    return sorted(tuple(row) for row in result.rows)


def random_join_query(rng: random.Random) -> JoinQuery:
    """A small random join query over variables a..e (possibly cyclic)."""
    variables = ["a", "b", "c", "d", "e"][: rng.randint(2, 5)]
    atom_count = rng.randint(1, 4)
    atoms = []
    used: set[str] = set()
    for i in range(atom_count):
        arity = rng.randint(1, min(3, len(variables)))
        scope = rng.sample(variables, arity)
        atoms.append(Atom(f"R{i}", tuple(scope)))
        used.update(scope)
    # Guarantee every variable occurs in some atom.
    missing = [v for v in variables if v not in used]
    if missing:
        atoms.append(Atom(f"R{atom_count}", tuple(missing)))
    return JoinQuery(tuple(atoms))


def random_database_for(
    query: JoinQuery,
    rng: random.Random,
    rows: int = 12,
    domain: int = 4,
) -> Database:
    """Random data with a small domain (dense enough to join)."""
    relations = {}
    for symbol in query.relation_symbols:
        arity = query.arity_of(symbol)
        tuples = {
            tuple(rng.randrange(domain) for _ in range(arity))
            for _ in range(rows)
        }
        relations[symbol] = Relation(tuples, arity=arity)
    return Database(relations)


def random_order(query: JoinQuery, rng: random.Random) -> VariableOrder:
    variables = list(query.variables)
    rng.shuffle(variables)
    return VariableOrder(variables)


def read_reply(stream):
    """One framed HTTP reply off a socket file (``sock.makefile("rb")``,
    which buffers pipelined replies): ``(status line, [(header, value),
    ...] in wire order, body, every byte read)``."""
    raw = status_line = stream.readline()
    headers = []
    while True:
        line = stream.readline()
        raw += line
        if line in (b"\r\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers.append((name, value.strip()))
    body = stream.read(int(dict(headers)["Content-Length"]))
    return status_line, headers, body, raw + body


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20220614)
