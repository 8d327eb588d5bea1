"""Shared helpers: seeded random instances and brute-force triangle oracles."""

from __future__ import annotations

import random
import sys

import pytest
from hypothesis import strategies as hst

# no __pycache__ next to the package: a benchmark run from this checkout
# would otherwise start from bytecode and read a lower setup_s
sys.dont_write_bytecode = True

from cqsj.qmodel import Database
from cqsj import fixtures as fx

# Parser fuzz input: arbitrary characters mixed with the text formats' own
# tokens, so that some examples get deep into a query or a list of facts.
FUZZ_TEXT = hst.lists(
    hst.one_of(hst.sampled_from(("Q", "R", "S", "x", "y", "a", "0", "#", "(", ")", ",",
                                 ".", ":-", "%", " ", "\n", "pair(")),
               hst.characters()),
    max_size=60,
).map("".join)


# the untangling search once took a result_is_previous step for this query:
# a chain went on at an untangling's result, not at the image.  Every step
# now goes on at its image, and the search finds an image-only chain here
FOUND_RESULT_IS_PREVIOUS = ("Q(x0,x1,x2,x3,x4) :- P(x0), R(x0,x0), R(x1,x0), R(x2,x1), "
                            "R(x2,x2), R(x2,x4), R(x3,x1), R(x3,x2).")

# the query keeps a relation named R__0_f1, the name the second group of
# the rewritten symbol R__0 gets at its untangling step; on this database,
# reading both groups from one relation gives two extra answers
KEPT_F_NAME = ("Q(v0,v1,v2,v3) :- R(v0,v1), R(v1,v2), R(v1,v3), R(v2,v2), R(v2,v3), "
               "R__0_f1(v2), R__0_f1(v3).")
KEPT_F_NAME_DB = ("R(n0,n2). R(n1,n0). R(n1,n2). R(n2,n0). R(n2,n1). R(n2,n3). R(n3,n3). "
                  "R__0_f1(n0). R__0_f1(n3).")


def random_graph_db(n, m, seed, red_p=0.0, loops=0, s_facts=0, hubs=0) -> Database:
    """Sparse {R, P, S} instance; deterministic for a fixed seed.

    hubs plants S(a,b,c) facts together with the R triangle underneath them
    so ternary-hub patterns actually match.
    """
    rng = random.Random(seed)
    db = Database()
    for _ in range(m):
        db.add_fact("R", (f"v{rng.randrange(n)}", f"v{rng.randrange(n)}"))
    for _ in range(loops):
        v = f"v{rng.randrange(n)}"
        db.add_fact("R", (v, v))
    if red_p:
        for i in range(n):
            if rng.random() < red_p:
                db.add_fact("P", (f"v{i}",))
    for _ in range(s_facts):
        db.add_fact("S", tuple(f"v{rng.randrange(n)}" for _ in range(3)))
    for _ in range(hubs):
        a, b, c = (f"v{rng.randrange(n)}" for _ in range(3))
        db.add_fact("R", (a, b))
        db.add_fact("R", (b, c))
        db.add_fact("R", (c, a))
        db.add_fact("S", (a, b, c))
    return db


# each bespoke strategy with the random_graph_db options that give its
# pattern matches; its oracle test and its renamed-head test share these
BESPOKE_DB_KWARGS = [
    ("TWO_LOOPS", dict(loops=4)),
    ("TWO_TRIANGLES", dict(loops=4)),
    ("SPIKE_Q2", dict(red_p=0.3)),
    ("SPIKE_Q3", dict(red_p=0.2)),
]


def bespoke_dbs(kwargs) -> list:
    """The 20 seeded databases a bespoke strategy is tested on."""
    return [random_graph_db(12, 20, seed, **kwargs) for seed in range(20)]


def random_query(seed, max_atoms=6, max_vars=6):
    """Small random query over a mixed schema, possibly with self-joins."""
    rng = random.Random(seed)
    symbols = [("R", 2), ("S", 2), ("T", 3), ("P", 1)]
    variables = [f"v{i}" for i in range(rng.randint(1, max_vars))]
    atoms = []
    from cqsj.qmodel import Atom, RelationSymbol

    for _ in range(rng.randint(1, max_atoms)):
        name, arity = symbols[rng.randrange(len(symbols))]
        args = tuple(variables[rng.randrange(len(variables))] for _ in range(arity))
        atoms.append(Atom(RelationSymbol(name, arity), args))
    from cqsj.qmodel import make_query

    used = sorted({v for a in atoms for v in a.args})
    k = rng.randint(0, len(used))
    free = tuple(rng.sample(used, k))
    return make_query(tuple(atoms), free)


def pattern_triangles(kind, graph) -> set:
    """Brute-force enumeration of the directed triple pattern each gadget
    detects; ground truth for soundness/completeness checks."""
    edges = set(graph.edges)
    out = set()
    if kind == "triangle-mirrorfig1":
        for a, b in edges:
            for c in graph.vertices:
                if (a, c) in edges and (c, b) in edges:
                    out.add((a, b, c))
    elif kind == "triangle-spike-q1":
        for a, b in edges:
            for c in graph.vertices:
                if (b, c) in edges and (a, c) in edges:
                    out.add((a, b, c))
    elif kind == "triangle-untangle2":
        for a, b in edges:
            for c in graph.vertices:
                if (b, c) in edges and (c, a) in edges:
                    out.add((a, b, c))
    elif kind == "utd-spike-q4":
        part_u = set(graph.part_of("U"))
        part_v = set(graph.part_of("V"))
        uv = {e for e in edges if e[0] in part_u}
        vw = {e for e in edges if e[0] in part_v}
        wu = {e for e in edges if e[0] not in part_u and e[0] not in part_v}
        for u, v in uv:
            for w in graph.part_of("W"):
                if (v, w) in vw and (w, u) in wu:
                    out.add((u, v, w))
    else:
        raise ValueError(kind)
    return out


@pytest.fixture
def diamond():
    return fx.fixture("diamond")


@pytest.fixture
def diamond_red():
    return fx.fixture("diamond_red")
