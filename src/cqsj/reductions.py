"""Executable hardness constructions.

Builds the tagged-pair databases that tie triangle detection to specific
query patterns, the pair encoding of a relabelled instance, and the seeded
random graphs that ``bench-delay`` measures on.

Reserved tokens: ``bot`` is the sentinel vertex and ``#`` joins the two
components of a composite vertex; input graphs may use neither.  Every
vertex must be a fact-format value token, so that the written database
parses back.
"""

from __future__ import annotations

import random
import re
from typing import Iterable, NamedTuple, Optional

from .qmodel import MAX_PAIR_DEPTH, Atom, Database, Pair, Query, RelationSymbol, make_query

BOT = "bot"
JOIN = "#"
_VERTEX = re.compile(r"[a-z0-9_]+")


class GadgetInputError(Exception):
    pass


# -- graphs -------------------------------------------------------------------


class _GraphFields(NamedTuple):
    vertices: tuple
    edges: tuple  # tuple[(str, str), ...]
    parts: Optional[dict]  # {"U": (...), "V": (...), "W": (...)}


class Graph(_GraphFields):
    """Directed graph, optionally with a three-way vertex partition."""

    __slots__ = ()

    def __new__(cls, vertices: tuple, edges: tuple, parts: Optional[dict] = None):
        vs = set(vertices)
        for u, v in edges:
            if u not in vs or v not in vs:
                raise GadgetInputError(f"edge ({u},{v}) uses unknown vertex")
        if parts is not None:
            labelled = [x for key in ("U", "V", "W") for x in parts.get(key, ())]
            if sorted(labelled) != sorted(vertices):
                raise GadgetInputError("parts do not partition the vertex set")
        return super().__new__(cls, vertices, edges, parts)

    def part_of(self, key: str) -> tuple:
        if self.parts is None:
            raise GadgetInputError("graph has no parts header")
        return tuple(self.parts.get(key, ()))


def make_graph(edges: Iterable, vertices: Iterable = (), parts: Optional[dict] = None) -> Graph:
    edges = tuple(dict.fromkeys(tuple(e) for e in edges))
    vs = dict.fromkeys(vertices)
    for u, v in edges:
        vs.setdefault(u)
        vs.setdefault(v)
    return Graph(tuple(vs), edges, parts)


def parse_graph(text: str) -> Graph:
    """Edge list, one ``u v`` per line; optional ``#parts U:... V:... W:...``."""
    parts = None
    edges = []
    vertices = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#parts"):
            parts = {}
            for chunk in line[len("#parts"):].split():
                key, _, names = chunk.partition(":")
                if key not in ("U", "V", "W"):
                    raise GadgetInputError(f"line {lineno}: bad part {key!r}")
                parts[key] = tuple(n for n in names.split(",") if n)
            vertices.extend(x for p in parts.values() for x in p)
            continue
        if line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise GadgetInputError(f"line {lineno}: expected 'u v'")
        edges.append((fields[0], fields[1]))
    return make_graph(edges, vertices, parts)


def _reject_reserved(graph: Graph) -> None:
    for v in graph.vertices:
        if v == BOT:
            raise GadgetInputError(f"vertex {v!r} clashes with a reserved token")
        if not _VERTEX.fullmatch(v):  # rejects JOIN too
            raise GadgetInputError(f"vertex {v!r} is not a value token [a-z0-9_]+")


# -- relabelling and the pair encoding -----------------------------------------


def relabel_self_join_free(query: Query):
    """Give each atom occurrence its own relation symbol.

    Returns the rewritten query plus the occurrence map (new symbol name ->
    original atom); the map drives the pair encoding below.
    """
    counters: dict = {}
    existing = {a.symbol.name for a in query.atoms}
    occurrence: dict = {}
    new_atoms = []
    for a in query.atoms:
        counters[a.symbol.name] = counters.get(a.symbol.name, 0) + 1
        name = f"{a.symbol.name}{counters[a.symbol.name]}"
        while name in existing or name in occurrence:
            name += "0"
        occurrence[name] = a
        new_atoms.append(Atom(RelationSymbol(name, a.symbol.arity), a.args))
    return make_query(tuple(new_atoms), query.free_vars), occurrence


def _pair_depth(value) -> int:
    depth = 0
    while isinstance(value, Pair):
        value, depth = value.data, depth + 1
    return depth


def encoding_trick(d_prime: Database, occurrence: dict) -> Database:
    """Fold a relabelled instance back onto the original schema.

    Every fact of an occurrence symbol becomes one fact over tagged pairs,
    the tag being the variable sitting at that position of the occurrence's
    atom.  Output size equals the input size.  A value already nested
    MAX_PAIR_DEPTH pairs deep is rejected: one more would not parse back.
    """
    out = Database()
    for name in d_prime.symbols:
        if name not in occurrence:
            raise GadgetInputError(f"symbol {name} is not in the occurrence map")
        atom = occurrence[name]
        d_prime.check_arities({name: atom.symbol.arity})
        for row in d_prime.facts(name):
            if any(_pair_depth(value) == MAX_PAIR_DEPTH for value in row):
                raise GadgetInputError(f"{name}: a value nested {MAX_PAIR_DEPTH} pair( deep "
                                       "would not parse back once encoded")
            out.add_fact(atom.symbol.name,
                         tuple(Pair(value, var) for value, var in zip(row, atom.args)))
    return out


# -- gadget databases -----------------------------------------------------------


def gadget_triangle_mirrorfig1(graph: Graph) -> Database:
    """Per-edge pair families whose non-triangle answers are one per edge.

    Targets the marked diamond; an answer either repeats the y value in the
    u slot (edge family) or exhibits edges (a,b), (a,c), (c,b).
    """
    _reject_reserved(graph)
    db = Database()
    for a, b in graph.edges:
        db.add_fact("R", (Pair(a, "x"), Pair(b, "y")))
        db.add_fact("R", (Pair(b, "y"), Pair(b, "z")))
        db.add_fact("R", (Pair(a, "x"), Pair(b, "u")))
        db.add_fact("R", (Pair(a, "u"), Pair(b, "z")))
        db.add_fact("P", (Pair(b, "y"),))
    return db


def gadget_triangle_spike_q1(graph: Graph) -> Database:
    """Per-node ring facts plus per-edge crossing facts for the marked ring.

    Answers decode to a node, an edge, or a triangle with edges (a,b),
    (b,c), (a,c); only linearly many answers avoid the triangle class.
    """
    _reject_reserved(graph)
    db = Database()
    for a in graph.vertices:
        db.add_fact("R", (Pair(a, "x1"), Pair(a, "x2")))
        db.add_fact("R", (Pair(a, "x2"), Pair(a, "x3")))
        db.add_fact("R", (Pair(a, "x4"), Pair(a, "x3")))
        db.add_fact("R", (Pair(a, "x5"), Pair(a, "x4")))
        db.add_fact("R", (Pair(a, "x1"), Pair(a, "x8")))
        db.add_fact("P", (Pair(a, "x2"),))
    for a, b in graph.edges:
        db.add_fact("R", (Pair(a, "x5"), Pair(b, "x6")))
        db.add_fact("R", (Pair(a, "x6"), Pair(b, "x7")))
        db.add_fact("R", (Pair(a, "x8"), Pair(b, "x7")))
    return db


def gadget_triangle_untangle2(graph: Graph) -> Database:
    """Five facts per edge plus four sentinel facts for the windmill pattern.

    Every answer either lives entirely in the sentinel family (at most four
    of them) or its outer-triangle slots spell out edges (a,b), (b,c), (c,a).
    """
    _reject_reserved(graph)
    db = Database()
    for a, b in graph.edges:
        db.add_fact("R", (Pair(a, "x"), Pair(b, "y")))
        db.add_fact("R", (Pair(a, "y"), Pair(b, "z")))
        db.add_fact("R", (Pair(a, "z"), Pair(b, "x")))
        db.add_fact("R", (Pair(BOT, "u"), Pair(a, "x")))
        db.add_fact("R", (Pair(b, "y"), Pair(BOT, "v")))
    db.add_fact("R", (BOT, BOT))
    db.add_fact("R", (Pair(BOT, "u"), BOT))
    db.add_fact("R", (BOT, Pair(BOT, "v")))
    db.add_fact("S", (BOT, BOT, BOT))
    return db


def gadget_utd_spike_q4(graph: Graph) -> Database:
    """Unbalanced tripartite encoding for the outward-spiked ring.

    Composite vertices carry the cross edges; an answer decodes to a
    triangle (u,v,w), a node of U, or an edge touching U, with only
    O(|U| + |edges|) answers outside the triangle class.
    """
    _reject_reserved(graph)
    if graph.parts is None:
        raise GadgetInputError("tripartite gadget needs a parts header")
    part_u = set(graph.part_of("U"))
    part_v = set(graph.part_of("V"))
    part_w = set(graph.part_of("W"))
    db = Database()
    for u in graph.part_of("U"):
        db.add_fact("R", (Pair(u, "x1"), Pair(u, "x2")))
        db.add_fact("R", (Pair(u, "x2"), Pair(u, "x3")))
        db.add_fact("R", (Pair(u, "x4"), Pair(u, "x3")))
        db.add_fact("P", (Pair(u, "x2"),))
    for a, b in graph.edges:
        if a in part_u and b in part_v:
            comp = Pair(f"{a}{JOIN}{b}", "x5")
            db.add_fact("R", (comp, Pair(a, "x4")))
            db.add_fact("R", (comp, Pair(b, "x6")))
        elif a in part_v and b in part_w:
            db.add_fact("R", (Pair(a, "x6"), Pair(b, "x7")))
        elif a in part_w and b in part_u:
            comp = Pair(f"{a}{JOIN}{b}", "x8")
            db.add_fact("R", (Pair(b, "x1"), comp))
            db.add_fact("R", (comp, Pair(a, "x7")))
        else:
            raise GadgetInputError(f"edge ({a},{b}) does not follow U->V->W->U")
    return db


GADGET_BUILDERS = {
    "triangle-mirrorfig1": gadget_triangle_mirrorfig1,
    "triangle-spike-q1": gadget_triangle_spike_q1,
    "triangle-untangle2": gadget_triangle_untangle2,
    "utd-spike-q4": gadget_utd_spike_q4,
}


# -- reproducible random inputs --------------------------------------------------


def gen_random_graph(n: int, m: int, seed: int) -> Graph:
    """n vertices, up to m distinct random directed edges without self-loops,
    seed-deterministic."""
    rng = random.Random(seed)
    vertices = tuple(f"n{i}" for i in range(n))
    edges = {}
    attempts = 0
    while len(edges) < m and attempts < 20 * m + 100:
        attempts += 1
        u = vertices[rng.randrange(n)]
        v = vertices[rng.randrange(n)]
        if u == v:
            continue
        edges.setdefault((u, v))
    return Graph(vertices, tuple(edges))


def graph_to_db(graph: Graph, red: Iterable = ()) -> Database:
    """Plain {R, P} instance from a graph plus a marked-vertex set."""
    db = Database()
    for u, v in graph.edges:
        db.add_fact("R", (u, v))
    for v in red:
        db.add_fact("P", (v,))
    return db
