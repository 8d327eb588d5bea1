"""Executable hardness constructions and their decoders.

Builds the tagged-pair databases that tie triangle detection to specific
query patterns, decodes every answer back into a graph object (triangle,
edge, node or sentinel family), and provides the reproducible random input
generators used by the verification suites.

Reserved tokens: ``bot`` is the sentinel vertex and ``#`` joins the two
components of a composite vertex; input graphs may use neither.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Optional

from .qmodel import Atom, Database, Pair, Query, RelationSymbol, make_query

BOT = "bot"
JOIN = "#"


class GadgetInputError(Exception):
    pass


class SchemaMismatchError(Exception):
    pass


class NonPairValueError(Exception):
    pass


# -- graphs -------------------------------------------------------------------


@dataclass(frozen=True)
class Graph:
    """Directed graph, optionally with a three-way vertex partition."""

    vertices: tuple
    edges: tuple  # tuple[(str, str), ...]
    parts: Optional[dict] = None  # {"U": (...), "V": (...), "W": (...)}

    def __post_init__(self):
        vs = set(self.vertices)
        for u, v in self.edges:
            if u not in vs or v not in vs:
                raise GadgetInputError(f"edge ({u},{v}) uses unknown vertex")
        if self.parts is not None:
            labelled = [x for key in ("U", "V", "W") for x in self.parts.get(key, ())]
            if sorted(labelled) != sorted(self.vertices):
                raise GadgetInputError("parts do not partition the vertex set")

    @property
    def edge_set(self) -> set:
        return set(self.edges)

    def part_of(self, key: str) -> tuple:
        if self.parts is None:
            raise GadgetInputError("graph has no parts header")
        return tuple(self.parts[key])


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
        if v == BOT or JOIN in v:
            raise GadgetInputError(f"vertex {v!r} clashes with a reserved token")


# -- relabelling and the pair encoding -----------------------------------------


def relabel_self_join_free(query: Query):
    """Give each atom occurrence its own relation symbol.

    Returns the rewritten query plus the occurrence map (new symbol name ->
    original atom); the map drives both database transformations below.
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


def duplicate_db(occurrence: dict, db: Database) -> Database:
    """One copy of each relation per occurrence of it in the query."""
    out = Database()
    for name, atom in occurrence.items():
        for row in db.facts(atom.symbol.name):
            out.add_fact(name, row)
    return out


def encoding_trick(query: Query, d_prime: Database, occurrence: dict) -> Database:
    """Fold a relabelled instance back onto the original schema.

    Every fact of an occurrence symbol becomes one fact over tagged pairs,
    the tag being the variable sitting at that position of the occurrence's
    atom.  Output size equals the input size.
    """
    out = Database()
    for name in d_prime.symbols:
        if name not in occurrence:
            raise SchemaMismatchError(f"symbol {name} is not in the occurrence map")
        atom = occurrence[name]
        if d_prime.arity(name) != atom.symbol.arity:
            raise SchemaMismatchError(f"arity mismatch for {name}")
        for row in d_prime.facts(name):
            out.add_fact(atom.symbol.name,
                         tuple(Pair(value, var) for value, var in zip(row, atom.args)))
    return out


# -- decoding -----------------------------------------------------------------


@dataclass(frozen=True)
class DecodedAnswer:
    data_part: tuple
    variable_part: Optional[dict]
    endo_class: Optional[str]  # identity | automorphism | endomorphism
    label: Optional[str] = None
    payload: Optional[tuple] = None


def decode_solution(query: Query, answer: tuple, scheme: Optional[str] = None) -> DecodedAnswer:
    """Split an answer over tagged pairs into data and variable parts.

    The variable part must be an endomorphism of the (full) query; it is
    classified as the identity, another automorphism, or a proper
    endomorphism.  With a scheme, the gadget-specific label and payload are
    attached; sentinel-bearing answers keep their raw values and skip the
    endomorphism classification (sentinels carry no variable tag).
    """
    if not query.is_full:
        raise ValueError("decoding expects a full query")
    if scheme is not None:
        label, payload = GADGET_DECODERS[scheme](query, answer)
    else:
        label, payload = None, None
    if any(not isinstance(v, Pair) for v in answer):
        if label is None:
            bad = next(v for v in answer if not isinstance(v, Pair))
            raise NonPairValueError(f"value {bad!r} carries no variable tag")
        data = tuple(v.data if isinstance(v, Pair) else v for v in answer)
        return DecodedAnswer(data, None, None, label, payload)
    variable_part = {var: val.var for var, val in zip(query.free_vars, answer)}
    for a in query.atoms:
        image = a.rename(variable_part)
        if image not in query.atoms:
            raise NonPairValueError(f"variable part is not an endomorphism at {a}")
    if all(k == v for k, v in variable_part.items()):
        endo_class = "identity"
    elif len(set(variable_part.values())) == len(variable_part):
        endo_class = "automorphism"
    else:
        endo_class = "endomorphism"
    data = tuple(v.data for v in answer)
    return DecodedAnswer(data, variable_part, endo_class, label, payload)


def _tags(answer) -> set:
    return {v.var for v in answer if isinstance(v, Pair)}


def _decode_mirrorfig1(query: Query, answer: tuple):
    # free order (x, y, z, u); the u slot separates the two families
    vu = answer[3]
    if not isinstance(vu, Pair):
        raise NonPairValueError("expected tagged pairs")
    if vu.var == "y":
        return "EDGE", (answer[0].data, answer[1].data)
    if vu.var == "u":
        return "TRIANGLE", (answer[0].data, answer[1].data, vu.data)
    raise NonPairValueError(f"unexpected tag {vu.var!r} in the u slot")


def _decode_spike_q1(query: Query, answer: tuple):
    tags = _tags(answer)
    if tags <= {"x1", "x2", "x3", "x4", "x5"}:
        return "NODE", (answer[0].data,)
    if tags <= {"x1", "x2", "x3", "x7", "x8"}:
        return "EDGE", (answer[0].data, answer[6].data)
    return "TRIANGLE", (answer[0].data, answer[5].data, answer[6].data)


def _decode_untangle2(query: Query, answer: tuple):
    # free order (u, w1, w2, w3, v, x, y, z)
    vx, vy, vz = answer[5], answer[6], answer[7]
    if isinstance(vx, Pair) and vx.var == "x":
        return "TRIANGLE", (vx.data, vy.data, vz.data)
    return "BOT_FAMILY", None


def _split_composite(token: str):
    left, _, right = token.partition(JOIN)
    return left, right


def _decode_utd_q4(query: Query, answer: tuple):
    # The label is a function of the tags at the eight ring slots; the
    # construction only admits {x1..x3}, +{x4,x5}, +{x7,x8}, or all eight.
    slot_tags = {answer[i].var for i in range(8)}
    loop_tags = {f"x{i}" for i in range(1, 9)}
    if loop_tags <= slot_tags:
        return "TRIANGLE", (answer[0].data, answer[5].data, answer[6].data)
    if "x8" in slot_tags:
        w, u = _split_composite(answer[7].data)
        return "EDGE_UW", (u, w)
    if "x4" in slot_tags:
        u_, v = _split_composite(answer[4].data)
        return "EDGE_UV", (u_, v)
    return "NODE", (answer[0].data,)


GADGET_DECODERS = {
    "triangle-mirrorfig1": _decode_mirrorfig1,
    "triangle-spike-q1": _decode_spike_q1,
    "triangle-untangle2": _decode_untangle2,
    "utd-spike-q4": _decode_utd_q4,
}


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

GADGET_QUERIES = {
    "triangle-mirrorfig1": "diamond_red",
    "triangle-spike-q1": "ring8",
    "triangle-untangle2": "windmill",
    "utd-spike-q4": "ring8_spikes_flip",
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


def gen_tripartite(n_u: int, n_v: int, n_w: int, p: float, seed: int) -> Graph:
    """Tripartite instance with U->V, V->W, W->U edges, each kept with prob p."""
    rng = random.Random(seed)
    us = tuple(f"u{i}" for i in range(n_u))
    vs = tuple(f"v{i}" for i in range(n_v))
    ws = tuple(f"w{i}" for i in range(n_w))
    edges = []
    for a_side, b_side in ((us, vs), (vs, ws), (ws, us)):
        for a in a_side:
            for b in b_side:
                if rng.random() < p:
                    edges.append((a, b))
    return Graph(us + vs + ws, tuple(edges), {"U": us, "V": vs, "W": ws})


def gen_random_db(schema: dict, n: int, m: int, seed: int) -> Database:
    """m random facts per relation over an n-value domain; seed-deterministic."""
    rng = random.Random(seed)
    domain = [f"d{i}" for i in range(n)]
    db = Database()
    for name in sorted(schema):
        arity = schema[name]
        for _ in range(m):
            db.add_fact(name, tuple(domain[rng.randrange(n)] for _ in range(arity)))
    return db


def graph_to_db(graph: Graph, red: Iterable = ()) -> Database:
    """Plain {R, P} instance from a graph plus a marked-vertex set."""
    db = Database()
    for u, v in graph.edges:
        db.add_fact("R", (u, v))
    for v in red:
        db.add_fact("P", (v,))
    return db
