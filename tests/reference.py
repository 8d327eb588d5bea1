"""Reference checks and inputs that only the test suite needs.

Independent cross-checks of the structural analysis (a brute-force
join-tree search, running intersection, minimality, homomorphisms and a
canonical form found by permutation search), the
copying restriction that the untangling engine's in-place reads are checked
against, an untangling search with both step links and the lift of its
witnesses to image-only ones, the census of small queries that compares
the two searches, the gadget decoders that map every answer back to a
graph object, and the copy and tripartite generators.  Import it like
``conftest``.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Optional

from cqsj.engines import Ticker
from cqsj.qmodel import Atom, Database, Pair, Query, RelationSymbol, serialize_query
from cqsj.reductions import JOIN, Graph
from cqsj.structure import (
    Image,
    UntangledGroup,
    UntanglingWitness,
    _folding_endomorphism,
    _induced_subquery,
    find_maps,
    images,
    is_untangleable,
    untangle,
    validate_untangling_witness,
)


class NonPairValueError(Exception):
    pass


# -- structure ------------------------------------------------------------------


def satisfies_running_intersection(tree) -> bool:
    return _forest_has_running_intersection(tree.nodes, tree.parent)


def _forest_has_running_intersection(nodes, parent) -> bool:
    adj = {a: [] for a in nodes}
    for a in nodes:
        p = parent[a]
        if p is not None:
            adj[a].append(p)
            adj[p].append(a)
    all_vars = set()
    for a in nodes:
        all_vars.update(a.args)
    for v in sorted(all_vars):
        holders = [a for a in nodes if v in a.args]
        seen = {holders[0]}
        stack = [holders[0]]
        while stack:
            cur = stack.pop()
            for nxt in adj[cur]:
                if nxt not in seen and v in nxt.args:
                    seen.add(nxt)
                    stack.append(nxt)
        if len(seen) != len(holders):
            return False
    return True


def brute_force_acyclic(query: Query) -> bool:
    """Independent oracle: search all labelled trees per sharing-component.

    Only practical for queries with few atoms; used to cross-check the ear
    removal implementation.
    """
    comps = _sharing_components(query.atoms)
    for comp in comps:
        if len(comp) == 1:
            continue
        if not any(
            _forest_has_running_intersection(tuple(comp), par)
            for par in _all_rooted_trees(comp)
        ):
            return False
    return True


def _sharing_components(atoms) -> list:
    comps = []
    pool = list(atoms)
    while pool:
        comp = [pool.pop(0)]
        grown = True
        while grown:
            grown = False
            for a in pool[:]:
                if any(a.var_set & b.var_set for b in comp):
                    comp.append(a)
                    pool.remove(a)
                    grown = True
        comps.append(comp)
    return comps


def _all_rooted_trees(atoms) -> Iterator[dict]:
    """All labelled trees on the atoms (Pruefer enumeration), rooted at [0]."""
    import heapq

    k = len(atoms)
    if k == 1:
        yield {atoms[0]: None}
        return
    if k == 2:
        yield {atoms[0]: None, atoms[1]: atoms[0]}
        return
    for seq in itertools.product(range(k), repeat=k - 2):
        deg = [1] * k
        for s in seq:
            deg[s] += 1
        edges = []
        heap = [i for i in range(k) if deg[i] == 1]
        heapq.heapify(heap)
        for s in seq:
            leaf = heapq.heappop(heap)
            edges.append((leaf, s))
            deg[leaf] -= 1
            deg[s] -= 1
            if deg[s] == 1:
                heapq.heappush(heap, s)
        last = [i for i in range(k) if deg[i] == 1]
        edges.append((last[0], last[1]))
        adj = {i: [] for i in range(k)}
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        par = {atoms[0]: None}
        stack = [0]
        seen = {0}
        while stack:
            cur = stack.pop()
            for nxt in adj[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    par[atoms[nxt]] = atoms[cur]
                    stack.append(nxt)
        yield par


def homomorphism_exists(src: Query, dst: Query) -> bool:
    """A homomorphism from src to dst fixing src's free variables."""
    for _ in find_maps(src.atoms, dst.atoms, pinned={v: v for v in src.free_vars}):
        return True
    return False


def is_minimal(query: Query) -> bool:
    """True iff every endomorphism fixing the free variables is injective."""
    return _folding_endomorphism(query) is None


def _refine_colors(query: Query) -> dict:
    """Colour refinement; stable variable invariants for canonical labelling."""
    free = set(query.free_vars)
    colors = {v: int(v in free) for v in query.all_vars}
    for _ in range(len(colors) + 1):
        sigs = {}
        for v in colors:
            sig = []
            for a in query.atoms:
                for i, arg in enumerate(a.args):
                    if arg == v:
                        sig.append((a.symbol.name, i,
                                    tuple(colors[x] for x in a.args)))
            sigs[v] = (colors[v], tuple(sorted(sig)))
        ranked = {s: i for i, s in enumerate(sorted(set(sigs.values())))}
        new = {v: ranked[sigs[v]] for v in colors}
        if new == colors:
            break
        colors = new
    return colors


def canonical_form(query: Query):
    """Minimal atom encoding over the variable bijections that keep colour
    refinement's classes in order: equal exactly for the queries that are the
    same up to renaming (free variables compared as a set).  Tries every
    permutation within each class, so it is for small queries only."""
    vs = list(query.all_vars)
    if not vs:
        return (tuple((a.symbol.name, a.symbol.arity, ()) for a in query.atoms),
                frozenset())
    colors = _refine_colors(query)
    classes: dict = {}
    for v in vs:
        classes.setdefault(colors[v], []).append(v)
    blocks = [sorted(classes[c]) for c in sorted(classes)]

    free = set(query.free_vars)
    best = None
    for perms in itertools.product(*[itertools.permutations(b) for b in blocks]):
        order = [v for block in perms for v in block]
        ren = {v: i for i, v in enumerate(order)}
        atoms_key = tuple(sorted(
            (a.symbol.name, a.symbol.arity, tuple(ren[x] for x in a.args))
            for a in query.atoms
        ))
        key = (atoms_key, frozenset(ren[v] for v in free))
        if best is None or key < best:
            best = key
    return best


# -- untangling -----------------------------------------------------------------


def _restriction_buckets(g: UntangledGroup, db: Database, index: dict,
                         ticker: Ticker) -> dict:
    """The buckets of ``g``'s source in ``index``, which belongs to ``db``:
    per (symbol, dropped positions), the kept columns of every row, in fact
    order, bucketed by the values at the dropped positions.  Built on first
    use with one tick per row."""
    buckets = index.get((g.source, g.positions))
    if buckets is None:
        kept_positions = [i for i in range(len(g.positions) + len(g.kept[0]))
                          if i not in g.positions]
        buckets = index[(g.source, g.positions)] = {}
        ticker.tick(len(db.facts(g.source)))
        for row in db.facts(g.source):
            at = tuple(row[p] for p in g.positions)
            buckets.setdefault(at, []).append(tuple(row[i] for i in kept_positions))
    return buckets


def restrict(groups: tuple, assignment: dict, db: Database, index: dict,
             ticker: Ticker) -> Database:
    """The database over an untangling step's ``rest`` that one image answer
    leaves; ``groups`` are the step's ``structure.UntangledGroup``s.

    A group that drops positions costs one probe of its buckets in ``index``
    (see ``_restriction_buckets``) plus one tick per row it copies; a group
    that drops nothing is copied by a plain scan.
    """
    out = Database()
    for g in groups:
        if not g.positions:
            for row in db.facts(g.source):
                ticker.tick()
                out.add_fact(g.relation, row)
            continue
        values = tuple(assignment[v] for v in g.image_vars)
        ticker.tick()  # index probe
        for kept in _restriction_buckets(g, db, index, ticker).get(values, ()):
            ticker.tick()
            out.add_fact(g.relation, kept)
    return out


def ear_removal_acyclic(atoms) -> bool:
    """GYO reduction on the atoms' variable sets: drop a variable that one
    set holds alone, drop a set inside another; acyclic iff none is left."""
    sets = [set(a.args) for a in atoms]
    while sets:
        count = Counter(v for vs in sets for v in vs)
        for vs in sets:
            vs -= {v for v in vs if count[v] == 1}
        covered = next((i for i, vs in enumerate(sets)
                        if not vs or any(j != i and vs <= other for j, other in enumerate(sets))),
                       None)
        if covered is None:
            return False
        del sets[covered]
    return True


def two_link_witness(query: Query, memo: Optional[dict] = None) -> Optional[UntanglingWitness]:
    """An untangling chain for the full ``query`` with both links a step
    through a nontrivial image I may take: on to I when the query untangled
    at I is acyclic, or on to that untangling's result when I is acyclic and
    each paper symbol of the result carries one filter (one group).  The
    result link is tried first, so that witnesses take it wherever a chain
    does.  None when no chain exists; exhaustive, with no budget.  ``memo``
    maps queries already searched to their witness or None."""
    memo = {} if memo is None else memo
    if query not in memo:
        memo[query] = _two_link_search(query, memo)
    return memo[query]


def _two_link_search(query: Query, memo: dict) -> Optional[UntanglingWitness]:
    if ear_removal_acyclic(query.atoms):
        return UntanglingWitness(query, ())
    for image in images(query):
        if image.atoms == set(query.atoms):
            continue
        rewrite = untangle(query, image.atoms)
        symbols = [g.symbol for g in rewrite.groups]
        links = []
        if ear_removal_acyclic(image.query.atoms) and len(symbols) == len(set(symbols)):
            links.append(rewrite.result)
        if ear_removal_acyclic(rewrite.result.atoms):
            links.append(image.query)
        for prev in links:
            sub = two_link_witness(prev, memo)
            if sub is not None:
                return UntanglingWitness(sub.base, sub.steps + (image,))
    return None


def _lift_result_step(image: Image, below: UntanglingWitness) -> Optional[UntanglingWitness]:
    """An image-only chain for ``image.source`` = q from a step through the
    image I on to its untangling's result R, given an image-only chain
    ``below`` for R; None when I is not a retract of q.

    The rest atoms map one to one onto R's atoms (one group per paper
    symbol).  With q_j = I plus the rest atoms of R_j, an endomorphism of
    R_j onto R_(j-1), extended by the identity on I's variables, maps q_j
    onto q_(j-1), and a retraction of q onto I maps q_0 onto I."""
    query, i_vars = image.source, sorted({v for a in image.atoms for v in a.args})
    retraction = next(find_maps(query.atoms, image.atoms, pinned={v: v for v in i_vars}), None)
    if retraction is None:
        return None
    rest_atom = {}  # R's atom -> the rest atom it comes from
    for g in untangle(query, image.atoms).groups:
        symbol = RelationSymbol(g.source, len(g.positions) + len(g.kept[0]))
        for kept in g.kept:
            args, at = [], iter(kept)
            for i in range(symbol.arity):
                args.append(g.image_vars[g.positions.index(i)] if i in g.positions else next(at))
            rest_atom[Atom(RelationSymbol(g.symbol, len(kept)), kept)] = Atom(symbol, tuple(args))
    assert set(rest_atom.values()) == set(query.atoms) - image.atoms

    def lifted(atoms) -> frozenset:
        return image.atoms | {rest_atom[a] for a in atoms}

    chain = [lifted(step.atoms) for step in below.steps] + [frozenset(query.atoms)]
    sources = [_induced_subquery(atoms) for atoms in chain[:-1]] + [query]
    steps = [Image(image.atoms, image.query,
                   {v: retraction[v] for v in sources[0].all_vars}, sources[0])]
    for step, atoms, source in zip(below.steps, chain, sources[1:]):
        endo = {**step.endo, **{v: v for v in i_vars}}
        steps.append(Image(atoms, _induced_subquery(atoms), endo, source))
    return UntanglingWitness(image.query, tuple(steps))


def lift_witness(witness: UntanglingWitness) -> Optional[UntanglingWitness]:
    """The witness with every step on to an untangling's result replaced by
    the lifted image-only steps (``_lift_result_step``), from the base up;
    None when such a step's image is not a retract of its source."""
    out = UntanglingWitness(witness.base, ())
    for prev, image in zip(witness.chain, witness.steps):
        if image.query == prev:
            out = UntanglingWitness(out.base, out.steps + (image,))
        else:
            out = _lift_result_step(image, out)
            if out is None:
                return None
    return out


def connected_queries(max_atoms: int, unary: bool = False) -> list:
    """Every connected cyclic full query over R/2 with at most ``max_atoms``
    R atoms, plus one P/1 atom when ``unary``, one per class up to renaming
    (``canonical_form``).

    Grows the digraphs an edge at a time: dropping an edge of a cycle, or a
    leaf's edge, leaves a connected digraph with one edge fewer, so every
    connected digraph is a connected one plus an edge."""
    def query(edges, marked=None) -> Query:
        atoms = [Atom(RelationSymbol("R", 2), (f"x{u}", f"x{v}")) for u, v in edges]
        if marked is not None:
            atoms.append(Atom(RelationSymbol("P", 1), (f"x{marked}",)))
        return _induced_subquery(atoms)

    level = {canonical_form(query(edges)): edges for edges in (((0, 0),), ((0, 1),))}
    graphs = dict(level)
    for _ in range(max_atoms - 1):
        grown: dict = {}
        for edges in level.values():
            n = 1 + max(map(max, edges))  # vertex n is a new one
            for edge in itertools.product(range(n + 1), repeat=2):
                if edge not in edges and edge != (n, n):
                    grown.setdefault(canonical_form(query(edges + (edge,))), edges + (edge,))
        level = grown
        graphs.update(grown)
    queries = {}
    for edges in graphs.values():
        for marked in range(1 + max(map(max, edges))) if unary else [None]:
            q = query(edges, marked)
            queries.setdefault(canonical_form(q), q)
    return sorted(q for q in queries.values() if not ear_removal_acyclic(q.atoms))


def check_untangling(query: Query, counts: Counter, memo: Optional[dict] = None) -> None:
    """Assert that ``is_untangleable`` agrees with the two-link search on
    ``query``, and that the two-link witness, when its steps on to an
    untangling's result all go through retracts, lifts to an image-only
    witness that ``validate_untangling_witness`` accepts.  Counts the
    verdicts, the witnesses with such steps and the ones lifted."""
    witness = two_link_witness(query, memo)
    status = is_untangleable(query)[0]
    assert status == ("no" if witness is None else "yes"), serialize_query(query)
    counts[status] += 1
    if witness is None or all(i.query == p for p, i in zip(witness.chain, witness.steps)):
        return
    counts["result steps"] += 1
    lifted = lift_witness(witness)
    if lifted is not None:
        assert validate_untangling_witness(query, lifted), serialize_query(query)
        counts["lifted"] += 1


def untangling_census(max_atoms: int, unary: bool = False) -> Counter:
    """``check_untangling`` on every query of
    ``connected_queries(max_atoms, unary)``; returns the counts, with the
    number of classes under "classes"."""
    counts, memo = Counter(), {}
    for query in connected_queries(max_atoms, unary):
        counts["classes"] += 1
        check_untangling(query, counts, memo)
    return counts


# -- reductions -----------------------------------------------------------------


def duplicate_db(occurrence: dict, db: Database) -> Database:
    """One copy of each relation per occurrence of it in the query."""
    out = Database()
    for name, atom in occurrence.items():
        for row in db.facts(atom.symbol.name):
            out.add_fact(name, row)
    return out


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


# the fixture whose query each gadget's database is built for
GADGET_QUERIES = {
    "triangle-mirrorfig1": "diamond_red",
    "triangle-spike-q1": "ring8",
    "triangle-untangle2": "windmill",
    "utd-spike-q4": "ring8_spikes_flip",
}

GADGET_DECODERS = {
    "triangle-mirrorfig1": _decode_mirrorfig1,
    "triangle-spike-q1": _decode_spike_q1,
    "triangle-untangle2": _decode_untangle2,
    "utd-spike-q4": _decode_utd_q4,
}


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
