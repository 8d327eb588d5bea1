"""Engines: oracle, evaluation, enumeration, dedup wrapper, delay stats."""

import collections
import gc
import itertools
import random
import sys
import tracemalloc

import pytest

import reference as ref
from conftest import (BESPOKE_DB_KWARGS, FOUND_RESULT_IS_PREVIOUS, KEPT_F_NAME, KEPT_F_NAME_DB,
                      bespoke_dbs, random_graph_db, random_query)
from cqsj import engines as en
from cqsj import fixtures as fx
from cqsj import reductions as rd
from cqsj import structure as st
from cqsj.qmodel import (ArityMismatchError, Atom, Database, Pair, RelationSymbol, make_query,
                         parse_database, parse_query)
from test_acceptance import BENCH_SIZES, _bench_graph_db


def section3_database() -> Database:
    return parse_database(
        "R(pair(a,x), pair(b,u)). R(pair(b,u), pair(c,y)). "
        "R(pair(a,x), pair(d,v)). R(pair(d,v), pair(c,y))."
    )


# -- oracle --------------------------------------------------------------------


def test_oracle_on_encoded_diamond():
    q = fx.fixture("diamond")
    got = en.oracle_enumerate(q, section3_database())
    expect = {
        (Pair("a", "x"), Pair("b", "u"), Pair("c", "y"), Pair("d", "v")),
        (Pair("a", "x"), Pair("d", "v"), Pair("c", "y"), Pair("b", "u")),
        (Pair("a", "x"), Pair("b", "u"), Pair("c", "y"), Pair("b", "u")),
        (Pair("a", "x"), Pair("d", "v"), Pair("c", "y"), Pair("d", "v")),
    }
    assert got == expect
    # the construction forces the y tag in the third slot: the variant with
    # an x tag there is not an answer
    assert (Pair("a", "x"), Pair("d", "v"), Pair("c", "x"), Pair("b", "u")) not in got


def test_oracle_boolean_triangle_on_triangle_free_graph():
    q = make_query(fx.fixture("triangle").atoms, ())
    db = parse_database("R(a,b). R(b,c). R(c,d).")
    assert en.oracle_enumerate(q, db) == set()


def test_oracle_path_answers():
    q = fx.fixture("path2_full")
    db = parse_database("R(a,b). R(b,c).")
    assert en.oracle_enumerate(q, db) == {("a", "b", "c")}


def test_oracle_empty_query_yields_empty_tuple():
    q = make_query((), ())
    assert en.oracle_enumerate(q, Database()) == {()}


# -- evaluation ------------------------------------------------------------------


def test_first_solution_decides_boolean_queries():
    q = make_query(fx.fixture("path2_full").atoms, ())
    assert en.first_solution(q, parse_database("R(a,b). R(b,c).")) == ()
    assert en.first_solution(q, parse_database("R(a,b). R(c,d).")) is None


def test_eval_boolean_requires_acyclic():
    # a cyclic Boolean query is refused before any fact is read
    q = make_query(fx.fixture("triangle").atoms, ())
    t = en.Ticker()
    with pytest.raises(st.NotAcyclicError):
        en.first_solution(q, random_graph_db(6, 12, 0), t)
    assert t.count == 0


def test_eval_matches_oracle_random():
    bq = make_query(fx.fixture("path2_full").atoms, ())
    for seed in range(40):
        db = random_graph_db(10, 18, seed)
        assert en.first_solution(bq, db) == (() if en.oracle_enumerate(bq, db) else None)


def test_eval_ticks_linear():
    bq = make_query(fx.fixture("path2_full").atoms, ())
    sizes = (500, 1000, 2000)
    ticks = []
    for m in sizes:
        db = random_graph_db(m // 2, m, 3)
        t = en.Ticker()
        en.first_solution(bq, db, t)
        ticks.append(t.count / db.size)
    assert max(ticks) / min(ticks) < 2.5


# -- first solution ----------------------------------------------------------------


def test_first_solution_examples(diamond, diamond_red):
    db = parse_database("R(a,b). R(b,c).")
    assert en.first_solution(diamond, db) == ("a", "b", "c", "b")
    assert en.first_solution(diamond, Database()) is None


def test_first_solution_on_single_edge_gadget(diamond_red):
    from cqsj import reductions as rd

    g = rd.make_graph([("a", "b")])
    db = rd.gadget_triangle_mirrorfig1(g)
    got = en.first_solution(diamond_red, db)
    assert got == (Pair("a", "x"), Pair("b", "y"), Pair("b", "z"), Pair("b", "y"))


def test_first_solution_rejects_cyclic_core():
    # the core's join tree is looked for before any fact is read
    t = en.Ticker()
    with pytest.raises(st.NotAcyclicError):
        en.first_solution(fx.fixture("diamond_reversed"), random_graph_db(6, 12, 0), t)
    assert t.count == 0


def test_first_solution_agrees_with_boolean_truth():
    q = fx.fixture("diamond_red")
    bq = make_query(st.Analysis(q).full_core.atoms, ())
    for seed in range(30):
        db = random_graph_db(12, 24, seed, red_p=0.3)
        got = en.first_solution(q, db)
        assert (got is None) == (not en.oracle_enumerate(bq, db))
        if got is not None:
            assert got in en.oracle_enumerate(q, db)


def _oracle_extends(query, db, bound) -> bool:
    """Whether the oracle's search extends ``bound`` (variable -> value) to
    a match of every atom of ``query``."""
    order = en._oracle_atom_order(query)
    return next(en._oracle_matches(order, 0, db, dict(bound), en.Ticker()), None) is not None


def _any_head_cases():
    """(label, query, databases) for every fixture and random_query seeds
    0-299: fixtures on graphs with self-loops, P marks and S hubs, random
    queries on random_query's whole schema over a 4-value domain."""
    for name in fx.fixture_names():
        yield name, fx.fixture(name), [
            random_graph_db(6, 9, seed, red_p=0.4, loops=2, hubs=1) for seed in range(6)]
    for seed in range(300):
        yield f"seed {seed}", random_query(seed), [
            _random_schema_db(seed * 3 + k, 4 + 3 * k) for k in range(3)]


def test_first_solution_answers_any_head_from_the_core():
    # one answer read through the core's retraction, whatever the head: an
    # answer of the oracle's, and None exactly when the oracle has none; a
    # cyclic core raises before any tick
    counts = collections.Counter()
    for label, query, dbs in _any_head_cases():
        if not st.is_acyclic(st.core(query)):
            for db in dbs:
                t = en.Ticker()
                with pytest.raises(st.NotAcyclicError):
                    en.first_solution(query, db, t)
                assert t.count == 0, label
            counts["cyclic core"] += 1
            continue
        for db in dbs:
            got = en.first_solution(query, db)
            if got is None:
                assert not _oracle_extends(query, db, {}), label
                counts["none"] += 1
                continue
            assert len(got) == query.arity
            assert _oracle_extends(query, db, zip(query.free_vars, got)), (label, got)
            counts["full" if query.is_full else "boolean" if query.is_boolean
                   else "projected"] += 1
    assert all(counts[k] >= 20 for k in ("none", "full", "boolean", "projected")), counts
    assert counts["cyclic core"] >= 5, counts


def test_first_solution_ticks_stay_linear_on_a_projected_head():
    # ticks to the first answer grow with the facts, not faster: the core's
    # semi-join pass reads each fact a bounded number of times
    q = parse_query("Q(x) :- R(x,y), R(y,z), R(x,w), P(z).")
    assert not q.is_full and len(st.core(q).atoms) < len(q.atoms)
    per_fact = []
    for size in BENCH_SIZES:
        db = _bench_graph_db(size, 7, red_p=0.05)
        t = en.Ticker()
        got = en.first_solution(q, db, t)
        assert got is not None and _oracle_extends(q, db, zip(q.free_vars, got))
        per_fact.append(t.count / db.size)
    assert max(per_fact) / min(per_fact) < 2.5, per_fact


# -- full acyclic enumeration ---------------------------------------------------------


def test_enum_full_acyclic_examples():
    q = fx.fixture("path2_full")
    db = parse_database("R(a,b). R(b,c). R(b,d).")
    assert set(en.enum_full_acyclic(q, db)) == {("a", "b", "c"), ("a", "b", "d")}


def test_enum_full_acyclic_empty_database():
    q = fx.fixture("path2_full")
    cursor = en.enum_full_acyclic(q, Database())
    assert cursor.next() is None
    assert cursor.next() is None  # an exhausted cursor stays exhausted


def test_enum_full_acyclic_rejects_cyclic():
    with pytest.raises(st.NotAcyclicError):
        en.enum_full_acyclic(fx.fixture("triangle"), Database())


def test_enum_full_acyclic_disconnected_components():
    q = parse_query("Q(x,y,u,v) :- R(x,y), S(u,v).")
    db = parse_database("R(a,b). S(c,d). S(c,e).")
    assert set(en.enum_full_acyclic(q, db)) == {
        ("a", "b", "c", "d"), ("a", "b", "c", "e")}


def test_enum_full_acyclic_repeated_variable_atom():
    q = parse_query("Q(x,y) :- R(x,x), R(x,y).")
    db = parse_database("R(a,a). R(a,b). R(b,c).")
    assert set(en.enum_full_acyclic(q, db)) == {("a", "a"), ("a", "b")}


def test_full_acyclic_preprocessing_is_one_pass():
    # path2_full's join tree is one edge, R(x,y) under R(y,z), and neither
    # atom repeats a variable: one bucketing scan of the child and one
    # filtering scan of the parent.  A downward pass or a separate index
    # scan would cost more.
    q = fx.fixture("path2_full")
    for n, seed in ((0, 0), (1, 1), (60, 2), (500, 3)):
        db = random_graph_db(max(1, n // 2), n, seed)
        assert db.symbols == (["R"] if n else [])
        cursor = en.enum_full_acyclic(q, db)
        assert cursor.preprocessing_ticks == 2 * db.size


def _random_schema_db(seed: int, facts: int) -> Database:
    """Facts over random_query's schema on a small domain, so joins hit."""
    rng = random.Random(seed)
    db = Database()
    for name, arity in (("R", 2), ("S", 2), ("T", 3), ("P", 1)):
        for _ in range(facts):
            db.add_fact(name, tuple(f"d{rng.randrange(4)}" for _ in range(arity)))
    return db


def test_full_acyclic_enumeration_has_no_dead_ends():
    # Without a downward pass every row the enumeration reaches must still
    # extend to an answer: the answers match the oracle without repeats and
    # no gap between emissions exceeds one probe and one row per atom.
    queries = (random_query(seed) for seed in itertools.count())
    full = (make_query(q.atoms, tuple(sorted(q.all_vars))) for q in queries)
    joins = list(itertools.islice(
        (q for q in full if len(q.atoms) > 1 and st.is_acyclic(q)), 80))
    assert max(len(q.atoms) for q in joins) >= 5
    answered = 0
    for i, q in enumerate(joins):
        for facts in (6, 14):
            db = _random_schema_db(i * 7 + facts, facts)
            cursor = en.enum_full_acyclic(q, db)
            got, gaps, last = [], [], cursor.ticker.count
            while True:
                item = cursor.next()
                gaps.append(cursor.ticker.count - last)
                last = cursor.ticker.count
                if item is None:
                    break
                got.append(item)
            assert len(got) == len(set(got)), q
            assert set(got) == en.oracle_enumerate(q, db), q
            assert max(gaps) <= 2 * len(q.atoms), q
            answered += bool(got)
    assert answered >= 80


def _full_acyclic_run(query, db) -> tuple:
    cursor = en.enum_full_acyclic(query, db)
    got = set(cursor)
    return got, cursor.ticker.count, cursor.preprocessing_ticks


def test_semi_join_never_costs_more_than_the_scan(monkeypatch):
    # a pass fetches a parent from a built map only when that provably costs
    # fewer ticks than scanning it, and keeps the same rows: with the lookup
    # reporting no map, every parent is scanned, and no cursor gets cheaper
    queries = (random_query(seed, 8, 8) for seed in range(300))
    joins = [q for q in queries if q.is_full and st.is_acyclic(q)]
    dbs = [random_graph_db(200, 600, s, red_p=0.05, loops=3, s_facts=40) for s in (0, 1)]
    fetched = [_full_acyclic_run(q, db) for q in joins for db in dbs]
    monkeypatch.setattr(en._FactIndex, "built", lambda self, name, at: None)
    scanned = [_full_acyclic_run(q, db) for q in joins for db in dbs]
    assert len(fetched) > 150
    cheaper = 0
    for (got, ticks, pre), (expect, scan_ticks, scan_pre) in zip(fetched, scanned):
        assert got == expect
        assert ticks <= scan_ticks and pre <= scan_pre
        cheaper += ticks < scan_ticks
    assert cheaper


def _delay_run(cursor) -> tuple:
    """(answer set, ticks, preprocessing ticks, largest gap) of a cursor run
    to completion, gaps counted as ``measure_delay`` counts them."""
    got, last, gap = set(), cursor.ticker.count, 0
    while True:
        item = cursor.next()
        gap = max(gap, cursor.ticker.count - last)
        last = cursor.ticker.count
        if item is None:
            return got, cursor.ticker.count, cursor.preprocessing_ticks, gap
        got.add(item)


def test_keeping_every_parent_row_never_costs_more(monkeypatch):
    # a parent drawn from the relation its child reads whole, keyed at the
    # same positions, keeps every row without a scan: with the rule off,
    # every such parent is scanned, and no cursor's ticks or largest gap
    # get smaller
    queries = (random_query(seed, 8, 8) for seed in range(300))
    joins = [q for q in queries if q.is_full and st.is_acyclic(q)]
    dbs = [random_graph_db(200, 600, s, red_p=0.05, loops=3, s_facts=40) for s in (0, 1)]
    makers = [lambda q=q, db=db: en.enum_full_acyclic(q, db) for q in joins for db in dbs]
    untangling = [lambda q=q, w=w, db=db: en.enum_untangle(q, w, db)
                  for _, q, w, db in _untangle_cursor_cases()]
    kept = [_delay_run(make()) for make in makers + untangling]
    monkeypatch.setattr(en, "_keeps_every_row", lambda *args: False)
    scanned = [_delay_run(make()) for make in makers + untangling]
    assert len(makers) > 150
    cheaper = []
    for (got, ticks, pre, gap), (expect, scan_ticks, scan_pre, scan_gap) in zip(kept, scanned):
        assert got == expect
        assert ticks <= scan_ticks and pre <= scan_pre and gap <= scan_gap
        cheaper.append(ticks < scan_ticks)
    # both the full acyclic pass and the untangling passes skip some scan
    assert any(cheaper[:len(makers)]) and any(cheaper[len(makers):])


# (query, the relation it reads, preprocessing ticks per fact of it); the
# parent, the last atom, was scanned once more per fact.  path2_full, which
# reads R at other positions, keeps its scan (see
# test_full_acyclic_preprocessing_is_one_pass).
KEPT_PARENT_SHAPES = [
    # one edge whose parent reads R keyed at R(z,y)'s position: only the
    # child's bucketing is paid
    ("Q(x,y,z) :- R(x,y), R(z,y).", "R", 1),
    # the parent S(z,x,x) filters S for its repeated variable, then keeps
    # every row it filtered: S(w,x,v) holds x where S(z,x,x) first does
    ("Q(w,x,v,z) :- S(w,x,v), S(z,x,x).", "S", 2),
]


@pytest.mark.parametrize("text,name,per_fact", KEPT_PARENT_SHAPES)
def test_parent_keyed_like_its_whole_child_is_not_scanned(text, name, per_fact):
    query = parse_query(text)
    tree = st.gyo_acyclic(query)
    assert [p for p in tree.parent.values() if p is not None] == [query.atoms[-1]]
    answered = 0
    # (30, 120, 0) draws R as random_graph_db(30, 120, 0) does: 111 facts,
    # read in 111 ticks here and in 222 when the parent was scanned
    for n, m, seed in ((0, 0, 0), (1, 1, 1), (30, 120, 0), (6, 80, 2), (200, 500, 3)):
        rng, arity = random.Random(seed), query.atoms[0].symbol.arity
        db = Database()
        for _ in range(m):
            db.add_fact(name, tuple(f"v{rng.randrange(n)}" for _ in range(arity)))
        cursor = en.enum_full_acyclic(query, db)
        assert cursor.preprocessing_ticks == per_fact * db.size, (text, n, m)
        got = list(cursor)
        assert len(got) == len(set(got))
        assert set(got) == en.oracle_enumerate(query, db)
        answered += bool(got)
    assert answered >= 3


# -- generic join ----------------------------------------------------------------------


def _join_matches_oracle(query, db) -> int:
    cursor = en.generic_join_cursor(query, db)
    assert cursor.ticker.count == cursor.preprocessing_ticks == 0  # reads no facts
    got = list(cursor)
    assert len(got) == len(set(got)), query
    assert set(got) == en.oracle_enumerate(query, db), query
    return len(got)


# the fixtures --engine auto leaves to the fallback
FALLBACK_FIXTURES = ("triangle", "cyclic_triple", "diamond_reversed", "square_loops",
                     "double_kite", "windmill", "path2_proj", "unary_path",
                     "self_loop_boolean")


@pytest.mark.parametrize("name", FALLBACK_FIXTURES)
def test_generic_join_matches_oracle_on_fallback_fixtures(name):
    query = fx.fixture(name)
    arity = {a.symbol.name: a.symbol.arity for a in query.atoms}
    answers = 0
    for seed in range(20):
        db = random_graph_db(5, 10, seed, loops=2, hubs=2 if arity.get("S") == 3 else 0)
        rng = random.Random(seed)
        for rel in ("S", "T"):
            for _ in range(4 if arity.get(rel) == 2 else 0):
                db.add_fact(rel, (f"v{rng.randrange(5)}", f"v{rng.randrange(5)}"))
        assert db.size <= 20
        answers += _join_matches_oracle(query, db)
    assert answers


def test_generic_join_matches_oracle_on_gadgets():
    for kind, name in ref.GADGET_QUERIES.items():
        answers = 0
        for seed in range(3):
            if kind == "utd-spike-q4":
                graph = ref.gen_tripartite(6, 5, 5, 0.3, seed)
            else:
                graph = rd.gen_random_graph(8, 16, seed)
            answers += _join_matches_oracle(fx.fixture(name),
                                            rd.GADGET_BUILDERS[kind](graph))
        assert answers, kind


def test_generic_join_matches_oracle_on_random_queries():
    answered = sum(bool(_join_matches_oracle(random_query(seed),
                                             _random_schema_db(seed, 6)))
                   for seed in range(300))
    assert answered >= 150


@pytest.mark.parametrize("query,facts,want", [
    ("Q() :- R().", "", set()),
    ("Q() :- R().", "R().", {()}),
    ("Q(x) :- S(), R(x).", "R(a). S().", {("a",)}),
    ("Q(x) :- S(), R(x).", "R(a).", set()),
    ("Q(x) :- R(x,x).", "R(a,a). R(a,b). R(b,b). R(c,a).", {("a",), ("b",)}),
    ("Q(x,y) :- R(x,x,y), R(y,x,x).", "R(a,a,b). R(b,a,a). R(a,a,a). R(b,b,a).",
     {("a", "b"), ("a", "a")}),
    ("Q(x,y) :- R(x,y), S(y).", "R(a,b).", set()),
    ("Q(x) :- R(x,y), S(y).", "R(a,b). S(b). R(a,c). S(c).", {("a",)}),
])
def test_generic_join_edge_cases(query, facts, want):
    q, db = parse_query(query), parse_database(facts)
    assert set(en.generic_join_cursor(q, db)) == want
    _join_matches_oracle(q, db)


def test_generic_join_empty_query_yields_empty_tuple():
    assert list(en.generic_join_cursor(make_query((), ()), Database())) == [()]


def _dense_triangle_db(m: int) -> Database:
    """m distinct edges on 2 * sqrt(m) nodes: a quarter of all pairs, so the
    triangle count grows as m^1.5."""
    n = round(2 * m ** 0.5)
    pairs = [(f"v{i}", f"v{j}") for i in range(n) for j in range(n) if i != j]
    db = Database()
    for pair in random.Random(m).sample(pairs, m):
        db.add_fact("R", pair)
    return db


def test_generic_join_ticks_follow_the_agm_bound():
    # The triangle's AGM bound is m^1.5, so each doubling of m may multiply
    # the join's ticks by 2^1.5 (slack 1.25, fixed before measuring); the
    # scanning oracle pays a full scan per partial match, about m^2.5.
    q = fx.fixture("triangle")
    ticks = {"oracle": [], "join": []}
    for m in (100, 200, 400, 800):
        db = _dense_triangle_db(m)
        for label, make in (("oracle", en.oracle_cursor), ("join", en.generic_join_cursor)):
            cursor = make(q, db)
            assert sum(1 for _ in cursor)
            ticks[label].append(cursor.ticker.count)
    for label, bound in (("oracle", lambda r: r >= 4), ("join", lambda r: r <= 2 ** 1.5 * 1.25)):
        series = ticks[label]
        ratios = [b / a for a, b in zip(series, series[1:])]
        assert all(bound(r) for r in ratios), (label, series)


# -- untangle / mirror enumeration -----------------------------------------------------


def test_enum_untangle_matches_oracle(diamond_red):
    _, witness = st.is_untangleable(diamond_red)
    for seed in range(25):
        db = random_graph_db(12, 26, seed, red_p=0.4)
        got = list(en.enum_untangle(diamond_red, witness, db))
        assert len(got) == len(set(got))
        assert set(got) == en.oracle_enumerate(diamond_red, db)


def test_enum_untangle_on_encoded_database(diamond_red):
    # four-edge pair-encoded instance from the worked example, marked middle
    db = section3_database()
    db.add_fact("P", (Pair("b", "u"),))
    _, witness = st.is_untangleable(diamond_red)
    got = set(en.enum_untangle(diamond_red, witness, db))
    assert got == en.oracle_enumerate(diamond_red, db)


def test_enum_untangle_rejects_foreign_witness(diamond, diamond_red):
    _, witness = st.is_untangleable(diamond_red)
    with pytest.raises(en.InvalidWitnessError):
        en.enum_untangle(diamond, witness, Database())


def test_enum_untangle_multi_step_chain():
    q = fx.fixture("bowtie_chain")
    _, witness = st.is_untangleable(q)
    for seed in range(10):
        db = random_graph_db(7, 14, seed, hubs=3)
        got = list(en.enum_untangle(q, witness, db))
        assert len(got) == len(set(got))
        assert set(got) == en.oracle_enumerate(q, db)


@pytest.mark.parametrize("name", ["ring8_io", "ring8_spikes", "ring8_spikes_flip"])
def test_enum_untangle_matches_oracle_on_spiked_rings(name):
    q = fx.fixture(name)
    _, witness = st.is_untangleable(q)
    answered = 0
    for seed in range(8):
        db = random_graph_db(12, 12, seed, red_p=0.4)
        got = list(en.enum_untangle(q, witness, db))
        assert len(got) == len(set(got))
        assert set(got) == en.oracle_enumerate(q, db), seed
        answered += bool(got)
    assert answered >= 6


@pytest.mark.parametrize("kind", ["triangle-spike-q1", "utd-spike-q4"])
def test_enum_untangle_matches_oracle_on_gadgets(kind):
    q = fx.fixture(ref.GADGET_QUERIES[kind])
    _, witness = st.is_untangleable(q)
    for seed in range(3):
        if kind == "utd-spike-q4":
            graph = ref.gen_tripartite(6, 5, 5, 0.3, seed)
        else:
            graph = rd.gen_random_graph(8, 16, seed)
        db = rd.GADGET_BUILDERS[kind](graph)
        got = list(en.enum_untangle(q, witness, db))
        assert got
        assert len(got) == len(set(got))
        assert set(got) == en.oracle_enumerate(q, db), seed


def _flipped(witness):
    """The witness with its first step taken the other way round: the chain
    goes on at the step's untangling, not at its image."""
    image = witness.steps[0]
    return st.UntanglingWitness(image.rewrite.result, (image,) + witness.steps[1:])


def test_enum_untangle_result_is_previous_step():
    # diamond_red's only step taken the other way round: its image is
    # acyclic, its untangling is acyclic and gives each paper symbol one
    # filter, but a chain steps down to an image only, so the flipped
    # witness is rejected
    q = fx.fixture("diamond_red")
    _, found = st.is_untangleable(q)
    witness = _flipped(found)
    image = witness.steps[0]
    assert witness.base == image.rewrite.result != image.query
    assert st.is_acyclic(image.query) and st.is_acyclic(image.rewrite.result)
    assert all(g.relation == g.symbol for g in image.rewrite.groups)
    assert not st.validate_untangling_witness(q, witness)
    with pytest.raises(en.InvalidWitnessError):
        en.enum_untangle(q, witness, random_graph_db(12, 26, 0, red_p=0.4))


def test_enum_untangle_found_result_is_previous_step():
    # the search once took a step to the untangling's result here; every
    # step of the witness it finds now goes on at its image
    q = parse_query(FOUND_RESULT_IS_PREVIOUS)
    status, witness = st.is_untangleable(q)
    assert status == "yes"
    for prev, image in zip(witness.chain, witness.steps):
        assert image.query == prev
    for seed in range(10):
        db = random_graph_db(10, 40, seed, red_p=0.5, loops=6)
        got = list(en.enum_untangle(q, witness, db))
        assert len(got) == len(set(got))
        assert set(got) == en.oracle_enumerate(q, db), seed


def test_enum_untangle_keeps_a_relation_named_like_a_later_group():
    # every group of a step reads its own relation, also when the query
    # keeps one named like the relation a later group would get
    q = parse_query(KEPT_F_NAME)
    status, witness = st.is_untangleable(q)
    assert status == "yes"
    for image in witness.steps:
        relations = [g.relation for g in image.rewrite.groups]
        assert len(relations) == len(set(relations))
    dbs = [parse_database(KEPT_F_NAME_DB)]
    for seed in range(10):
        db = random_graph_db(6, 14, seed, loops=2)
        for v in sorted({row[0] for row in db.facts("R")})[::2]:
            db.add_fact("R__0_f1", (v,))
        dbs.append(db)
    for db in dbs:
        got = list(en.enum_untangle(q, witness, db))
        assert len(got) == len(set(got))
        assert set(got) == en.oracle_enumerate(q, db)


def test_enum_untangle_builds_no_database(monkeypatch):
    cursors = []
    for q in (parse_query(FOUND_RESULT_IS_PREVIOUS), fx.fixture("ring8")):
        _, witness = st.is_untangleable(q)
        cursors.append((q, witness, random_graph_db(10, 40, 3, red_p=0.5, loops=6)))
    built = []
    init = Database.__init__

    def counting_init(self):
        built.append(self)
        init(self)

    monkeypatch.setattr(Database, "__init__", counting_init)
    for q, witness, db in cursors:
        assert list(en.enum_untangle(q, witness, db))
    assert not built


def _untangling_witnesses():
    """Found witnesses for five queries."""
    return [st.is_untangleable(q)[1] for q in (
        fx.fixture("diamond_red"), fx.fixture("bowtie_chain"), fx.fixture("ring8"),
        fx.fixture("ring8_spikes_flip"), parse_query(FOUND_RESULT_IS_PREVIOUS))]


def _tampered_images(image):
    """(kind, image) pairs: certificates of ``image`` that each break one
    check of validation."""
    q = image.source
    yield "identity endo", st.Image(image.atoms, image.query, {v: v for v in q.all_vars}, q)
    for other in st.images(q):
        if other.atoms not in (image.atoms, frozenset(q.atoms)):
            yield "other image's endo", st.Image(image.atoms, image.query, other.endo, q)
            break
    # a map leaving the query: its range is the image's atoms, one of them
    # over a variable the query does not have
    t0 = image.endo[q.all_vars[0]]
    moved = {v: "stray" if t == t0 else t for v, t in image.endo.items()}
    atoms = frozenset(a.rename(moved) for a in q.atoms)
    yield "atom outside the query", st.Image(atoms, st._induced_subquery(atoms), moved, q)
    yield "query not induced", st.Image(
        image.atoms, make_query(image.query.atoms[:1], image.query.atoms[0].args), image.endo, q)


def test_tampered_untangling_certificates_are_rejected():
    kinds = collections.Counter()
    db = random_graph_db(8, 20, 0, red_p=0.5, loops=3)
    # with diamond_red's step also taken the other way round, which is
    # rejected before and after tampering
    flipped = _flipped(st.is_untangleable(fx.fixture("diamond_red"))[1])
    assert not st.validate_untangling_witness(flipped.chain[-1], flipped)
    for witness in _untangling_witnesses() + [flipped]:
        target = witness.chain[-1]
        for k, step in enumerate(witness.steps):
            for kind, image in _tampered_images(step):
                steps = list(witness.steps)
                steps[k] = image
                tampered = st.UntanglingWitness(witness.base, tuple(steps))
                assert not st.validate_untangling_witness(target, tampered), kind
                with pytest.raises(en.InvalidWitnessError):
                    en.enum_untangle(target, tampered, db)
                kinds[kind] += 1
    assert len(kinds) == 4, kinds
    # bowtie_chain's steps in reverse order: every certificate holds, but a
    # step's image is not the previous element and untangles to none of them
    _, found = st.is_untangleable(fx.fixture("bowtie_chain"))
    backwards = st.UntanglingWitness(found.base, found.steps[::-1])
    chain = backwards.chain
    assert any(img.query != prev and img.rewrite.result not in (prev, nxt)
               for prev, img, nxt in zip(chain, backwards.steps, chain[1:]))
    assert not st.validate_untangling_witness(chain[-1], backwards)
    with pytest.raises(en.InvalidWitnessError):
        en.enum_untangle(chain[-1], backwards, db)


def test_untangling_step_onto_atoms_outside_the_query_is_rejected():
    # every other check holds: the map sends the path onto a loop that is
    # not one of its atoms, the loop is the acyclic base and the rest is the
    # path itself, so a cursor would join the path once per loop fact
    q = parse_query("Q(x,y,z) :- R(x,y), R(y,z).")
    endo = dict.fromkeys(q.all_vars, "w")
    atoms = frozenset(a.rename(endo) for a in q.atoms)
    image = st.Image(atoms, st._induced_subquery(atoms), endo, q)
    witness = st.UntanglingWitness(image.query, (image,))
    assert not st.validate_untangling_witness(q, witness)
    with pytest.raises(en.InvalidWitnessError):
        en.enum_untangle(q, witness, random_graph_db(6, 12, 0))


def test_enum_untangle_cursor_searches_for_nothing(monkeypatch):
    # the cursor checks each step's carried endomorphism, and validation and
    # enumeration share one rewrite per step
    witnesses = [st.UntanglingWitness(w.base, tuple(
                     st.Image(img.atoms, img.query, img.endo, img.source) for img in w.steps))
                 for w in _untangling_witnesses()]
    calls = collections.Counter()

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(st, "find_maps", counting("find_maps", st.find_maps))
    monkeypatch.setattr(st, "untangle", counting("untangle", st.untangle))
    for witness in witnesses:
        calls.clear()
        en.enum_untangle(witness.chain[-1], witness, random_graph_db(8, 20, 1, red_p=0.5))
        assert calls["find_maps"] == 0
        assert calls["untangle"] <= len(witness.steps)


def _plain_restriction(image, assignment, db):
    """Reference restriction: one filtering scan of the relation per group.

    Reads only each group's source, positions, image variables, paper symbol
    and kept arguments; the relation names and the rest query are its own.
    """
    taken: dict = {}
    atoms, out = [], Database()
    for g in st.untangle(image.source, image.atoms).groups:
        n = taken.get(g.symbol, 0)
        taken[g.symbol] = n + 1
        sym = g.symbol if n == 0 else f"{g.symbol}_f{n}"
        values = [assignment[v] for v in g.image_vars]
        for row in db.facts(g.source):
            if [row[p] for p in g.positions] == values:
                out.add_fact(sym, [v for i, v in enumerate(row) if i not in g.positions])
        atoms += [Atom(RelationSymbol(sym, len(args)), args) for args in g.kept]
    vs = sorted({v for a in atoms for v in a.args})
    return make_query(tuple(atoms), tuple(vs)), out


def _ordered_facts(db):
    return [(name, list(db.facts(name))) for name in db.symbols]


@pytest.mark.parametrize("name", ["diamond_red", "ring8", "bowtie_chain", "windmill_tail"])
def test_indexed_restriction_matches_plain_scan(name):
    _, witness = st.is_untangleable(fx.fixture(name))
    for k, image in enumerate(witness.steps):
        untangled = st.untangle(image.source, image.atoms)
        if k == 0 and name in ("ring8", "windmill_tail"):
            # a paper symbol with two filters, so the renaming is exercised
            assert any(g.relation != g.symbol for g in untangled.groups)
        image_vars = sorted({v for a in image.atoms for v in a.args})
        symbols = {a.symbol for a in image.source.atoms}
        for seed in range(4):
            rng = random.Random(f"{name}:{k}:{seed}")
            db = Database()
            for sym in sorted(symbols):
                for _ in range(30):
                    db.add_fact(sym.name, [f"v{rng.randrange(5)}" for _ in range(sym.arity)])
            index = en._FactIndex(db.facts, en.Ticker())  # shared by every answer
            for _ in range(25):
                assignment = {v: f"v{rng.randrange(6)}" for v in image_vars}
                want_query, want = _plain_restriction(image, assignment, db)
                assert untangled.rest == want_query
                projected = {}
                for g in untangled.groups:
                    # a relation read whole keeps its name
                    assert g.positions or g.relation == g.source
                    rows = index.restricted(g, assignment)
                    key = tuple(assignment[v] for v in g.image_vars)
                    # whole source rows holding the answer's values at the
                    # dropped positions, in fact order
                    assert list(rows) == [row for row in db.facts(g.source)
                                          if tuple(row[p] for p in g.positions) == key]
                    if g.positions:
                        # the very bucket the semi-join passes read, not a copy
                        buckets = index.buckets(g.source, g.positions)
                        if rows:
                            assert rows is buckets[key]
                        else:
                            assert key not in buckets
                    projected[g.relation] = [
                        tuple(v for i, v in enumerate(row) if i not in g.positions)
                        for row in rows]
                assert sorted((rel, rows) for rel, rows in projected.items() if rows) \
                    == _ordered_facts(want)


def _rest_join_matches_restricted_database(untangled, db, image_answers) -> int:
    """Per image answer, the rest joined over the restricted relations gives
    the assignments of the rest over the restricted database, as a multiset,
    without duplicates, leaving the image answer as it was; after the first
    answer, which builds what the step reuses, it costs no more ticks.
    Returns the number of rest assignments."""
    rest_vars = untangled.rest.all_vars
    ticker, plain_ticker = en.Ticker(), en.Ticker()
    rest = en._RestJoin(untangled.rest, untangled.groups, en._FactIndex(db.facts, ticker))
    index: dict = {}  # the plain restriction's, shared by every answer
    total = 0
    for i, image_answer in enumerate(image_answers):
        assignment = dict(image_answer)
        start = ticker.count
        got = [tuple(a[v] for v in rest_vars) for a in rest.assignments(assignment)]
        cost = ticker.count - start
        assert assignment == image_answer
        start = plain_ticker.count
        restricted = ref.restrict(untangled.groups, assignment, db, index, plain_ticker)
        want = [tuple(a[v] for v in rest_vars)
                for a in en._acyclic_assignments(untangled.rest,
                                                 en._FactIndex(restricted.facts, plain_ticker))]
        assert sorted(got) == sorted(want)
        assert len(got) == len(set(got))
        if i:
            assert cost <= plain_ticker.count - start
        total += len(got)
    return total


# values per fixture, few enough that the rest has answers and cycle20's
# long rest path does not explode
REST_JOIN_VALUES = {"ring8": 8, "ring8_io": 8, "ring8_spikes": 8, "ring8_spikes_flip": 15,
                    "bowtie_chain": 6, "windmill_tail": 6, "cycle20": 45}


@pytest.mark.parametrize("name", sorted(REST_JOIN_VALUES))
def test_rest_join_matches_restricted_database(name):
    _, witness = st.is_untangleable(fx.fixture(name))
    total = 0
    for k, step in enumerate(witness.steps):
        assert step.query == witness.chain[k]
        untangled = st.untangle(step.source, step.atoms)
        image = step.query
        for seed in range(3):
            rng = random.Random(f"{name}:{k}:{seed}")
            db = Database()
            for sym in sorted({a.symbol for a in step.source.atoms}):
                for _ in range(30):
                    db.add_fact(sym.name, [f"v{rng.randrange(REST_JOIN_VALUES[name])}"
                                           for _ in range(sym.arity)])
            answers = itertools.islice(en.generic_join_cursor(image, db), 30)
            total += _rest_join_matches_restricted_database(
                untangled, db, [dict(zip(image.free_vars, a)) for a in answers])
    assert total


def test_rest_join_matches_restricted_database_on_random_steps():
    # any atoms of a random query as the image, so that the rest has
    # repeated variables, atoms that keep no position, restricted atoms with
    # fixed children and fixed atoms with several restricted descendants
    checked = 0
    for seed in range(300):
        query = random_query(seed)
        rng = random.Random(seed)
        image_atoms = frozenset(a for a in query.atoms if rng.random() < 0.5)
        untangled = st.untangle(query, image_atoms)
        if not image_atoms or st.gyo_acyclic(untangled.rest) is None:
            continue
        db = _random_schema_db(seed, 4)
        image_vars = sorted({v for a in image_atoms for v in a.args})
        answers = [{v: f"d{rng.randrange(4)}" for v in image_vars} for _ in range(8)]
        _rest_join_matches_restricted_database(untangled, db, answers)
        checked += 1
    assert checked > 100


@pytest.mark.parametrize("text", [
    # the rest holds the nullary group R__01(), which R(x0,x0) leaves
    "Q(x0,x1,x2) :- R(x0,x0), R(x0,x1), R(x0,x2), R(x1,x2), Pin(x0).",
    # x0 sits twice in one atom, so its group S__02 drops two positions
    "Q(x0,x1) :- S(x0,x1,x0), R(x1,x1), Pin(x0).",
], ids=["nullary_group", "pinned_twice"])
def test_rest_join_matches_restricted_database_on_pinned_queries(text):
    # Pin(x0) as the image, one image answer per pinned value: the rest's
    # assignments over all of them are the query's answers
    q = parse_query(text)
    untangled = st.untangle(q, frozenset(a for a in q.atoms if a.symbol.name == "Pin"))
    answered = 0
    for seed in range(200):
        rng = random.Random(f"{text}:{seed}")
        db = Database()
        for sym in sorted({a.symbol for a in q.atoms}):
            for _ in range(8):
                db.add_fact(sym.name, [f"v{rng.randrange(4)}" for _ in range(sym.arity)])
        pinned = [{"x0": v} for (v,) in db.facts("Pin")]
        want = len(en.oracle_enumerate(q, db))
        assert _rest_join_matches_restricted_database(untangled, db, pinned) == want, seed
        answered += want
    assert answered


def _padded_diamond_red(padding: int) -> Database:
    """Twenty disjoint marked diamonds plus R-facts outside every image answer."""
    db = Database()
    for i in range(20):
        x, y, z, u = (f"{c}{i}" for c in "xyzu")
        for edge in ((x, y), (y, z), (x, u), (u, z)):
            db.add_fact("R", edge)
        db.add_fact("P", (y,))
    for j in range(padding):
        db.add_fact("R", (f"p{j}", f"q{j}"))
    return db


def test_untangle_enumeration_ticks_linear_in_padding(diamond_red):
    # A filtering scan per image answer costs answers x |R|; with the
    # per-step index only the first answer scans R, later ones probe.
    _, witness = st.is_untangleable(diamond_red)
    enum_ticks = []
    for padding in (500, 1000, 2000):
        cursor = en.enum_untangle(diamond_red, witness, _padded_diamond_red(padding))
        assert len(list(cursor)) == 40  # u is y or the diamond's fourth node
        enum_ticks.append(cursor.ticker.count - cursor.preprocessing_ticks)
    # the rest of diamond_red filters R twice (two groups), so doubling the
    # padding adds about twice the padding again
    for (a, b), padding in zip(zip(enum_ticks, enum_ticks[1:]), (500, 1000)):
        assert b - a <= 3 * padding


def _padded_ring8(padding: int) -> Database:
    """Ten disjoint marked 8-cycles plus R-facts outside every image answer."""
    db = Database()
    for i in range(10):
        x = [f"x{k}_{i}" for k in range(1, 9)]
        for a, b in ((0, 1), (1, 2), (3, 2), (4, 3), (4, 5), (5, 6), (7, 6), (0, 7)):
            db.add_fact("R", (x[a], x[b]))
        db.add_fact("P", (x[1],))
    for j in range(padding):
        db.add_fact("R", (f"p{j}", f"q{j}"))
    return db


def test_ring8_enumeration_ticks_linear_in_padding():
    # The rest of ring8 reads R whole in two atoms.  Copying R and reducing
    # the copy per image answer costs answers x |R|; with the rest's fixed
    # part built once per step, only the first answer reads the padding.
    q = fx.fixture("ring8")
    _, witness = st.is_untangleable(q)
    enum_ticks = []
    want = en.oracle_enumerate(q, _padded_ring8(0))
    for padding in (500, 1000, 2000):
        cursor = en.enum_untangle(q, witness, _padded_ring8(padding))
        assert set(cursor) == want
        enum_ticks.append(cursor.ticker.count - cursor.preprocessing_ticks)
    for (a, b), padding in zip(zip(enum_ticks, enum_ticks[1:]), (500, 1000)):
        assert b - a <= 4 * padding


def _padded_bowtie_chain(padding: int) -> Database:
    """Ten disjoint copies of bowtie_chain's pattern plus R-facts outside
    every image answer."""
    q = fx.fixture("bowtie_chain")
    db = Database()
    for i in range(10):
        for a in q.atoms:
            db.add_fact(a.symbol.name, [f"{v}{i}" for v in a.args])
    for j in range(padding):
        db.add_fact("R", (f"p{j}", f"q{j}"))
    return db


def test_bowtie_chain_enumeration_ticks_linear_in_padding():
    # All three steps of bowtie_chain's witness restrict R at positions (0,)
    # and (1,).  One index per cursor buckets R once per position set;
    # bucketing it again in every step adds about twice the padding per step.
    q = fx.fixture("bowtie_chain")
    _, witness = st.is_untangleable(q)
    enum_ticks = []
    want = en.oracle_enumerate(q, _padded_bowtie_chain(0))
    for padding in (500, 1000, 2000):
        cursor = en.enum_untangle(q, witness, _padded_bowtie_chain(padding))
        assert set(cursor) == want
        enum_ticks.append(cursor.ticker.count - cursor.preprocessing_ticks)
    for (a, b), padding in zip(zip(enum_ticks, enum_ticks[1:]), (500, 1000)):
        assert b - a <= 4 * padding


def test_enum_mirror_examples(diamond):
    witness = st.is_mirror(diamond)
    db = parse_database("R(a,b). R(b,c). R(a,d). R(d,c).")
    assert set(en.enum_mirror(diamond, witness, db)) == {
        ("a", "b", "c", "b"), ("a", "b", "c", "d"),
        ("a", "d", "c", "b"), ("a", "d", "c", "d")}
    db = parse_database("R(a,b). R(b,c).")
    assert list(en.enum_mirror(diamond, witness, db)) == [("a", "b", "c", "b")]


def _tampered_mirror_certificates(q, image):
    """(kind, image) pairs: certificates of the mirror image ``image`` of
    ``q`` that each break one check of validation."""
    yield "identity endo", st.Image(image.atoms, image.query, {v: v for v in q.all_vars},
                                    image.source)
    yield "query not induced", st.Image(
        image.atoms, make_query(image.query.atoms, image.query.all_vars[:1]), image.endo,
        image.source)
    yield "another source", st.Image(
        image.atoms, image.query, image.endo, make_query(q.atoms, q.free_vars[:1]))


def _tampered_mirror_witnesses(q, witness):
    """(kind, witness) pairs: the mirror witness of ``q`` with a tampered
    image certificate, the whole query as image, or a tampered iso, each
    breaking one check of validation."""
    for kind, image in _tampered_mirror_certificates(q, witness.image):
        yield kind, witness._replace(image=image)
    # certified, and acyclic on acyclic_fork, where only its empty rest refuses it
    whole = next(img for img in st.images(q) if img.atoms == set(q.atoms))
    yield "whole query as image", witness._replace(image=whole)
    iso, image_vars = witness.iso, set(witness.image.query.all_vars)
    shared, private = sorted(set(iso) & image_vars), sorted(set(iso) - image_vars)
    yield "iso missing a rest variable", witness._replace(
        iso={v: w for v, w in iso.items() if v != shared[0]})
    yield "non-injective iso", witness._replace(iso={**iso, private[0]: iso[shared[0]]})
    # swapped with a second shared variable where there is one: on the
    # square, the swapped iso still maps the rest onto the image
    other = (shared[1:] + private)[0]
    yield "iso moving a shared variable", witness._replace(
        iso={**iso, shared[0]: iso[other], other: iso[shared[0]]})


@pytest.mark.parametrize("q", [fx.fixture("diamond"), parse_query("Q(x,y,z) :- R(x,y), R(x,z)."),
                               parse_query("Q(x,y,a,b) :- R(x,a), R(y,a), R(x,b), R(y,b).")],
                         ids=["diamond", "acyclic_fork", "square"])
def test_tampered_mirror_certificates_are_rejected(q):
    witness = st.is_mirror(q)
    assert st.validate_mirror_witness(q, witness)
    db = random_graph_db(8, 20, 0)
    kinds = 0
    for kind, tampered in _tampered_mirror_witnesses(q, witness):
        assert not st.validate_mirror_witness(q, tampered), kind
        with pytest.raises(en.InvalidWitnessError):
            en.enum_mirror(q, tampered, db)
        kinds += 1
    assert kinds == 7
    # the empty full query: its one image is the whole query, certified and
    # acyclic, with an empty rest that only the empty-rest guard refuses
    empty = make_query((), ())
    forged = st.MirrorWitness(st.images(empty)[0], {})
    assert not st.validate_mirror_witness(empty, forged)
    with pytest.raises(en.InvalidWitnessError):
        en.enum_mirror(empty, forged, db)
    assert st.Analysis(empty).mirror is None


def test_non_injective_iso_onto_a_certified_image_is_rejected():
    # no mirror: the rest has three variables, the 2-cycle image two, and
    # this iso maps the rest onto the image's atoms, so only the
    # injectivity check refuses it
    q = parse_query("Q(x,y,a,b,c) :- R(x,y), R(y,x), R(a,b), R(b,c).")
    cycle = frozenset(parse_query("Q(x,y) :- R(x,y), R(y,x).").atoms)
    image = next(img for img in st.images(q) if img.atoms == cycle)
    forged = st.MirrorWitness(image, {"a": "x", "b": "y", "c": "x"})
    assert st.is_mirror(q) is None
    assert not st.validate_mirror_witness(q, forged)
    with pytest.raises(en.InvalidWitnessError):
        en.enum_mirror(q, forged, random_graph_db(8, 20, 0))


def test_enum_mirror_matches_oracle(diamond):
    witness = st.is_mirror(diamond)
    for seed in range(25):
        db = random_graph_db(14, 30, seed)
        got = list(en.enum_mirror(diamond, witness, db))
        assert len(got) == len(set(got))
        assert set(got) == en.oracle_enumerate(diamond, db)


# -- bespoke strategies ------------------------------------------------------------------


def test_two_triangles_self_loop_only():
    db = parse_database("R(a,a).")
    assert list(en.enum_bespoke("TWO_TRIANGLES", db)) == [("a", "a", "a", "a")]


def test_two_loops_self_loop_only():
    db = parse_database("R(a,a).")
    assert list(en.enum_bespoke("TWO_LOOPS", db)) == [("a", "a", "a", "a", "a")]


@pytest.mark.parametrize("strategy,kwargs", BESPOKE_DB_KWARGS)
def test_bespoke_matches_oracle(strategy, kwargs):
    q = fx.fixture(en.BESPOKE_STRATEGIES[strategy].fixture)
    for seed, db in enumerate(bespoke_dbs(kwargs)):
        cursor = en.enum_bespoke(strategy, db)
        assert cursor.preprocessing_ticks == cursor.ticker.count > 0  # before any next()
        got = list(cursor)
        assert len(got) == len(set(got))
        assert set(got) == en.oracle_enumerate(q, db), (strategy, seed)


def test_bespoke_preprocessing_accounting():
    # the twins scan R once for its self-loops; SPIKE_Q3 scans R for its
    # adjacency lists, once more for its core edges, and walks each list
    # once, testing marks against P's facts without scanning P
    def twin_dbs():
        yield from (random_graph_db(12, 20, seed, loops=4) for seed in range(20))
        yield from (_bench_graph_db(s, 11, loops=max(2, s // 100)) for s in BENCH_SIZES)

    def spike_dbs():
        yield from (random_graph_db(12, 20, seed, red_p=0.2) for seed in range(20))
        yield from (_bench_graph_db(s, 11, red_p=0.02, nodes=s) for s in BENCH_SIZES)

    for strategy in ("TWO_LOOPS", "TWO_TRIANGLES"):
        for db in twin_dbs():
            cursor = en.enum_bespoke(strategy, db)
            assert cursor.preprocessing_ticks == len(db.facts("R")), strategy
    marked = 0
    for db in spike_dbs():
        edges = db.facts("R")
        marked += len(db.facts("P"))
        expected = (2 * len(edges) + len({v for _, v in edges})
                    + len({u for u, _ in edges}))
        assert en.enum_bespoke("SPIKE_Q3", db).preprocessing_ticks == expected
    assert marked


def test_spike_q2_preprocesses_only_its_two_streams():
    # the spikes are read from R's buckets by source and by target, which
    # the two streams' semi-join passes build in the cursor's index
    q = fx.fixture("ring8_io")
    for seed in range(10):
        db = random_graph_db(12, 20, seed, red_p=0.3)
        streams = en.Ticker()
        lookup = en._FactIndex(db.facts, streams)
        for text in (en._Q2_TOP, en._Q2_LEFT):
            en._acyclic_assignments(parse_query(text), lookup)
        cursor = en.enum_bespoke("SPIKE_Q2", db)
        assert cursor.preprocessing_ticks == streams.count > 0
        assert set(cursor) == en.oracle_enumerate(q, db), seed


def test_spike_q2_fetches_its_parents_from_the_shared_buckets():
    # on a sparse R with few P values, each stream's semi-join pass fetches
    # the rows of R that its P atom and the rows fetched before it reach
    # from R's buckets by source or target, which the passes build anyway,
    # instead of scanning R for each of its six atoms
    q = fx.fixture("ring8_io")
    for seed in range(3):
        rng = random.Random(seed)
        db = Database()
        for _ in range(2):  # in- and out-degree 2
            perm = list(range(500))
            rng.shuffle(perm)
            for u, v in enumerate(perm):
                db.add_fact("R", (f"v{u}", f"v{v}"))
        for u in rng.sample(range(500), 10):
            db.add_fact("P", (f"v{u}",))
        edges = len(db.facts("R"))
        assert edges >= 990
        cursor = en.enum_bespoke("SPIKE_Q2", db)
        assert cursor.preprocessing_ticks < 3 * edges, seed
        if seed == 0:
            assert set(cursor) == en.oracle_enumerate(q, db)


def test_bespoke_raw_duplication_bound():
    # SPIKE_Q3's raw stream repeats nothing; SPIKE_Q2's repeats only the
    # answers where its top and left passes meet, (b,m,c,m,b,m,c,m,m,m), twice
    assert en.BESPOKE_STRATEGIES["SPIKE_Q3"].group == 3
    assert en.BESPOKE_STRATEGIES["SPIKE_Q2"].duplication == 2
    shared = 0
    for strategy in ("SPIKE_Q2", "SPIKE_Q3"):
        bound = en.BESPOKE_STRATEGIES[strategy].duplication
        group = en.BESPOKE_STRATEGIES[strategy].group
        for seed in range(6):
            db = random_graph_db(10, 16, seed, red_p=0.3)
            raw = list(en.enum_bespoke(strategy, db, dedup=False))
            counts = collections.Counter(raw)
            assert max(counts.values(), default=0) <= bound
            repeated = [item for item, n in counts.items() if n > 1]
            if strategy == "SPIKE_Q3":
                assert not repeated, seed
            for b, m, c, *rest in repeated:
                assert rest == [m, b, m, c, m, m, m], (seed, rest)
            shared += len(repeated)
            # the declared grouping: each prefix is one contiguous block
            blocks = [key for key, _ in itertools.groupby(item[:group] for item in raw)]
            assert len(blocks) == len(set(blocks)), (strategy, seed)
    assert shared


def _twin_hub_db(k: int) -> Database:
    """A looped hub h and k looped vertices a_i around it, each on the
    triangles a_i->b_i->h->a_i and a_i->h->x_i->a_i: the twins' answers
    pair every two of them, k^2 and more from a few facts each."""
    db = Database()
    db.add_fact("R", ("h", "h"))
    for i in range(k):
        a, b, x = f"a{i}", f"b{i}", f"x{i}"
        for u, v in ((a, a), (a, b), (b, "h"), ("h", a), (a, "h"), ("h", x), (x, a)):
            db.add_fact("R", (u, v))
    return db


def _twin_core_db(n: int, db=None) -> Database:
    """Every edge among n vertices, self-loops included, added to ``db``."""
    db = Database() if db is None else db
    for i in range(n):
        for j in range(n):
            db.add_fact("R", (f"c{i}", f"c{j}"))
    return db


@pytest.mark.parametrize("strategy", ["TWO_LOOPS", "TWO_TRIANGLES"])
def test_twin_raw_streams_repeat_nothing(strategy):
    # a duplication bound of 1 runs raw, with no cheater_dedup to catch a
    # repeat online, so the twins' streams are checked for repeats here:
    # on acceptance criterion 4's loops databases, on a hub that most
    # self-loops sit around, and on a dense core, alone and inside
    # criterion 4's 1k database; against the oracle where it is small
    spec = en.BESPOKE_STRATEGIES[strategy]
    assert spec.duplication == 1
    q = fx.fixture(spec.fixture)
    small = [_twin_hub_db(8), _twin_core_db(6)]
    large = [*(_bench_graph_db(s, 11, loops=max(2, s // 100)) for s in BENCH_SIZES),
             _twin_hub_db(64), _twin_core_db(10),
             _twin_core_db(8, _bench_graph_db(1000, 11, loops=10))]
    for i, db in enumerate(small + large):
        cursor = en.enum_bespoke(strategy, db)
        raw = list(cursor)
        assert raw and len(raw) == len(set(raw)), (i, db)
        # the cursor is the strategy's own: no wrapper pulls or ticks
        unwrapped = en.enum_bespoke(strategy, db, dedup=False)
        assert list(unwrapped) == raw and unwrapped.ticker.count == cursor.ticker.count
        if i < len(small):
            assert set(raw) == en.oracle_enumerate(q, db), i


def test_spike_q2_pull_rate_pays_for_both_passes():
    # on k disjoint marked paths b->m->c every answer is one where the top
    # and left passes meet: each pass gives all k of them, so skipping
    # either copy would leave a whole pass, about 13k ticks, emitting
    # nothing; pulled at 2 per emission, the wrapped gap stays flat in k
    q = fx.fixture("ring8_io")
    gaps = set()
    for k in (25, 50, 100, 200):
        db = Database()
        for i in range(k):
            db.add_fact("R", (f"b{i}", f"m{i}"))
            db.add_fact("R", (f"m{i}", f"c{i}"))
            db.add_fact("P", (f"m{i}",))
        raw = list(en.enum_bespoke("SPIKE_Q2", db, dedup=False))
        answers = en.oracle_enumerate(q, db)
        assert len(answers) == k
        assert len(raw) == 2 * k and set(raw[:k]) == set(raw[k:]) == answers, k
        gaps.add(en.measure_delay(lambda: en.enum_bespoke("SPIKE_Q2", db))["max_gap"])
    assert len(gaps) == 1, gaps


def test_spike_q3_raw_stream_is_duplicate_free_on_criterion_4_data():
    # acceptance criterion 4's 1k-fact SPIKE_Q3 database; the left and top
    # passes' answers came a second time from the edge tests, 5,391 raw
    # emissions for 3,325 answers
    db = _bench_graph_db(1000, 11, red_p=0.02, nodes=1000)
    raw = list(en.enum_bespoke("SPIKE_Q3", db, dedup=False))
    assert len(raw) == len(set(raw)) == 3325


def _spiked_ring_skip_db(size: int, seed: int) -> Database:
    """About ``size`` random R facts over as many nodes, P on one in 50.
    Each marked m has one successor c, whose only predecessor it is, and
    every other marked m has one predecessor b, which may have random
    successors besides m; so whole edge tests of SPIKE_Q3, and whole
    table entries of SPIKE_Q2, give only answers the induced passes gave."""
    rng = random.Random(seed)
    db = Database()
    k = size // 50
    for i in range(k):
        db.add_fact("P", (f"m{i}",))
        db.add_fact("R", (f"m{i}", f"c{i}"))
        if i % 2:
            db.add_fact("R", (f"b{i}", f"m{i}"))
    free = [f"v{i}" for i in range(size - 3 * k)]
    sources = free + [f"c{i}" for i in range(k)] + [f"b{i}" for i in range(1, k, 2)]
    targets = free + [f"m{i}" for i in range(0, k, 2)] + [f"b{i}" for i in range(1, k, 2)]
    while db.size < size + k:
        db.add_fact("R", (rng.choice(sources), rng.choice(targets)))
    return db


def test_spike_skips_keep_constant_gaps():
    # acceptance criterion 4's 2x bound on the largest gap across 1k-8k
    # facts, on data where the skipped answers come in whole edge tests
    for strategy in ("SPIKE_Q2", "SPIKE_Q3"):
        gaps = []
        for size in (1000, 2000, 4000, 8000):
            db = _spiked_ring_skip_db(size, 11)
            succ, pred = collections.defaultdict(list), collections.defaultdict(list)
            for u, v in db.facts("R"):
                succ[u].append(v)
                pred[v].append(u)
            for i in range(size // 50):
                assert succ[f"m{i}"] == [f"c{i}"] and pred[f"c{i}"] == [f"m{i}"]
                if i % 2:
                    assert pred[f"m{i}"] == [f"b{i}"]
            raw = list(en.enum_bespoke(strategy, db, dedup=False))
            assert len(set(raw)) >= size // 10
            if strategy == "SPIKE_Q3":
                assert len(raw) == len(set(raw))
            stats = en.measure_delay(lambda db=db: en.enum_bespoke(strategy, db))
            assert stats["answers"] == len(set(raw))
            gaps.append(max(1, stats["max_gap"]))
        assert max(gaps) / min(gaps) <= 2.0, (strategy, gaps)


def _spike_hub_db(k: int) -> Database:
    """Three marked rings whose skipped answers fill whole loops of width k
    if their skips are not made before those loops."""
    db = Database()
    for u, v in ([("bA", "mA")] + [("mA", f"cA{j}") for j in range(k)]
                 + [("bB", "mB"), ("mB", "cB"), ("wB", "mB")] + [("wB", f"zB{j}") for j in range(k)]
                 + [("bC", "mC"), ("mC", "cC"), ("qC", "mC")] + [(f"pC{j}", "cC") for j in range(k)]):
        db.add_fact("R", (u, v))
    for m in ("mA", "mB", "mC"):
        db.add_fact("P", (m,))
    return db


def _longest_tickless_run(cursor: en.EnumerationCursor, functions: set) -> tuple:
    """(the most lines of ``functions`` in engines.py run between two ticks,
    the answers) of a run of ``cursor``, traced with ``sys.settrace``."""
    ticker = cursor.ticker
    run = [ticker.count, 0, 0]  # ticks at the last line, lines since, longest run

    def line(frame, event, arg):
        if event == "line":
            if ticker.count != run[0]:
                run[0], run[1] = ticker.count, 0
            else:
                run[1] += 1
                run[2] = max(run[2], run[1])
        return line

    def call(frame, event, arg):
        code = frame.f_code
        return line if code.co_filename == en.__file__ and code.co_name in functions else None

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        answers = list(cursor)
    finally:
        sys.settrace(previous)
    return run[2], answers


def test_spike_skips_leave_no_loop_idle():
    # ticks cover the work: the most lines of a strategy's generator run
    # between two ticks does not grow with the hubs' degree k.  In ring A,
    # bA's one successor mA has k successors, each with one predecessor; in
    # ring B, cB's one predecessor mB has another, wB, with k successors; in
    # ring C, mC's one successor cC has k predecessors
    for strategy in ("SPIKE_Q2", "SPIKE_Q3"):
        q = fx.fixture(en.BESPOKE_STRATEGIES[strategy].fixture)
        runs = []
        for k in (4, 8, 16):
            db = _spike_hub_db(k)
            run, raw = _longest_tickless_run(en.enum_bespoke(strategy, db, dedup=False),
                                             {"gen", "run_tests", "assembled"})
            runs.append(run)
            if k == 4:
                assert set(raw) == en.oracle_enumerate(q, db)
        assert len(set(runs)) == 1, (strategy, runs)


def test_bespoke_rejects_wrong_schema():
    with pytest.raises(ArityMismatchError,
                       match="^relation R has arity 3 in the database but 2 in the query$"):
        en.enum_bespoke("TWO_LOOPS", parse_database("R(a,b,c)."))
    with pytest.raises(ArityMismatchError,
                       match="^relation P has arity 2 in the database but 1 in the query$"):
        en.enum_bespoke("SPIKE_Q2", parse_database("R(a,b). P(a,b)."))
    # relations a strategy does not read are ignored, as the oracle ignores them
    for strategy, extra in (("TWO_LOOPS", "T(a,b). S(x,y,z)."),
                            ("TWO_TRIANGLES", "P(a). P(b)."),
                            ("TWO_LOOPS", "P(a,b,c).")):
        db = parse_database("R(a,a). R(a,b). R(b,a). R(b,b). " + extra)
        got = list(en.enum_bespoke(strategy, db))
        q = fx.fixture(en.BESPOKE_STRATEGIES[strategy].fixture)
        assert got and set(got) == en.oracle_enumerate(q, db)


def test_bespoke_unknown_strategy():
    with pytest.raises(ValueError):
        en.enum_bespoke("NOPE", Database())


# -- cheater's wrapper ----------------------------------------------------------------


def _stream_cursor(items, gap_ticks=1):
    ticker = en.Ticker()

    def gen():
        for item in items:
            ticker.tick(gap_ticks)
            yield item

    return en.EnumerationCursor(ticker, gen())


def test_cheater_dedup_basic():
    out = list(en.cheater_dedup(_stream_cursor(list("aabbcc")), 2))
    assert out == ["a", "b", "c"]


def test_cheater_dedup_violation():
    cursor = en.cheater_dedup(_stream_cursor(list("aba")), 1)
    assert cursor.next() == "a"
    assert cursor.next() == "b"
    with pytest.raises(en.DuplicateBoundError):
        cursor.next()


def test_cheater_dedup_gap_bound():
    for c, group in itertools.product((1, 2, 3, 4), (0, 1)):
        # 5 groups of 10 answers, each answer's repeats spread over its group
        items = sorted(((x // 10, x) for _ in range(c) for x in range(50)),
                       key=lambda item: item[0])
        stats = en.measure_delay(lambda: en.cheater_dedup(_stream_cursor(items, 7), c, group))
        inner_stats = en.measure_delay(lambda: _stream_cursor(items, 7))
        assert stats["answers"] == 50
        assert stats["max_gap"] <= c * inner_stats["max_gap"] + 4 * c + 4


def test_cheater_dedup_grouped_keeps_answer_order():
    items = [("a", 1), ("a", 2), ("a", 1), ("b", 1), ("b", 1), ("c", 3), ("c", 2), ("c", 3)]
    for group in (0, 1):
        assert list(en.cheater_dedup(_stream_cursor(items), 2, group)) == [
            ("a", 1), ("a", 2), ("b", 1), ("c", 3), ("c", 2)]


def test_cheater_dedup_grouped_rejects_resumed_prefix():
    # ("a", 1) twice is within the bound, but only because group "a" came back
    items = [("a", 1), ("b", 1), ("a", 1)]
    assert list(en.cheater_dedup(_stream_cursor(items), 2)) == [("a", 1), ("b", 1)]
    with pytest.raises(en.DuplicateBoundError):
        list(en.cheater_dedup(_stream_cursor(items), 2, 1))
    with pytest.raises(en.DuplicateBoundError):
        list(en.cheater_dedup(_stream_cursor([("a", 1), ("a", 1), ("a", 1)]), 2, 1))


def test_cheater_dedup_grouped_memory_follows_one_group():
    # 100k distinct answers in groups of 10; the values are allocated up
    # front, as a database's constants are
    values = [f"v{i}" for i in range(100_000)]

    def stream():
        return _stream_cursor((values[i // 10], values[i]) for i in range(100_000))

    peaks = {}
    for group in (0, 1):
        tracemalloc.start()
        try:
            answers = sum(1 for _ in en.cheater_dedup(stream(), 2, group))
            peaks[group] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert answers == 100_000
    assert peaks[1] < 1_000_000 < peaks[0]


def test_cheater_dedup_set_equality_on_mirror_stream(diamond):
    witness = st.is_mirror(diamond)
    db = random_graph_db(12, 25, 5)
    plain = set(en.enum_mirror(diamond, witness, db))
    wrapped = list(en.cheater_dedup(en.enum_mirror(diamond, witness, db), 2))
    assert set(wrapped) == plain and len(wrapped) == len(plain)


# -- shared indexes ----------------------------------------------------------------------


RELATION_VIEW = type(Database().facts("R"))  # the rows of a database relation, read whole


def _whole_bucketings(monkeypatch) -> list:
    """Record every bucketing of a database relation read whole, as (rows,
    key positions); a relation is told by its rows, so the test databases
    must hold no two equal relations."""
    builds = []
    bucketed = en._bucketed

    def counting(rows, at, ticker):
        if isinstance(rows, RELATION_VIEW):
            builds.append((tuple(rows), tuple(at)))
        return bucketed(rows, at, ticker)

    monkeypatch.setattr(en, "_bucketed", counting)
    return builds


def _shared_index_cases():
    """label -> (query, cursor factory (db -> cursor), databases); every
    database holds R and P, and S where the query reads it."""
    dbs = [random_graph_db(10, 24, seed, red_p=0.4, loops=2) for seed in range(6)]
    hub_dbs = [random_graph_db(7, 14, seed, red_p=0.4, hubs=3) for seed in range(6)]
    diamond, path = fx.fixture("diamond"), fx.fixture("path2_full")
    mirror = st.is_mirror(diamond)
    cases = {
        "acyclic_path2_full": (path, lambda db: en.enum_full_acyclic(path, db), dbs),
        "mirror_diamond": (diamond, lambda db: en.enum_mirror(diamond, mirror, db), dbs),
        "SPIKE_Q2": (fx.fixture("ring8_io"), lambda db: en.enum_bespoke("SPIKE_Q2", db), dbs),
    }
    for name in ("diamond_red", "ring8", "bowtie_chain"):
        q = fx.fixture(name)
        witness = st.is_untangleable(q)[1]
        cases[f"untangle_{name}"] = (
            q, lambda db, q=q, witness=witness: en.enum_untangle(q, witness, db),
            hub_dbs if name == "bowtie_chain" else dbs)
    return cases


SHARED_INDEX_CASES = _shared_index_cases()


@pytest.mark.parametrize("label", sorted(SHARED_INDEX_CASES))
def test_whole_relation_buckets_are_built_once_per_cursor(label, monkeypatch):
    # the atoms of a self-join that read a relation whole share its buckets
    # by each set of key positions, and the answers stay the oracle's
    query, make, dbs = SHARED_INDEX_CASES[label]
    builds = _whole_bucketings(monkeypatch)
    answered = 0
    for db in dbs:
        assert len({tuple(db.facts(n)) for n in db.symbols}) == len(db.symbols)
        builds.clear()
        got = list(make(db))
        assert len(builds) == len(set(builds)), (label, builds)
        assert len(got) == len(set(got))
        assert set(got) == en.oracle_enumerate(query, db), label
        answered += bool(got)
    assert answered


def test_whole_relation_buckets_are_built_once_on_random_queries(monkeypatch):
    builds = _whole_bucketings(monkeypatch)
    checked = 0
    for seed in range(300):
        query = random_query(seed)
        if not query.is_full or st.gyo_acyclic(query) is None:
            continue
        db = _random_schema_db(seed, 6)
        if len({tuple(db.facts(n)) for n in db.symbols}) < len(db.symbols):
            continue
        builds.clear()
        got = list(en.enum_full_acyclic(query, db))
        assert len(builds) == len(set(builds)), (seed, builds)
        assert set(got) == en.oracle_enumerate(query, db), seed
        builds.clear()
        first = en.first_solution(query, db)
        assert (first is None) == (not got) and (first is None or first in got)
        assert len(builds) == len(set(builds)), (seed, builds)
        checked += 1
    assert checked > 50


def _index_bucketings(monkeypatch) -> list:
    """Record every bucketing that an index (``_FactIndex.buckets``) makes
    of a relation it reads, as (rows, key positions, rows object): a
    database relation, a fresh view at every read, by its facts, and any
    other rows by ``id``, with the rows kept alive so that no id is reused.
    Bucketings of rows that a pass has reduced or filtered are not recorded."""
    builds = []
    bucketed = en._bucketed

    def counting(rows, at, ticker):
        if sys._getframe(1).f_code is en._FactIndex.buckets.__code__:
            told = tuple(rows) if isinstance(rows, RELATION_VIEW) else id(rows)
            builds.append((told, tuple(at), rows))
        return bucketed(rows, at, ticker)

    monkeypatch.setattr(en, "_bucketed", counting)
    return builds


def _restricted_leaf_bucketings(monkeypatch) -> list:
    """Record every bucketing of a restricted leaf's rows that a rest join
    makes under an image answer, as (rest join, atom, the key of the atom's
    group in that answer), with the rest join kept alive.  A restricted leaf
    is a restricted atom of the rest's join forest with no child."""
    builds = []
    atom_buckets = en._atom_buckets
    assignments = en._RestJoin.assignments.__code__

    def counting(forest, a, shared, rows, whole, lookup):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not assignments:
            frame = frame.f_back
        if frame is not None:
            rest, assignment = frame.f_locals["self"], frame.f_locals["assignment"]
            if a in rest.restricted and all(p != a for _, p, _ in rest.forest.edges):
                key = tuple(assignment[v] for v in rest.group[a].image_vars)
                builds.append((rest, a, key))
        return atom_buckets(forest, a, shared, rows, whole, lookup)

    monkeypatch.setattr(en, "_atom_buckets", counting)
    return builds


def _untangle_cursor_cases():
    """(label, query, witness, database): FOUND_RESULT_IS_PREVIOUS's chain
    on the database that once showed each image answer re-bucketing whole
    relations, and the witnesses of five fixtures on three databases each."""
    q = parse_query(FOUND_RESULT_IS_PREVIOUS)
    yield ("FOUND_RESULT_IS_PREVIOUS", q, st.is_untangleable(q)[1],
           random_graph_db(10, 40, 0, red_p=0.5, loops=6))
    for name in ("diamond_red", "ring8", "bowtie_chain", "windmill_tail", "ring8_spikes_flip"):
        q = fx.fixture(name)
        witness = st.is_untangleable(q)[1]
        hubs = 3 if any(a.symbol.name == "S" for a in q.atoms) else 0  # S facts that match
        for seed in range(3):
            yield name, q, witness, random_graph_db(8, 14, seed, red_p=0.5, hubs=hubs)


def test_untangle_cursor_buckets_each_relation_once(monkeypatch):
    # an untangling cursor's index buckets a relation by a set of key
    # positions at most once over a full run: the rest reads the buckets
    # the image's passes built, and a rest join keeps the buckets of each
    # restricted leaf per key of its group, so no image answer buckets them
    # again
    builds = _index_bucketings(monkeypatch)
    leaves = _restricted_leaf_bucketings(monkeypatch)
    answered, leaf_cases = set(), set()
    for label, q, witness, db in _untangle_cursor_cases():
        assert len({tuple(db.facts(n)) for n in db.symbols}) == len(db.symbols)
        builds.clear()
        leaves.clear()
        got = list(en.enum_untangle(q, witness, db))
        told = [(rows, at) for rows, at, _ in builds]
        assert len(told) == len(set(told)), label
        assert len(leaves) == len(set(leaves)), label
        assert len(got) == len(set(got))
        if got:
            answered.add(label)
        if leaves:
            leaf_cases.add(label)
    assert len(answered) == 6, answered
    assert leaf_cases, "no rest join bucketed a restricted leaf"


def _trie_signatures(query) -> set:
    """Per atom, the relation, repeated-variable checks and column order its
    trie follows in the generic join's variable order."""
    order = st.join_variable_order(query.atoms, query.free_vars)
    signatures = set()
    for a in query.atoms:
        if not a.args:
            continue
        first = {}
        for i, v in enumerate(a.args):
            first.setdefault(v, i)
        checks = tuple((first[v], j) for j, v in enumerate(a.args) if first[v] != j)
        columns = tuple(first[v] for v in sorted(first, key=order.index))
        signatures.add((a.symbol.name, checks, columns))
    return signatures


def _counting_trie_roots(monkeypatch) -> list:
    """Record the rows of every trie root the generic join builds: a root
    holds a database relation, every other node a list."""
    roots = []
    init = en._TrieNode.__init__

    def counting(self, rows):
        if isinstance(rows, RELATION_VIEW):
            roots.append(rows)
        init(self, rows)

    monkeypatch.setattr(en._TrieNode, "__init__", counting)
    return roots


@pytest.mark.parametrize("name", ["triangle", "windmill"])
def test_generic_join_builds_one_trie_root_per_signature(name, monkeypatch):
    query = fx.fixture(name)
    assert len(_trie_signatures(query)) < len(query.atoms)  # some atoms share a trie
    roots = _counting_trie_roots(monkeypatch)
    answered = 0
    for seed in range(6):
        db = random_graph_db(8, 24, seed, loops=3, hubs=3)
        roots.clear()
        got = list(en.generic_join_cursor(query, db))
        assert len(roots) == len(_trie_signatures(query))
        assert len(got) == len(set(got))
        assert set(got) == en.oracle_enumerate(query, db), (name, seed)
        answered += bool(got)
    assert answered


def test_generic_join_builds_one_trie_root_per_signature_on_random_queries(monkeypatch):
    roots = _counting_trie_roots(monkeypatch)
    shared = 0
    for seed in range(300):
        query = random_query(seed)
        db = _random_schema_db(seed, 6)
        roots.clear()
        got = list(en.generic_join_cursor(query, db))
        if roots:  # no root is built when a nullary atom has no fact
            assert len(roots) == len(_trie_signatures(query)), seed
        assert set(got) == en.oracle_enumerate(query, db), seed
        shared += len(_trie_signatures(query)) < sum(1 for a in query.atoms if a.args)
    assert shared > 20


def test_cursor_ticks_do_not_depend_on_earlier_cursors():
    # a cursor's indexes live and die with it: on a database other cursors
    # have read, it makes the same ticks and answers as on a fresh one
    def run(make, db):
        cursor = make(db)
        answers = list(cursor)
        return answers, cursor.preprocessing_ticks, cursor.ticker.count

    makers = [make for _, make, _ in SHARED_INDEX_CASES.values()]
    makers += [lambda db, q=fx.fixture(name): en.generic_join_cursor(q, db)
               for name in ("triangle", "windmill")]
    for seed in range(3):
        fresh = [run(make, random_graph_db(7, 14, seed, red_p=0.4, hubs=3)) for make in makers]
        db = random_graph_db(7, 14, seed, red_p=0.4, hubs=3)
        assert [run(make, db) for make in makers] == fresh
        assert [run(make, db) for make in reversed(makers)] == fresh[::-1]
    assert any(answers for answers, _, _ in fresh)


# -- memory ------------------------------------------------------------------------------


def _cursor_makers():
    """label -> cursor factory for every engine, over one small database and
    with each witness built beforehand."""
    db = random_graph_db(8, 12, 3, red_p=0.5, loops=3)
    diamond, path = fx.fixture("diamond"), fx.fixture("path2_full")
    mirror = st.is_mirror(diamond)
    full = parse_query("Q(x,y,z) :- R(x,y), R(y,z), R(x,z).")
    projected = parse_query("Q(x) :- R(x,y), R(y,z), R(z,x).")
    makers = {
        "acyclic": lambda: en.enum_full_acyclic(path, db),
        "mirror": lambda: en.enum_mirror(diamond, mirror, db),
        "join_full": lambda: en.generic_join_cursor(full, db),
        "join_projected": lambda: en.generic_join_cursor(projected, db),
        "oracle": lambda: en.oracle_cursor(diamond, db),
    }
    for name in ("diamond_red", "ring8"):
        q = fx.fixture(name)
        witness = st.is_untangleable(q)[1]
        makers[f"untangle_{name}"] = lambda q=q, witness=witness: en.enum_untangle(q, witness, db)
    # a three-step witness whose steps share one index, and the witness
    # of the query whose search once took a step to an untangling's result
    bowtie = fx.fixture("bowtie_chain")
    chain = st.is_untangleable(bowtie)[1]
    hub_db = random_graph_db(7, 14, 0, hubs=3)
    makers["untangle_bowtie_chain"] = lambda: en.enum_untangle(bowtie, chain, hub_db)
    previous = parse_query(FOUND_RESULT_IS_PREVIOUS)
    found = st.is_untangleable(previous)[1]
    makers["untangle_result_is_previous"] = lambda: en.enum_untangle(previous, found, db)
    # windmill's atoms share trie roots
    windmill = fx.fixture("windmill")
    makers["join_windmill"] = lambda: en.generic_join_cursor(windmill, hub_db)
    for strategy in en.BESPOKE_STRATEGIES:
        makers[strategy] = lambda strategy=strategy: en.enum_bespoke(strategy, db)
    return makers


CURSOR_MAKERS = _cursor_makers()


@pytest.mark.parametrize("label", sorted(CURSOR_MAKERS))
def test_exhausted_cursor_leaves_no_reference_cycle(label):
    # a cursor's state must be freed by reference counting alone, the moment
    # the cursor is dropped, not whenever the cyclic collector next runs
    make = CURSOR_MAKERS[label]
    gc.collect()
    gc.disable()
    try:
        cursor = make()
        answers = sum(1 for _ in cursor)
        del cursor
        left = gc.collect()
    finally:
        gc.enable()
    assert answers > 0
    assert left == 0, f"{label}: {left} objects left in reference cycles"


# -- delay measurement -------------------------------------------------------------------


def test_measure_delay_counts_answers():
    q = fx.fixture("path2_full")
    db = random_graph_db(6, 10, 1)
    stats = en.measure_delay(lambda: en.enum_full_acyclic(q, db))
    assert set(stats) == {"preprocessing_ticks", "max_gap", "answers", "wall_ms"}
    assert stats["answers"] == len(en.oracle_enumerate(q, db))
    assert stats["max_gap"] >= 1
    assert stats["preprocessing_ticks"] > 0
    assert stats["wall_ms"] == round(stats["wall_ms"], 3)


def test_streams_are_deterministic():
    q = fx.fixture("diamond")
    witness = st.is_mirror(q)
    db = random_graph_db(12, 25, 9)
    first = list(en.enum_mirror(q, witness, db))
    second = list(en.enum_mirror(q, witness, db))
    assert first == second


# -- library preconditions ---------------------------------------------------------------


@pytest.mark.parametrize("call,message", [
    (lambda: st.images(fx.fixture("path2_proj")), "images are defined for full queries"),
    (lambda: st.is_mirror(fx.fixture("path2_proj")), "mirror detection is defined"),
    (lambda: st.is_untangleable(fx.fixture("path2_proj")), "untangling is defined"),
    (lambda: st.hardness_transfer(fx.fixture("path2_proj")), "hardness transfer is defined"),
    (lambda: en.enum_full_acyclic(fx.fixture("path2_proj"), Database()), "expects a full query"),
    (lambda: en.cheater_dedup(en.enum_full_acyclic(fx.fixture("path2_full"), Database()), 0),
     "duplication bound must be positive"),
], ids=["images", "is_mirror", "is_untangleable", "hardness_transfer", "enum_full_acyclic",
        "cheater_dedup"])
def test_library_preconditions_raise_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()
