"""Reductions: relabelling, pair encoding, gadget builders, decoders, gens."""

import pytest

import reference as ref
from conftest import pattern_triangles, random_graph_db
from cqsj import engines as en
from cqsj import fixtures as fx
from cqsj import reductions as rd
from cqsj.qmodel import ArityMismatchError, Pair, parse_database, parse_query, serialize_database


# -- relabelling ------------------------------------------------------------------


def test_relabel_path():
    q = parse_query("Q(x,y,z) :- R(x,y), R(y,z).")
    qp, occurrence = rd.relabel_self_join_free(q)
    names = sorted(a.symbol.name for a in qp.atoms)
    assert names == ["R1", "R2"]
    assert set(occurrence) == {"R1", "R2"}
    assert all(len([a for a in qp.atoms if a.symbol.name == n]) <= 1 for n in names)


def test_relabel_self_join_free_is_renaming():
    q = fx.fixture("path2_proj")
    qp, occurrence = rd.relabel_self_join_free(q)
    assert len(qp.atoms) == len(q.atoms)
    assert {a.args for a in qp.atoms} == {a.args for a in q.atoms}


def test_relabel_preserves_answers(diamond):
    qp, occurrence = rd.relabel_self_join_free(diamond)
    for seed in range(20):
        db = random_graph_db(8, 18, seed)
        dprime = ref.duplicate_db(occurrence, db)
        assert en.oracle_enumerate(diamond, db) == en.oracle_enumerate(qp, dprime)


# -- pair encoding -----------------------------------------------------------------


def test_encoding_trick_worked_database(diamond):
    qp, occurrence = rd.relabel_self_join_free(diamond)
    # the four colored facts of the worked example, aligned to occurrences:
    # R(u,y)->R1, R(v,y)->R2, R(x,u)->R3, R(x,v)->R4
    dprime = parse_database("R3(a,b). R1(b,c). R4(a,d). R2(d,c).")
    db = rd.encoding_trick(dprime, occurrence)
    assert db.size == 4
    assert (Pair("a", "x"), Pair("b", "u")) in db.facts("R")
    assert (Pair("b", "u"), Pair("c", "y")) in db.facts("R")
    assert (Pair("a", "x"), Pair("d", "v")) in db.facts("R")
    assert (Pair("d", "v"), Pair("c", "y")) in db.facts("R")


def test_encoding_trick_empty():
    q = fx.fixture("diamond")
    _, occurrence = rd.relabel_self_join_free(q)
    from cqsj.qmodel import Database

    assert rd.encoding_trick(Database(), occurrence).size == 0


def test_encoding_trick_schema_mismatch(diamond):
    _, occurrence = rd.relabel_self_join_free(diamond)
    with pytest.raises(rd.GadgetInputError, match="^symbol Zed is not in the occurrence map$"):
        rd.encoding_trick(parse_database("Zed(a,b)."), occurrence)
    with pytest.raises(ArityMismatchError,
                       match="^relation R1 has arity 3 in the database but 2 in the query$"):
        rd.encoding_trick(parse_database("R1(a,b,c)."), occurrence)


def test_encoded_answers_contain_original(diamond):
    qp, occurrence = rd.relabel_self_join_free(diamond)
    for seed in range(15):
        base = random_graph_db(7, 14, seed)
        dprime = ref.duplicate_db(occurrence, base)
        enc = rd.encoding_trick(dprime, occurrence)
        plain = en.oracle_enumerate(qp, dprime)
        encoded = en.oracle_enumerate(diamond, enc)
        for answer in plain:
            tagged = tuple(Pair(v, var) for v, var in zip(answer, diamond.free_vars))
            assert tagged in encoded


def test_identity_class_equals_relabelled_answers(diamond):
    qp, occurrence = rd.relabel_self_join_free(diamond)
    for seed in range(15):
        base = random_graph_db(7, 14, seed)
        dprime = ref.duplicate_db(occurrence, base)
        enc = rd.encoding_trick(dprime, occurrence)
        idents = set()
        auto_counts = {}
        for ans in en.oracle_enumerate(diamond, enc):
            d = ref.decode_solution(diamond, ans)
            if d.endo_class == "identity":
                idents.add(d.data_part)
            if d.endo_class in ("identity", "automorphism"):
                auto_counts[d.data_part] = auto_counts.get(d.data_part, 0) + 1
        plain = en.oracle_enumerate(qp, dprime)
        assert idents == plain
        # one answer per automorphism: the diamond has exactly two
        for answer in plain:
            assert auto_counts.get(answer, 0) >= 1


def test_decode_classes_on_worked_example(diamond):
    db = parse_database(
        "R(pair(a,x), pair(b,u)). R(pair(b,u), pair(c,y)). "
        "R(pair(a,x), pair(d,v)). R(pair(d,v), pair(c,y)).")
    classes = {}
    for ans in en.oracle_enumerate(diamond, db):
        d = ref.decode_solution(diamond, ans)
        classes[d.endo_class] = classes.get(d.endo_class, 0) + 1
        if d.endo_class == "endomorphism":
            assert d.data_part in {("a", "b", "c", "b"), ("a", "d", "c", "d")}
    assert classes == {"identity": 1, "automorphism": 1, "endomorphism": 2}


def test_decode_requires_pairs(diamond):
    with pytest.raises(ref.NonPairValueError):
        ref.decode_solution(diamond, ("a", "b", "c", "d"))


# -- gadgets -----------------------------------------------------------------------


def test_untangle2_size_formula():
    g = rd.make_graph([("a", "b"), ("b", "c"), ("c", "a")])
    assert rd.gadget_triangle_untangle2(g).size == 19  # 5 per edge + 4 sentinels


def test_untangle2_triangle_graph_decodes_triangle():
    g = rd.make_graph([("a", "b"), ("b", "c"), ("c", "a")])
    q = fx.fixture("windmill")
    db = rd.gadget_triangle_untangle2(g)
    labels = {}
    for ans in en.oracle_enumerate(q, db):
        d = ref.decode_solution(q, ans, scheme="triangle-untangle2")
        labels.setdefault(d.label, set()).add(d.payload)
    assert ("a", "b", "c") in labels["TRIANGLE"]
    assert len(labels.get("BOT_FAMILY", ())) >= 1


def test_untangle2_triangle_free_only_sentinels():
    q = fx.fixture("windmill")
    for seed in range(8):
        g = rd.gen_random_graph(8, 10, seed)
        if pattern_triangles("triangle-untangle2", g):
            continue
        db = rd.gadget_triangle_untangle2(g)
        for ans in en.oracle_enumerate(q, db):
            d = ref.decode_solution(q, ans, scheme="triangle-untangle2")
            assert d.label == "BOT_FAMILY"


def test_untangle2_empty_graph():
    q = fx.fixture("windmill")
    db = rd.gadget_triangle_untangle2(rd.make_graph([]))
    answers = en.oracle_enumerate(q, db)
    assert answers
    for ans in answers:
        d = ref.decode_solution(q, ans, scheme="triangle-untangle2")
        assert d.label == "BOT_FAMILY"


def test_mirrorfig1_single_edge_family(diamond_red):
    db = rd.gadget_triangle_mirrorfig1(rd.make_graph([("a", "b")]))
    answers = en.oracle_enumerate(diamond_red, db)
    assert answers == {
        (Pair("a", "x"), Pair("b", "y"), Pair("b", "z"), Pair("b", "y"))}


def test_mirrorfig1_soundness_and_completeness(diamond_red):
    for seed in range(10):
        g = rd.gen_random_graph(9, 18, seed)
        db = rd.gadget_triangle_mirrorfig1(g)
        decoded = set()
        edges = set()
        for ans in en.oracle_enumerate(diamond_red, db):
            d = ref.decode_solution(diamond_red, ans, scheme="triangle-mirrorfig1")
            if d.label == "TRIANGLE":
                decoded.add(d.payload)
            else:
                edges.add(d.payload)
        assert decoded == pattern_triangles("triangle-mirrorfig1", g)
        assert edges <= set(g.edges)


def test_spike_q1_gadget_classes():
    q = fx.fixture("ring8")
    for seed in range(6):
        g = rd.gen_random_graph(8, 16, seed)
        db = rd.gadget_triangle_spike_q1(g)
        decoded = set()
        for ans in en.oracle_enumerate(q, db):
            d = ref.decode_solution(q, ans, scheme="triangle-spike-q1")
            assert d.label in ("TRIANGLE", "EDGE", "NODE")
            if d.label == "TRIANGLE":
                decoded.add(d.payload)
            elif d.label == "EDGE":
                assert d.payload in set(g.edges)
            else:
                assert d.payload[0] in g.vertices
        assert decoded == pattern_triangles("triangle-spike-q1", g)


def test_utd_gadget_classes():
    q = fx.fixture("ring8_spikes_flip")
    for seed in range(5):
        g = ref.gen_tripartite(8, 4, 4, 0.35, seed)
        db = rd.gadget_utd_spike_q4(g)
        decoded = set()
        for ans in en.oracle_enumerate(q, db):
            d = ref.decode_solution(q, ans, scheme="utd-spike-q4")
            assert d.label in ("TRIANGLE", "EDGE_UW", "EDGE_UV", "NODE")
            if d.label == "TRIANGLE":
                decoded.add(d.payload)
            elif d.label == "EDGE_UW":
                assert (d.payload[1], d.payload[0]) in set(g.edges)
            elif d.label == "EDGE_UV":
                assert d.payload in set(g.edges)
        assert decoded == pattern_triangles("utd-spike-q4", g)


def test_utd_empty_edges_only_nodes():
    q = fx.fixture("ring8_spikes_flip")
    us = tuple(f"u{i}" for i in range(3))
    g = rd.Graph(us + ("v0", "w0"), (),
                 {"U": us, "V": ("v0",), "W": ("w0",)})
    db = rd.gadget_utd_spike_q4(g)
    payloads = set()
    for ans in en.oracle_enumerate(q, db):
        d = ref.decode_solution(q, ans, scheme="utd-spike-q4")
        assert d.label == "NODE"
        payloads.add(d.payload)
    assert payloads == {(u,) for u in us}


def test_utd_requires_parts():
    with pytest.raises(rd.GadgetInputError):
        rd.gadget_utd_spike_q4(rd.make_graph([("a", "b")]))


def test_gadgets_reject_reserved_tokens():
    with pytest.raises(rd.GadgetInputError):
        rd.gadget_triangle_mirrorfig1(rd.make_graph([("bot", "b")]))
    with pytest.raises(rd.GadgetInputError):
        rd.gadget_triangle_spike_q1(rd.make_graph([("a#b", "b")]))


def test_gadget_databases_parse_back():
    for kind, build in rd.GADGET_BUILDERS.items():
        if kind == "utd-spike-q4":
            g = rd.parse_graph("#parts U:u0,u1 V:v0 W:w0\nu0 v0\nu1 v0\nv0 w0\nw0 u1\n")
        else:
            g = rd.parse_graph("a b\nb c\nc a\na_1 b\n")
        db = build(g)
        assert db.size > 0
        assert parse_database(serialize_database(db)) == db, kind


def test_gadget_sizes_linear():
    for kind in rd.GADGET_BUILDERS:
        for seed in (0, 1):
            if kind == "utd-spike-q4":
                g = ref.gen_tripartite(10, 5, 5, 0.3, seed)
            else:
                g = rd.gen_random_graph(12, 30, seed)
            db = rd.GADGET_BUILDERS[kind](g)
            assert db.size <= 6 * (len(g.vertices) + len(g.edges)) + 4, kind


# -- graphs and generators -----------------------------------------------------------


def test_graph_file_round_trip():
    g = ref.gen_tripartite(3, 2, 2, 0.8, 0)
    again = rd.parse_graph("#parts U:u0,u1,u2 V:v0,v1 W:w0,w1\n"
                           "u0 v1\nu1 v0\nu1 v1\nu2 v0\nu2 v1\n"
                           "v0 w0\nv0 w1\nv1 w0\nv1 w1\n"
                           "w0 u1\nw0 u2\nw1 u0\nw1 u1\nw1 u2\n")
    assert set(again.edges) == set(g.edges)
    assert again.parts == g.parts


def test_graph_parse_errors():
    with pytest.raises(rd.GadgetInputError):
        rd.parse_graph("a b c\n")
    with pytest.raises(rd.GadgetInputError):
        rd.parse_graph("#parts X:a\n")


def test_graph_checks():
    with pytest.raises(rd.GadgetInputError, match=r"^edge \(a,c\) uses unknown vertex$"):
        rd.Graph(("a", "b"), (("a", "c"),))
    with pytest.raises(rd.GadgetInputError, match="^parts do not partition the vertex set$"):
        rd.Graph(("a", "b"), (("a", "b"),), {"U": ("a",), "V": ("a",)})
    assert rd.Graph(("a", "b"), (("a", "b"),), {"U": ("b",), "W": ("a",)}).parts["W"] == ("a",)
    assert rd.Graph(("a", "b"), (("a", "b"),)).parts is None


def test_gen_random_graph_deterministic():
    assert rd.gen_random_graph(10, 20, 5).edges == rd.gen_random_graph(10, 20, 5).edges
    g = rd.gen_random_graph(5, 0, 1)
    assert len(g.vertices) == 5 and g.edges == ()


def test_gen_tripartite_shapes():
    g = ref.gen_tripartite(100, 10, 10, 0.3, 2)
    assert len(g.part_of("U")) == 100
    assert len(g.part_of("V")) == 10
    assert len(g.part_of("W")) == 10
    assert g == ref.gen_tripartite(100, 10, 10, 0.3, 2)
