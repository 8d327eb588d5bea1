"""Acceptance suite: one test per criterion, each printing a PASS line.

Tolerances are pinned here, not calibrated elsewhere: classification labels
are exact, answer sets are compared with zero tolerance, tick ratios use the
stated factors (2 for constant gaps, 2 for linear-gap stability, 2.5 per
doubling for preprocessing), and gadget counts use per-gadget constants
measured once and fixed below.
"""

import random

import reference as ref
from conftest import pattern_triangles, random_graph_db, random_query
from cqsj import engines as en
from cqsj import fixtures as fx
from cqsj import reductions as rd
from cqsj import structure as st
from cqsj.qmodel import Database, Pair, make_query, parse_database

PROBLEM_FIRST = st.PROBLEM_FIRST
PROBLEM_EVAL = st.PROBLEM_EVAL
PROBLEM_CONST = st.PROBLEM_CONST
PROBLEM_LINEAR = st.PROBLEM_LINEAR


# -- criterion 1: fixture classification ----------------------------------------

EXPECTED_CLASSIFICATION = {
    "path2_full": {"verdicts": {PROBLEM_CONST: "constant-delay"}},
    "path2_proj": {"verdicts": {PROBLEM_CONST: "conditionally-hard",
                                PROBLEM_LINEAR: "linear-delay"}},
    "unary_path": {"verdicts": {PROBLEM_EVAL: "linear-time",
                                PROBLEM_CONST: "constant-delay"}},
    "self_loop_boolean": {"verdicts": {PROBLEM_EVAL: "linear-time"}},
    "triangle": {"verdicts": {PROBLEM_FIRST: "conditionally-hard"}},
    "cyclic_triple": {"verdicts": {PROBLEM_FIRST: "conditionally-hard"}},
    "diamond": {"mirror": True,
                "verdicts": {PROBLEM_CONST: "constant-delay"}},
    "diamond_red": {"mirror": False,
                    "verdicts": {PROBLEM_FIRST: "linear-time",
                                 PROBLEM_LINEAR: "linear-delay",
                                 PROBLEM_CONST: "conditionally-hard"}},
    "diamond_reversed": {"core_acyclic": False,
                         "verdicts": {PROBLEM_FIRST: "conditionally-hard"}},
    "ring8": {"untangleable": "yes",
              "verdicts": {PROBLEM_LINEAR: "linear-delay",
                           PROBLEM_CONST: "conditionally-hard"}},
    "ring8_io": {"untangleable": "yes",
                 "verdicts": {PROBLEM_CONST: "constant-delay"}},
    "ring8_spikes": {"untangleable": "yes",
                     "verdicts": {PROBLEM_CONST: "constant-delay"}},
    "ring8_spikes_flip": {"untangleable": "yes",
                          "verdicts": {PROBLEM_CONST: "conditionally-hard"}},
    "windmill": {"untangleable": "no", "hardness": True,
                 "verdicts": {PROBLEM_LINEAR: "conditionally-hard"}},
    "windmill_tail": {"untangleable": "yes",
                      "verdicts": {PROBLEM_LINEAR: "linear-delay"}},
    "bowtie_chain": {"untangleable": "yes",
                     "verdicts": {PROBLEM_LINEAR: "linear-delay"}},
    "double_kite": {"untangleable": "no",
                    "verdicts": {PROBLEM_LINEAR: "conditionally-hard"}},
    "twin_loops": {"untangleable": "no",
                   "verdicts": {PROBLEM_LINEAR: "linear-delay"}},
    "twin_triangles": {"untangleable": "no",
                       "verdicts": {PROBLEM_LINEAR: "linear-delay"}},
    "square_loops": {"untangleable": "no",
                     "verdicts": {PROBLEM_LINEAR: "unknown",
                                  PROBLEM_CONST: "unknown"}},
    "cycle20": {"mirror": False,
                "verdicts": {PROBLEM_CONST: "unknown"}},
}


def test_criterion_1_fixture_classification():
    failures = []
    for name, expected in EXPECTED_CLASSIFICATION.items():
        budget = 400 if name == "cycle20" else st.DEFAULT_UNTANGLE_BUDGET
        report = st.classify(fx.fixture(name), untangle_budget=budget)
        if "untangleable" in expected and report.untangleable != expected["untangleable"]:
            failures.append((name, "untangleable", report.untangleable))
        if "mirror" in expected and (report.mirror is not None) != expected["mirror"]:
            failures.append((name, "mirror", report.mirror))
        if "core_acyclic" in expected and report.core_acyclic != expected["core_acyclic"]:
            failures.append((name, "core_acyclic", report.core_acyclic))
        if expected.get("hardness") and report.hardness_witness is None:
            failures.append((name, "hardness", None))
        for problem, verdict in expected.get("verdicts", {}).items():
            got = {v.problem: v for v in report.verdicts}.get(problem)
            if got is None or got.verdict != verdict:
                failures.append((name, problem, got and got.verdict))
    assert not failures, failures
    print(f"\nACCEPTANCE 1 PASS: {len(EXPECTED_CLASSIFICATION)} fixture "
          "classifications match the settled statuses exactly")


# -- criterion 2: the worked four-fact example ------------------------------------


def test_criterion_2_worked_example():
    diamond = fx.fixture("diamond")
    db = parse_database(
        "R(pair(a,x), pair(b,u)). R(pair(b,u), pair(c,y)). "
        "R(pair(a,x), pair(d,v)). R(pair(d,v), pair(c,y)).")
    answers = en.oracle_enumerate(diamond, db)
    assert len(answers) == 4
    classes = {"identity": 0, "automorphism": 0, "endomorphism": 0}
    for ans in answers:
        classes[ref.decode_solution(diamond, ans).endo_class] += 1
    assert classes == {"identity": 1, "automorphism": 1, "endomorphism": 2}
    # the automorphism answer carries the y tag in its third slot; the
    # variant with an x tag there is not produced by this database
    assert (Pair("a", "x"), Pair("d", "v"), Pair("c", "y"), Pair("b", "u")) in answers
    assert (Pair("a", "x"), Pair("d", "v"), Pair("c", "x"), Pair("b", "u")) not in answers
    print("\nACCEPTANCE 2 PASS: worked example yields 4 answers with classes "
          "{identity x1, automorphism x1, non-automorphism x2}; third slot "
          "carries the y tag")


# -- criterion 3: oracle equivalence ----------------------------------------------

SEEDS = range(100)


def _engine_matrix():
    wit = {name: st.is_untangleable(fx.fixture(name))[1]
           for name in ("diamond_red", "windmill_tail", "bowtie_chain", "ring8")}
    mirror = st.is_mirror(fx.fixture("diamond"))
    return [
        ("enum_full_acyclic/path2_full", fx.fixture("path2_full"),
         lambda s: random_graph_db(18, 40, s),
         lambda q, db: en.enum_full_acyclic(q, db)),
        ("enum_mirror/diamond", fx.fixture("diamond"),
         lambda s: random_graph_db(18, 40, s),
         lambda q, db: en.enum_mirror(q, mirror, db)),
        ("enum_untangle/diamond_red", fx.fixture("diamond_red"),
         lambda s: random_graph_db(15, 30, s, red_p=0.4),
         lambda q, db: en.enum_untangle(q, wit["diamond_red"], db)),
        ("enum_untangle/ring8", fx.fixture("ring8"),
         lambda s: random_graph_db(12, 20, s, red_p=0.3),
         lambda q, db: en.enum_untangle(q, wit["ring8"], db)),
        ("enum_untangle/windmill_tail", fx.fixture("windmill_tail"),
         lambda s: random_graph_db(7, 16, s, hubs=3),
         lambda q, db: en.enum_untangle(q, wit["windmill_tail"], db)),
        ("enum_untangle/bowtie_chain", fx.fixture("bowtie_chain"),
         lambda s: random_graph_db(7, 16, s, hubs=3),
         lambda q, db: en.enum_untangle(q, wit["bowtie_chain"], db)),
        ("bespoke/TWO_LOOPS", fx.fixture(en.BESPOKE_STRATEGIES["TWO_LOOPS"].fixture),
         lambda s: random_graph_db(10, 24, s, loops=4),
         lambda q, db: en.enum_bespoke("TWO_LOOPS", db)),
        ("bespoke/TWO_TRIANGLES", fx.fixture(en.BESPOKE_STRATEGIES["TWO_TRIANGLES"].fixture),
         lambda s: random_graph_db(10, 24, s, loops=4),
         lambda q, db: en.enum_bespoke("TWO_TRIANGLES", db)),
        ("bespoke/SPIKE_Q2", fx.fixture(en.BESPOKE_STRATEGIES["SPIKE_Q2"].fixture),
         lambda s: random_graph_db(16, 24, s, red_p=0.25),
         lambda q, db: en.enum_bespoke("SPIKE_Q2", db)),
        ("bespoke/SPIKE_Q3", fx.fixture(en.BESPOKE_STRATEGIES["SPIKE_Q3"].fixture),
         lambda s: random_graph_db(20, 22, s, red_p=0.2),
         lambda q, db: en.enum_bespoke("SPIKE_Q3", db)),
    ]


def test_criterion_3_oracle_equivalence():
    total = 0
    for label, query, make_db, make_cursor in _engine_matrix():
        for seed in SEEDS:
            db = make_db(seed)
            assert db.size <= 200
            got = list(make_cursor(query, db))
            assert len(got) == len(set(got)), f"{label} seed {seed}: duplicates"
            want = en.oracle_enumerate(query, db)
            assert set(got) == want, f"{label} seed {seed}: set mismatch"
            total += len(want)
    # evaluation and first-solution engines against the same oracle
    boolean_closure = make_query(fx.fixture("path2_full").atoms, ())
    dred = fx.fixture("diamond_red")
    for seed in SEEDS:
        db = random_graph_db(12, 25, seed, red_p=0.3)
        assert (en.first_solution(boolean_closure, db) is not None) == bool(
            en.oracle_enumerate(boolean_closure, db))
        got = en.first_solution(dred, db)
        oracle = en.oracle_enumerate(dred, db)
        assert (got is None) == (not oracle)
        if got is not None:
            assert got in oracle
    print(f"\nACCEPTANCE 3 PASS: 10 engine/fixture pairs x {len(SEEDS)} seeded "
          f"databases match the oracle exactly ({total} answers, no duplicates); "
          "evaluation and first-solution engines agree on 100 more")


# -- criterion 4: delay classes -----------------------------------------------------

BENCH_SIZES = (1000, 2000, 4000, 8000)


def _bench_graph_db(size, seed, red_p=0.0, loops=0, nodes=None):
    rng = random.Random(seed)
    n = nodes or max(4, size // 2)
    db = Database()
    while db.size < size - loops:
        db.add_fact("R", (f"v{rng.randrange(n)}", f"v{rng.randrange(n)}"))
    for _ in range(loops):
        v = f"v{rng.randrange(n)}"
        db.add_fact("R", (v, v))
    if red_p:
        for i in range(n):
            if rng.random() < red_p:
                db.add_fact("P", (f"v{i}",))
    return db


def _delay_rows(make_cursor_for_db, dbs):
    return [en.measure_delay(lambda db=db: make_cursor_for_db(db)) for db in dbs]


def test_criterion_4_delay_classes():
    mirror = st.is_mirror(fx.fixture("diamond"))
    wit = st.is_untangleable(fx.fixture("diamond_red"))[1]

    plain = [_bench_graph_db(s, 11) for s in BENCH_SIZES]
    red = [_bench_graph_db(s, 11, red_p=0.02) for s in BENCH_SIZES]
    red_sparse = [_bench_graph_db(s, 11, red_p=0.02, nodes=s) for s in BENCH_SIZES]
    loops = [_bench_graph_db(s, 11, loops=max(2, s // 100)) for s in BENCH_SIZES]

    constant = {
        "enum_full_acyclic": _delay_rows(
            lambda db: en.enum_full_acyclic(fx.fixture("path2_full"), db), plain),
        "enum_mirror": _delay_rows(
            lambda db: en.enum_mirror(fx.fixture("diamond"), mirror, db), plain),
        "SPIKE_Q2": _delay_rows(lambda db: en.enum_bespoke("SPIKE_Q2", db), red),
        "SPIKE_Q3": _delay_rows(lambda db: en.enum_bespoke("SPIKE_Q3", db), red_sparse),
    }
    linear = {
        "enum_untangle": _delay_rows(
            lambda db: en.enum_untangle(fx.fixture("diamond_red"), wit, db), red),
        "TWO_LOOPS": _delay_rows(lambda db: en.enum_bespoke("TWO_LOOPS", db), loops),
        "TWO_TRIANGLES": _delay_rows(
            lambda db: en.enum_bespoke("TWO_TRIANGLES", db), loops),
    }

    lines = []
    for name, rows in constant.items():
        gaps = [max(1, r["max_gap"]) for r in rows]
        ratio = max(gaps) / min(gaps)
        assert ratio <= 2.0, f"{name}: constant-gap ratio {ratio:.2f} > 2"
        lines.append(f"{name} gap ratio {ratio:.2f}")
    for name, rows in linear.items():
        slopes = [max(1, r["max_gap"]) / s for r, s in zip(rows, BENCH_SIZES)]
        stability = max(slopes) / min(slopes)
        assert stability <= 2.0, f"{name}: linear slope varies {stability:.2f}x"
        lines.append(f"{name} gap/size stable x{stability:.2f}")
    for name, rows in {**constant, **linear}.items():
        preps = [max(1, r["preprocessing_ticks"]) for r in rows]
        for a, b in zip(preps, preps[1:]):
            assert b / a <= 2.5, f"{name}: preprocessing grew {b/a:.2f}x per doubling"
    print("\nACCEPTANCE 4 PASS: " + "; ".join(lines) +
          "; all preprocessing within 2.5x per doubling")


# -- criterion 5: gadget soundness and completeness ------------------------------------

NON_TRIANGLE_BUDGET = {
    "triangle-mirrorfig1": 2,
    "triangle-spike-q1": 5,
    "triangle-untangle2": 1,   # plus the flat sentinel allowance below
    "utd-spike-q4": 150,       # spike slots multiply with the fixed W side
}


def test_criterion_5_gadget_soundness_completeness():
    stats = {}
    for kind in rd.GADGET_BUILDERS:
        query = fx.fixture(ref.GADGET_QUERIES[kind])
        triangles = 0
        for seed in range(50):
            if kind == "utd-spike-q4":
                graph = ref.gen_tripartite(6 + seed % 10, 5, 5, 0.3, seed)
            else:
                n = 8 + seed % 7
                graph = rd.gen_random_graph(n, 2 * n, seed)
            assert len(graph.vertices) <= 50
            db = rd.GADGET_BUILDERS[kind](graph)
            decoded = set()
            non_triangle = 0
            for ans in en.oracle_enumerate(query, db):
                d = ref.decode_solution(query, ans, scheme=kind)
                assert d.label is not None
                if kind == "utd-spike-q4":
                    assert d.label in ("TRIANGLE", "NODE", "EDGE_UW", "EDGE_UV")
                if d.label == "TRIANGLE":
                    decoded.add(d.payload)
                else:
                    non_triangle += 1
            expected = pattern_triangles(kind, graph)
            assert decoded == expected, f"{kind} seed {seed}"
            budget = NON_TRIANGLE_BUDGET[kind]
            n_plus_m = len(graph.vertices) + len(graph.edges)
            assert non_triangle <= budget * n_plus_m + 4, (
                f"{kind} seed {seed}: {non_triangle} non-triangle answers")
            triangles += len(expected)
        stats[kind] = triangles
    print("\nACCEPTANCE 5 PASS: 4 gadgets x 50 graphs decode with zero false "
          f"positives/negatives (triangles per gadget: {stats}); counts within "
          "their fixed budgets; unbalanced-gadget labels exhaustive")


# -- criterion 6: duplicate elimination wrapper ------------------------------------------


def _repeat_stream(items, gap_ticks):
    ticker = en.Ticker()

    def gen():
        for item in items:
            ticker.tick(gap_ticks)
            yield item

    return en.EnumerationCursor(ticker, gen())


def test_criterion_6_cheater_wrapper():
    rng = random.Random(5)
    for c in (1, 2, 3, 4):
        base = [f"a{i}" for i in range(120)]
        items = [x for x in base for _ in range(rng.randint(1, c))]
        gap_in = 9
        inner_stats = en.measure_delay(lambda: _repeat_stream(items, gap_in))
        out = list(en.cheater_dedup(_repeat_stream(items, gap_in), c))
        assert out == base  # duplicate-free, order of first appearance
        stats = en.measure_delay(
            lambda: en.cheater_dedup(_repeat_stream(items, gap_in), c))
        bound = c * inner_stats["max_gap"] + 4 * c + 4
        assert stats["max_gap"] <= bound, f"c={c}: {stats['max_gap']} > {bound}"
    print("\nACCEPTANCE 6 PASS: wrapper removes duplicates for c in 1..4 and "
          "keeps max_gap within c times the inner gap plus a fixed constant")


# -- criterion 7: structural cross-checks ----------------------------------------------


def test_criterion_7_structural_cross_checks():
    checked = 0
    for name in fx.fixture_names():
        q = fx.fixture(name)
        if len(q.atoms) <= 6:
            assert st.is_acyclic(q) == ref.brute_force_acyclic(q), name
            checked += 1
    for seed in range(200):
        q = random_query(seed)
        assert st.is_acyclic(q) == ref.brute_force_acyclic(q), seed
    minimal_checked = 0
    for seed in range(60):
        q = random_query(seed, max_atoms=4, max_vars=4)
        m, _ = st.minimal_form_with_retraction(q)
        assert ref.is_minimal(m), seed
        assert ref.homomorphism_exists(q, m), seed
        assert ref.homomorphism_exists(m, q), seed
        minimal_checked += 1
    print(f"\nACCEPTANCE 7 PASS: ear removal agrees with brute-force join-tree "
          f"search on {checked} fixtures and 200 random queries; "
          f"{minimal_checked} minimal forms verified minimal with "
          "homomorphisms both ways")
