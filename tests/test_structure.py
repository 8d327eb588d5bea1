"""Structural analysis: acyclicity, cores, images, untangling, mirrors."""

import ast
import itertools
import random
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import reference as ref
from conftest import FOUND_RESULT_IS_PREVIOUS, random_query
from cqsj import fixtures as fx
from cqsj import structure as st
from cqsj.qmodel import (Atom, LimitExceededError, RelationSymbol, make_query, parse_query,
                         serialize_query)


def _same(a, b) -> bool:
    """The two queries are the same up to renaming."""
    return st.isomorphism(a, b) is not None


# -- acyclicity ----------------------------------------------------------------


def test_gyo_path_is_acyclic():
    tree = st.gyo_acyclic(fx.fixture("path2_full"))
    assert tree is not None
    assert ref.satisfies_running_intersection(tree)


def test_gyo_triangle_is_cyclic():
    assert st.gyo_acyclic(fx.fixture("triangle")) is None


def test_gyo_projected_triangle_is_cyclic():
    assert st.gyo_acyclic(fx.fixture("cyclic_triple")) is None


def test_gyo_self_loop():
    assert st.gyo_acyclic(parse_query("Q() :- R(x,x).")) is not None


def test_gyo_deterministic():
    q = parse_query("Q(a,b,c,d) :- S(a,b,c), R(a,b), R(b,c), R(c,a), R(a,d).")
    t1 = st.gyo_acyclic(q)
    t2 = st.gyo_acyclic(q)
    assert t1 is not None and t1.parent == t2.parent


def test_gyo_matches_brute_force_on_fixtures():
    for name in fx.fixture_names():
        q = fx.fixture(name)
        if len(q.atoms) <= 6:
            assert st.is_acyclic(q) == ref.brute_force_acyclic(q), name


def test_gyo_matches_brute_force_random():
    for seed in range(60):
        q = random_query(seed)
        assert st.is_acyclic(q) == ref.brute_force_acyclic(q), serialize_query(q)


def test_returned_trees_satisfy_running_intersection():
    for name in fx.fixture_names():
        tree = st.gyo_acyclic(fx.fixture(name))
        if tree is not None:
            assert ref.satisfies_running_intersection(tree), name


def test_rerooted_trees_keep_running_intersection():
    for seed in range(60):
        tree = st.gyo_acyclic(random_query(seed))
        if tree is None:
            continue
        for atom in tree.nodes:
            moved = tree.rerooted(atom)
            assert moved.parent[atom] is None
            assert len(moved.roots) == len(tree.roots)
            assert ref.satisfies_running_intersection(moved), seed
            edges = {frozenset((a, p)) for a, p in tree.parent.items() if p is not None}
            assert edges == {frozenset((a, p)) for a, p in moved.parent.items() if p is not None}


# -- free-connexity ---------------------------------------------------------------


def test_projected_path_not_free_connex():
    assert not st.Analysis(fx.fixture("path2_proj")).free_connex


def test_full_acyclic_always_free_connex():
    assert st.Analysis(fx.fixture("path2_full")).free_connex


def test_unary_acyclic_free_connex():
    assert st.Analysis(fx.fixture("unary_path")).free_connex


def test_cyclic_not_free_connex():
    assert not st.Analysis(fx.fixture("triangle")).free_connex


# -- endomorphisms, minimality, cores ------------------------------------------------


def test_diamond_endomorphisms():
    endos = list(st.endomorphisms(fx.fixture("diamond")))
    assert len(endos) == 4
    bijective = [m for m in endos if len(set(m.values())) == len(m)]
    assert len(bijective) == 2
    swap = {"x": "x", "y": "y", "u": "v", "v": "u"}
    assert {tuple(sorted(m.items())) for m in bijective} == {
        tuple(sorted({"x": "x", "y": "y", "u": "u", "v": "v"}.items())),
        tuple(sorted(swap.items())),
    }


def test_single_atom_only_identity():
    q = parse_query("Q(x,y) :- R(x,y).")
    assert list(st.endomorphisms(q)) == [{"x": "x", "y": "y"}]


def test_self_join_free_is_minimal():
    assert ref.is_minimal(fx.fixture("path2_proj"))
    assert ref.is_minimal(fx.fixture("cyclic_triple"))


def test_boolean_closure_of_marked_diamond_not_minimal():
    q = make_query(fx.fixture("diamond_red").atoms, ())
    assert not ref.is_minimal(q)


def test_full_queries_trivially_minimal():
    assert ref.is_minimal(fx.fixture("ring8"))


def test_minimal_form_idempotent():
    q = make_query(fx.fixture("diamond_red").atoms, ())
    m1 = st.minimal_form(q)
    assert ref.is_minimal(m1)
    assert _same(m1, st.minimal_form(m1))


def test_minimal_form_homomorphic_both_ways():
    for name in ("diamond", "diamond_red", "ring8", "twin_loops"):
        q = make_query(fx.fixture(name).atoms, ())
        m, _ = st.minimal_form_with_retraction(q)
        assert ref.homomorphism_exists(q, m)
        assert ref.homomorphism_exists(m, q)


def test_marked_diamond_full_core_is_marked_path():
    fc = st.Analysis(fx.fixture("diamond_red")).full_core
    expect = parse_query("Q(x,y,z) :- R(x,y), R(y,z), P(y).")
    assert _same(fc, expect)


def test_reversed_diamond_core_is_itself():
    q = fx.fixture("diamond_reversed")
    c = st.core(q)
    assert set(c.atoms) == set(q.atoms)
    assert not st.is_acyclic(c)


def test_ring8_full_core_is_marked_path():
    fc = st.Analysis(fx.fixture("ring8")).full_core
    expect = parse_query("Q(x,y,z) :- R(x,y), R(y,z), P(y).")
    assert _same(fc, expect)


def test_spiked_rings_share_the_marked_path_core():
    expect = parse_query("Q(x,y,z) :- R(x,y), R(y,z), P(y).")
    for name in ("ring8_io", "ring8_spikes", "ring8_spikes_flip"):
        fc = st.Analysis(fx.fixture(name)).full_core
        assert _same(fc, expect), name


def test_windmill_core_is_hub_with_inner_triangle():
    expect = parse_query("Q(a,b,c) :- S(a,b,c), R(a,b), R(b,c), R(c,a).")
    for name in ("windmill", "windmill_tail", "double_kite"):
        fc = st.Analysis(fx.fixture(name)).full_core
        assert _same(fc, expect), name
        assert st.is_acyclic(fc)


def test_twin_loop_cores_are_self_loops():
    expect = parse_query("Q(a) :- R(a,a).")
    for name in ("twin_loops", "twin_triangles", "square_loops"):
        fc = st.Analysis(fx.fixture(name)).full_core
        assert _same(fc, expect), name


def test_cycle20_core_is_two_path():
    fc = st.Analysis(fx.fixture("cycle20")).full_core
    assert _same(fc, parse_query("Q(x,y,z) :- R(x,y), R(y,z)."))


# -- images ---------------------------------------------------------------------


def test_images_of_diamond():
    q = fx.fixture("diamond")
    imgs = st.images(q)
    assert len(imgs) == 3  # whole query plus the two symmetric paths
    classes = []  # one query per class up to renaming
    for img in imgs:
        if not any(_same(c, img.query) for c in classes):
            classes.append(img.query)
    assert len(classes) == 2
    atom_sets = {img.atoms for img in imgs}
    assert frozenset(q.atoms) in atom_sets


def test_images_of_ring8_match_known_shapes():
    q = fx.fixture("ring8")
    imgs = st.images(q)
    assert len(imgs) == 4
    sizes = sorted(len(i.atoms) for i in imgs)
    assert sizes == [3, 5, 5, 9]
    fc = st.Analysis(q).full_core
    assert any(_same(i.query, fc) for i in imgs)


def test_images_compare_by_atoms_and_query_only():
    q = fx.fixture("diamond")
    img = st.images(q)[1]
    twin = st.Image(img.atoms, img.query, {v: v for v in q.all_vars}, make_query(q.atoms, ()))
    assert twin == img and hash(twin) == hash(img)
    assert st.Image(img.atoms, q, img.endo, q) != img


def test_single_atom_single_image():
    q = parse_query("Q(x,y) :- R(x,y).")
    assert len(st.images(q)) == 1


def _star(leaves: int):
    ys = [f"y{i}" for i in range(1, leaves + 1)]
    return parse_query(f"Q(x,{','.join(ys)}) :- "
                       f"{', '.join(f'R(x,{y})' for y in ys)}.")


def test_images_are_the_endomorphism_ranges_within_the_cap(monkeypatch):
    # the k-leaf star has k^k endomorphisms and 2^k - 1 images
    q = _star(4)
    ranges = {frozenset(a.rename(m) for a in q.atoms) for m in st.endomorphisms(q)}
    assert len(list(st.endomorphisms(q))) == 256
    assert {img.atoms for img in st.images(q)} == ranges
    assert len(ranges) == 15
    monkeypatch.setattr(st, "MAX_HOM_RESULTS", 256)
    assert len(st.images(q)) == 15
    monkeypatch.setattr(st, "MAX_HOM_RESULTS", 255)
    for f in (st.images, st.endomorphisms):
        with pytest.raises(LimitExceededError, match="exceeded result cap"):
            list(f(q))


def test_images_keep_only_ranges():
    # 5^5 = 3,125 endomorphisms, 31 images.  Keeping every endomorphism as
    # a dict would take several hundred bytes each; images() keeps ranges.
    q = _star(5)
    tracemalloc.start()
    try:
        imgs = st.images(q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(imgs) == 31
    assert peak < 64 * 5 ** 5


def test_classify_without_images_when_thm_2_2_settles_everything():
    # 7^7 endomorphisms exceed MAX_HOM_RESULTS; the star is acyclic and
    # free-connex, so rules (1)-(4) settle all four problems
    report = st.classify(_star(7))
    assert not report.images_computed
    assert [(v.verdict, v.citation) for v in report.verdicts] == [
        (st.V_LINEAR_TIME, "Thm 2.2"), (st.V_LINEAR_IO, "Thm 2.2"),
        (st.V_CONSTANT, "Thm 2.2"), (st.V_LINEAR_DELAY, "Thm 2.2")]
    payload = report.to_json()
    assert [payload[k] for k in ("images", "mirror", "untangleable")] == [st.NOT_COMPUTED] * 3


def test_classify_needing_images_beyond_the_cap_raises(monkeypatch):
    # a four-cycle with acyclic core next to a star: (1)-(4) settle only
    # first-solution, so the images are needed
    monkeypatch.setattr(st, "MAX_HOM_RESULTS", 1000)
    q = parse_query("Q(a,b,c,d,x,y1,y2,y3,y4) :- R(a,b), R(c,b), R(c,d), R(a,d), "
                    "R(x,y1), R(x,y2), R(x,y3), R(x,y4).")
    with pytest.raises(LimitExceededError, match="exceeded result cap"):
        st.classify(q)
    assert st.classify(_star(5)).images_computed is False
    assert st.classify(_star(4)).images_computed is True


def test_every_image_is_an_endomorphism_range():
    # each image carries an endomorphism of the analysed query: it renames
    # every atom into the query, and its range is exactly the image's atoms
    analyses = [st.Analysis(fx.fixture(name)) for name in fx.fixture_names()]
    analyses += [st.Analysis(random_query(seed)) for seed in range(100)]
    checked = 0
    for a in analyses:
        q = a.analyzed
        for img in a.images or ():
            assert img.source == a.analyzed
            assert set(img.endo) == set(q.all_vars)
            renamed = [atom.rename(img.endo) for atom in q.atoms]
            assert set(renamed) <= set(q.atoms)
            assert frozenset(renamed) == img.atoms
            checked += 1
    assert checked


# -- untangling -------------------------------------------------------------------


def test_untangling_step_windmill_tail():
    # removing the hub-plus-pendant image leaves one binary atom and four
    # unary atoms over two rewritten symbols, an acyclic pattern
    q = fx.fixture("windmill_tail")
    wanted = frozenset(
        parse_query("Q(u,w1,w2,w3,v,y) :- S(w1,w2,w3), R(u,w1), R(w1,w2), "
                    "R(w2,w3), R(w3,w1), R(w2,v), R(y,v).").atoms)
    image = next(i for i in st.images(q) if i.atoms == wanted)
    out = st.untangle(q, image.atoms).result
    binaries = [a for a in out.atoms if a.symbol.arity == 2]
    unaries = [a for a in out.atoms if a.symbol.arity == 1]
    assert len(binaries) == 1 and len(unaries) == 4
    assert len({a.symbol.name for a in unaries}) == 2
    assert len(out.all_vars) == 3
    assert st.is_acyclic(out)


def test_untangling_step_windmill():
    # removing the hub image leaves the outer triangle with two marks
    q = fx.fixture("windmill")
    image = next(i for i in st.images(q) if len(i.atoms) == 6)
    out = st.untangle(q, image.atoms).result
    assert _same(out, parse_query(
        "Q(x,y,z) :- R(x,y), R(y,z), R(z,x), R__0(x), R__1(y)."))
    assert not st.is_acyclic(out)


def test_untangling_with_whole_query_is_empty():
    q = fx.fixture("diamond")
    out = st.untangle(q, frozenset(q.atoms)).result
    assert out.atoms == () and out.free_vars == ()


def test_untangleable_fixtures():
    assert st.is_untangleable(fx.fixture("windmill_tail"))[0] == "yes"
    assert st.is_untangleable(fx.fixture("windmill"))[0] == "no"
    assert st.is_untangleable(fx.fixture("bowtie_chain"))[0] == "yes"
    assert st.is_untangleable(fx.fixture("twin_loops"))[0] == "no"
    assert st.is_untangleable(fx.fixture("twin_triangles"))[0] == "no"
    assert st.is_untangleable(fx.fixture("square_loops"))[0] == "no"
    assert st.is_untangleable(fx.fixture("double_kite"))[0] == "no"


def test_untangleable_ring_family():
    for name in ("ring8", "ring8_io", "ring8_spikes", "ring8_spikes_flip"):
        status, witness = st.is_untangleable(fx.fixture(name))
        assert status == "yes", name
        assert st.validate_untangling_witness(fx.fixture(name), witness), name


def test_bowtie_chain_witness_has_three_steps():
    status, witness = st.is_untangleable(fx.fixture("bowtie_chain"))
    assert status == "yes"
    assert len(witness.steps) >= 2  # the chain cannot shortcut to one step
    assert st.validate_untangling_witness(fx.fixture("bowtie_chain"), witness)


def test_untangling_census_needs_no_step_to_a_result():
    # every connected cyclic full query over R/2 with at most 5 atoms, and
    # with at most 4 plus one P atom, one per class: the image-only search
    # agrees with a search that may also step on to an untangling's result,
    # and every such step through a retract lifts to image-only steps
    triangles = ("Q(x,y,z) :- R(x,y), R(y,z), R(z,x).", "Q(x,y,z) :- R(x,y), R(x,z), R(y,z).")
    assert sorted(map(ref.canonical_form, ref.connected_queries(3))) \
        == sorted(ref.canonical_form(parse_query(text)) for text in triangles)
    counts = ref.untangling_census(5)
    assert (counts["classes"], counts["yes"], counts["no"]) == (175, 71, 104)
    assert counts["lifted"] > 0
    counts = ref.untangling_census(4, unary=True)
    assert (counts["classes"], counts["yes"], counts["no"]) == (65, 13, 52)
    assert counts["lifted"] > 0
    # the query whose search once stepped on to a result: the two-link
    # witness does so through a retract, and lifts
    counts.clear()
    ref.check_untangling(parse_query(FOUND_RESULT_IS_PREVIOUS), counts)
    assert counts == {"yes": 1, "result steps": 1, "lifted": 1}


def test_budget_exhaustion_reports_unknown():
    status, witness = st.is_untangleable(fx.fixture("windmill"), budget=0)
    assert status == "unknown" and witness is None
    # below the top level: bowtie_chain's chain needs three expansions, so
    # with one or two its sub-searches run out and the status is unknown
    bowtie = fx.fixture("bowtie_chain")
    for budget in (1, 2):
        assert st.is_untangleable(bowtie, budget=budget) == ("unknown", None), budget
    assert st.is_untangleable(bowtie, budget=3)[0] == "yes"
    # at windmill_tail's one expansion, an image whose query is cyclic runs
    # out, and a later image whose query is acyclic gives a one-step witness
    status, witness = st.is_untangleable(fx.fixture("windmill_tail"), budget=1)
    assert status == "yes" and len(witness.steps) == 1


def test_witness_validation_rejects_wrong_target():
    _, witness = st.is_untangleable(fx.fixture("windmill_tail"))
    assert not st.validate_untangling_witness(fx.fixture("diamond"), witness)


# -- mirrors ----------------------------------------------------------------------


def test_diamond_is_mirror():
    witness = st.is_mirror(fx.fixture("diamond"))
    assert witness is not None
    assert len(witness.image.atoms) == 2
    assert st.validate_mirror_witness(fx.fixture("diamond"), witness)


def test_marked_diamond_is_not_mirror():
    assert st.is_mirror(fx.fixture("diamond_red")) is None


def test_cycle20_is_not_mirror():
    assert st.is_mirror(fx.fixture("cycle20")) is None


def test_acyclic_fork_is_mirror():
    q = parse_query("Q(x,y,z) :- R(x,y), R(x,z).")
    witness = st.is_mirror(q)
    assert witness is not None


# -- hardness transfer ---------------------------------------------------------------


def test_windmill_hardness_witness():
    got = st.hardness_transfer(fx.fixture("windmill"))
    assert got is not None
    image, rewritten = got
    assert not st.is_acyclic(st.core(rewritten))
    assert _same(rewritten, parse_query(
        "Q(x,y,z) :- R(x,y), R(y,z), R(z,x), R__0(x), R__1(y)."))


def test_no_transfer_for_diamond_or_double_kite():
    assert st.hardness_transfer(fx.fixture("diamond")) is None
    assert st.hardness_transfer(fx.fixture("double_kite")) is None
    assert st.hardness_transfer(fx.fixture("square_loops")) is None


# -- canonical forms -------------------------------------------------------------------


def _renamed(q, mapping: dict):
    return make_query([a.rename(mapping) for a in q.atoms],
                      [mapping.get(v, v) for v in q.free_vars])


def test_canonical_invariant_under_renaming():
    q = fx.fixture("ring8")
    renamed = _renamed(q, {v: f"w{i}" for i, v in enumerate(q.all_vars)})
    assert st.canonical_key(q) == st.canonical_key(renamed)
    assert _same(q, renamed)


def test_canonical_distinguishes_orientation():
    assert st.canonical_key(fx.fixture("diamond")) != st.canonical_key(
        fx.fixture("diamond_reversed"))


def _renamed_and_shuffled(q, seed: int):
    rng = random.Random(seed)
    names = [f"w{i}" for i in range(len(q.all_vars))]
    rng.shuffle(names)
    renaming = dict(zip(q.all_vars, names))
    atoms = [a.rename(renaming) for a in q.atoms]
    rng.shuffle(atoms)
    free = [renaming[v] for v in q.free_vars]
    rng.shuffle(free)
    return make_query(atoms, free)


def test_isomorphism_agrees_with_the_permutation_canonical_form():
    # within each canonical-key group, isomorphism finds a map exactly when
    # the reference canonical forms are equal, and isomorphic queries always
    # share a key
    queries = [random_query(seed) for seed in range(300)]
    queries += [_renamed_and_shuffled(q, seed) for seed, q in enumerate(queries)]
    form = {q: ref.canonical_form(q) for q in queries}
    by_key: dict = {}
    keys_of_form: dict = {}
    for q in queries:
        key = st.canonical_key(q)
        by_key.setdefault(key, []).append(q)
        keys_of_form.setdefault(form[q], set()).add(key)
    assert all(len(keys) == 1 for keys in keys_of_form.values())
    isomorphic = 0
    for group in by_key.values():
        for a, b in itertools.combinations(group, 2):
            iso = st.isomorphism(a, b)
            assert (iso is not None) == (form[a] == form[b]), (a, b)
            if iso is not None:
                assert {x.rename(iso) for x in a.atoms} == set(b.atoms)
                assert {iso[v] for v in a.free_vars} == set(b.free_vars)
                isomorphic += 1
    assert isomorphic >= 300  # every query and its copy, at least


@pytest.mark.parametrize("a,b", [
    ("Q() :- R(x,x), R(y,y).", "Q() :- R(x,y), R(y,x)."),
    ("Q(a,b,c,d,e,f) :- R(a,b), R(b,c), R(c,d), R(d,e), R(e,f), R(f,a).",
     "Q(a,b,c,d,e,f) :- R(a,b), R(b,c), R(c,a), R(d,e), R(e,f), R(f,d)."),
])
def test_equal_keys_without_isomorphism(a, b):
    a, b = parse_query(a), parse_query(b)
    assert st.canonical_key(a) == st.canonical_key(b)
    assert st.isomorphism(a, b) is None
    assert st.isomorphism(b, a) is None


def _directed_cycles(n: int, parts: int = 1, free: bool = True):
    """``parts`` directed cycles of n // parts variables each, over x0..x(n-1)."""
    xs = [f"x{i}" for i in range(n)]
    k = n // parts
    atoms = [Atom(RelationSymbol("R", 2), (xs[i], xs[i - i % k + (i % k + 1) % k]))
             for i in range(n)]
    return make_query(atoms, xs if free else ())


@pytest.mark.parametrize("free", [True, False])
def test_canonical_key_of_symmetric_cycles_needs_no_search(free):
    # every variable of a directed cycle has one colour, so a permutation
    # search would face n! labellings; an even cycle shares its key with
    # two cycles of half its length
    for n in range(2, 33):
        q = _directed_cycles(n, free=free)
        rotated = _renamed(q, {f"x{i}": f"y{(i + 3) % n}" for i in range(n)})
        assert st.canonical_key(q) == st.canonical_key(rotated), n
        assert _same(q, rotated), n
        if n % 2 == 0:
            halves = _directed_cycles(n, parts=2, free=free)
            assert st.canonical_key(halves) == st.canonical_key(q), n
            assert not _same(halves, q), n


def test_fixtures_only_name_queries():
    # every classification rule lives in structure: fixtures imports query
    # parsing and the standard library, at the top or inside a function
    for node in ast.walk(ast.parse(Path(fx.__file__).read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            assert (node.level, node.module) == (1, "qmodel"), ast.dump(node)
        elif isinstance(node, ast.ImportFrom):
            assert node.module.split(".")[0] in sys.stdlib_module_names, ast.dump(node)
        elif isinstance(node, ast.Import):
            assert all(a.name.split(".")[0] in sys.stdlib_module_names
                       for a in node.names), ast.dump(node)


def test_registry_labels_the_settled_fixtures():
    C, L = st.PROBLEM_CONST, st.PROBLEM_LINEAR
    hard = st.V_COND_HARD
    rows = {
        "diamond_red": [(C, hard, "sHyperclique", "triangle-mirrorfig1 encoding")],
        "ring8": [(C, hard, "sHyperclique", "triangle-spike-q1 encoding")],
        "ring8_io": [(C, st.V_CONSTANT, "none", "bespoke SPIKE_Q2")],
        "ring8_spikes": [(C, st.V_CONSTANT, "none", "bespoke SPIKE_Q3")],
        "ring8_spikes_flip": [(C, hard, "UTD", "utd-spike-q4 encoding")],
        "double_kite": [(L, hard, "sHyperclique", "Ex 4.7 encoding")],
        "twin_loops": [(L, st.V_LINEAR_DELAY, "none", "bespoke TWO_LOOPS")],
        "twin_triangles": [(L, st.V_LINEAR_DELAY, "none", "bespoke TWO_TRIANGLES")],
        "square_loops": [], "cycle20": [], "windmill": [], "windmill_tail": [],
        "bowtie_chain": [],
    }
    labelled = {}
    for key, entries in st.classification_registry().items():
        for entry in entries:
            assert st.canonical_key(fx.fixture(entry["name"])) == key
            labelled[entry["name"]] = entry["verdicts"]
    assert labelled == rows
    for name in fx.fixture_names():
        assert st.Analysis(fx.fixture(name)).fixture_name == (name if name in rows else None)


def test_classify_minimizes_first():
    q = parse_query("Q(x) :- R(x,y), R(x,z).")  # y/z fold together
    report = st.classify(q)
    assert report.minimized
    assert len(report.analyzed.atoms) == 1


def test_classify_verdicts_never_contradict():
    # a single query must not be both constant-delay and conditionally hard
    # for linear delay
    for name in fx.fixture_names():
        budget = 400 if name == "cycle20" else st.DEFAULT_UNTANGLE_BUDGET
        report = st.classify(fx.fixture(name), untangle_budget=budget)
        verdicts = {v.problem: v for v in report.verdicts}
        const = verdicts[st.PROBLEM_CONST]
        linear = verdicts[st.PROBLEM_LINEAR]
        if const.verdict == st.V_CONSTANT:
            assert linear.verdict == st.V_LINEAR_DELAY, name
        if linear.verdict == st.V_COND_HARD:
            assert const.verdict != st.V_CONSTANT, name


def test_classify_computes_images_of_the_analysed_query_once(monkeypatch):
    calls = []
    images = st.images
    monkeypatch.setattr(st, "images", lambda q: calls.append(q) or images(q))
    report = st.classify(fx.fixture("ring8_spikes"))
    assert calls.count(report.analyzed) == 1


@pytest.mark.parametrize("name", ["ring8", "bowtie_chain", "ring8_spikes_flip", "windmill",
                                  "double_kite", "square_loops", "FOUND_RESULT_IS_PREVIOUS"])
def test_classify_untangles_each_image_once(monkeypatch, name):
    # the untangling search, its witness validation and the hardness
    # transfer all read the one rewrite an image carries
    q = (parse_query(FOUND_RESULT_IS_PREVIOUS) if name == "FOUND_RESULT_IS_PREVIOUS"
         else fx.fixture(name))
    calls = []
    untangle = st.untangle
    monkeypatch.setattr(st, "untangle",
                        lambda query, atoms: calls.append((query, atoms)) or untangle(query, atoms))
    st.classify(q)
    assert calls
    assert len(calls) == len(set(calls))


def test_classify_minimises_a_sparse_boolean_query_quickly():
    # 28 atoms over 24 variables: binding the variables in occurrence order
    # instead of along the atoms took minutes of CPU in minimal_form
    q = parse_query(
        "Q() :- R(v1,v19), R(v10,v19), R(v10,v8), R(v11,v14), R(v12,v11), "
        "R(v13,v24), R(v15,v4), R(v15,v9), R(v16,v7), R(v17,v21), R(v18,v12), "
        "R(v19,v16), R(v19,v2), R(v2,v7), R(v22,v14), R(v23,v18), R(v3,v2), "
        "R(v3,v24), R(v4,v14), R(v4,v15), R(v5,v18), R(v5,v22), R(v8,v22), "
        "R(v8,v3), R(v8,v5), R(v9,v15), R(v9,v21), R(v9,v23).")
    start = time.process_time()
    report = st.classify(q)
    assert time.process_time() - start < 5.0
    assert serialize_query(report.analyzed) == (
        "Q() :- R(v10,v8), R(v11,v14), R(v12,v11), R(v15,v4), R(v15,v9), "
        "R(v18,v12), R(v22,v14), R(v23,v18), R(v4,v14), R(v4,v15), R(v5,v18), "
        "R(v5,v22), R(v8,v22), R(v8,v5), R(v9,v15), R(v9,v23).")
