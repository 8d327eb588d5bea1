"""Command-line surface: exit codes, formats, determinism."""

import ast
import collections
import contextlib
import importlib.util
import inspect
import io
import itertools
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings

import reference as ref
from conftest import (BESPOKE_DB_KWARGS, FUZZ_TEXT, KEPT_F_NAME, KEPT_F_NAME_DB, bespoke_dbs,
                      random_query)
from cqsj import cli, engines as en, fixtures as fx, qmodel as qm, reductions as rd
from cqsj import structure as st
from cqsj.qmodel import (Database, make_query, parse_query, serialize_database,
                         serialize_query)


@pytest.fixture
def workdir(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return tmp_path, write


def run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_reversed_diamond(workdir, capsys):
    _, write = workdir
    qf = write("q.cq", serialize_query(fx.fixture("diamond_reversed")))
    code, out, _ = run_cli(["classify", qf], capsys)
    assert code == 0
    assert "first-solution: conditionally-hard (sHyperclique; Thm 3.5)" in out


def test_classify_spiked_ring_constant(workdir, capsys):
    _, write = workdir
    qf = write("q.cq", serialize_query(fx.fixture("ring8_spikes")))
    code, out, _ = run_cli(["classify", qf], capsys)
    assert code == 0
    assert "enumeration-constant-delay: constant-delay (bespoke SPIKE_Q3)" in out


def test_classify_open_square_loops_json(workdir, capsys):
    _, write = workdir
    qf = write("q.cq", serialize_query(fx.fixture("square_loops")))
    code, out, _ = run_cli(["classify", qf, "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    verdicts = {v["problem"]: v for v in payload["verdicts"]}
    assert verdicts["enumeration-linear-delay"]["verdict"] == "unknown"
    assert all({"problem", "verdict", "assumption", "citation"} <= set(v)
               for v in payload["verdicts"])


def test_classify_star_beyond_endomorphism_cap(workdir, capsys):
    # the 7-leaf star has 7^7 endomorphisms, more than the cap; Thm 2.2
    # settles all four problems, so classify reports the images as not
    # computed instead of failing, and enumerate runs the acyclic engine
    _, write = workdir
    ys = [f"y{i}" for i in range(1, 8)]
    qf = write("star.cq", f"Q(x,{','.join(ys)}) :- {', '.join(f'R(x,{y})' for y in ys)}.")
    code, out, _ = run_cli(["classify", qf], capsys)
    assert code == 0
    assert (f"images: not computed (more than {st.MAX_HOM_RESULTS} endomorphisms)\n"
            "mirror: not computed\nuntangleable: not computed\n") in out
    assert out.endswith("  first-solution: linear-time (Thm 2.2)\n"
                        "  evaluation: linear-input-output (Thm 2.2)\n"
                        "  enumeration-constant-delay: constant-delay (Thm 2.2)\n"
                        "  enumeration-linear-delay: linear-delay (Thm 2.2)\n")
    code, out, _ = run_cli(["classify", qf, "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert {payload[k] for k in ("images", "mirror", "untangleable")} == {"not computed"}
    df = write("d.facts", "R(a,b). R(a,c).")
    code, out, err = run_cli(["enumerate", qf, df, "--stats"], capsys)
    assert code == 0
    assert len(out.splitlines()) == 2 ** 7
    assert json.loads(err)["engine"] == "acyclic"


# Queries whose verdict lines are pinned: a change to the verdict rules
# shows up here as a diff.  First the queries of arity two or less that keep
# unknown cells; then a query that rule (7), nested images without
# untangling, decides, and two fixtures whose linear delay is hard while
# the derived fills leave their first solution at Thm 2.2.
CLASSIFY_AUDIT = {
    "Q(x1,x4) :- R(x1,x0), R(x4,x0).": (
        "  first-solution: linear-time (Thm 2.2)\n"
        "  evaluation: unknown (open)\n"
        "  enumeration-constant-delay: conditionally-hard (BMM+Hyperclique; Thm 3.4)\n"
        "  enumeration-linear-delay: linear-delay (Thm 2.2)\n"),
    "Q(x6,x2) :- R(x0,x0), R(x0,x1), R(x0,x2), S(x1,x3,x0), S(x1,x4,x2), S(x3,x6,x5).": (
        "  first-solution: unknown (open)\n"
        "  evaluation: unknown (open)\n"
        "  enumeration-constant-delay: conditionally-hard (BMM+Hyperclique; Thm 3.4)\n"
        "  enumeration-linear-delay: unknown (open)\n"),
    "Q(x2) :- R(x0,x0), R(x0,x3), R(x1,x4), R(x3,x2), S(x0,x0,x0), S(x0,x2,x1).": (
        "  first-solution: unknown (open)\n"
        "  evaluation: conditionally-hard (sHyperclique; Thm 3.2)\n"
        "  enumeration-constant-delay: unknown (open)\n"
        "  enumeration-linear-delay: unknown (open)\n"),
    # without rule (7), rule (8) would cite Prop 4.7 here
    "Q(a,b,c,d) :- R(a,a), R(b,c), R(c,d), R(d,b).": (
        "  first-solution: linear-time (Thm 2.2)\n"
        "  evaluation: unknown (open)\n"
        "  enumeration-constant-delay: unknown (open)\n"
        "  enumeration-linear-delay: conditionally-hard (sHyperclique; Thm 4.8)\n"),
    serialize_query(fx.fixture("windmill")): (
        "  first-solution: linear-time (Thm 2.2)\n"
        "  evaluation: unknown (open)\n"
        "  enumeration-constant-delay: unknown (open)\n"
        "  enumeration-linear-delay: conditionally-hard (sHyperclique; Prop 4.7)\n"),
    serialize_query(fx.fixture("double_kite")): (
        "  first-solution: linear-time (Thm 2.2)\n"
        "  evaluation: unknown (open)\n"
        "  enumeration-constant-delay: unknown (open)\n"
        "  enumeration-linear-delay: conditionally-hard (sHyperclique; Ex 4.7 encoding)\n"),
}


@pytest.mark.parametrize("query", CLASSIFY_AUDIT)
def test_classify_pins_the_arity_two_audit_queries(workdir, capsys, query):
    _, write = workdir
    code, out, _ = run_cli(["classify", write("q.cq", query)], capsys)
    assert code == 0
    assert out.endswith(CLASSIFY_AUDIT[query])


def test_classify_accepts_a_relation_named_like_the_free_connex_head(workdir, capsys):
    # the free-connex check adds a head atom; its name must not clash with
    # a relation of the query, whatever that relation's arity
    _, write = workdir
    qf = write("q.cq", "Q(x) :- FCHEAD(x,y), FCHEAD(y,z).")
    rf = write("r.cq", "Q(x) :- R(x,y), R(y,z).")
    code, out, err = run_cli(["classify", qf], capsys)
    assert code == 0, err
    _, want, _ = run_cli(["classify", rf], capsys)
    assert [line for line in out.splitlines() if line.startswith("  ")] \
        == [line for line in want.splitlines() if line.startswith("  ")]
    code, out, err = run_cli(["classify", qf, "--json"], capsys)
    assert code == 0, err
    _, want, _ = run_cli(["classify", rf, "--json"], capsys)
    assert json.loads(out)["verdicts"] == json.loads(want)["verdicts"]


def test_classify_parse_error_exit_2(workdir, capsys):
    _, write = workdir
    qf = write("broken.cq", "Q(x :- R(x).")
    code, _, err = run_cli(["classify", qf], capsys)
    assert code == 2
    assert "error" in err


def test_enumerate_mirror_engine(workdir, capsys):
    _, write = workdir
    qf = write("q.cq", serialize_query(fx.fixture("diamond")))
    df = write("d.facts",
               "R(pair(a,x), pair(b,u)). R(pair(b,u), pair(c,y)). "
               "R(pair(a,x), pair(d,v)). R(pair(d,v), pair(c,y)).")
    code, out, _ = run_cli(["enumerate", qf, df, "--engine", "mirror"], capsys)
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 4


def test_enumerate_limit_one(workdir, capsys):
    _, write = workdir
    qf = write("q.cq", serialize_query(fx.fixture("path2_full")))
    df = write("d.facts", "R(a,b). R(b,c). R(b,d).")
    code, out, _ = run_cli(
        ["enumerate", qf, df, "--engine", "oracle", "--limit", "1"], capsys)
    assert code == 0
    assert len([l for l in out.splitlines() if l]) == 1


def test_enumerate_inapplicable_engine_exit_3(workdir, capsys):
    _, write = workdir
    qf = write("q.cq", serialize_query(fx.fixture("windmill")))
    df = write("d.facts", "R(a,b).")
    code, _, err = run_cli(["enumerate", qf, df, "--engine", "untangle"], capsys)
    assert code == 3


def test_enumerate_auto_prefers_constant(workdir, capsys):
    _, write = workdir
    qf = write("q.cq", serialize_query(fx.fixture("diamond")))
    df = write("d.facts", "R(a,b). R(b,c).")
    code, out, err = run_cli(
        ["enumerate", qf, df, "--stats"], capsys)
    assert code == 0
    stats = json.loads(err.splitlines()[-1])
    assert stats["engine"] == "mirror"
    assert stats["answers"] == 1


def test_enumerate_stats_schema(workdir, capsys):
    _, write = workdir
    qf = write("q.cq", serialize_query(fx.fixture("path2_full")))
    df = write("d.facts", "R(a,b). R(b,c).")
    code, _, err = run_cli(["enumerate", qf, df, "--stats"], capsys)
    assert code == 0
    stats = json.loads(err.splitlines()[-1])
    assert {"engine", "answers", "preprocessing_ticks", "ticks"} <= set(stats)


def test_verify_pass_and_corrupt(workdir, capsys, monkeypatch):
    _, write = workdir
    qf = write("q.cq", serialize_query(fx.fixture("diamond")))
    graph = rd.gen_random_graph(8, 16, 3)
    df = write("d.facts", serialize_database(rd.graph_to_db(graph)))
    code, out, _ = run_cli(["verify", qf, df, "--engine", "mirror"], capsys)
    assert code == 0 and out.startswith("PASS")
    select = cli.select_engine

    def drop_last_answer(query, engine):
        name, factory = select(query, engine)
        return name, lambda db: list(factory(db))[:-1]

    monkeypatch.setattr(cli, "select_engine", drop_last_answer)
    code, out, _ = run_cli(["verify", qf, df, "--engine", "mirror"], capsys)
    assert code == 1 and out.startswith("FAIL") and "missing" in out


def test_verify_empty_database_passes(workdir, capsys):
    _, write = workdir
    qf = write("q.cq", serialize_query(fx.fixture("diamond")))
    df = write("d.facts", "")
    code, out, _ = run_cli(["verify", qf, df, "--engine", "mirror"], capsys)
    assert code == 0


def test_bench_delay_small(workdir, capsys):
    _, write = workdir
    qf = write("q.cq", serialize_query(fx.fixture("path2_full")))
    code, out, _ = run_cli(
        ["bench-delay", qf, "--engine", "acyclic", "--sizes", "200", "400",
         "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] in ("CONSTANT", "LINEAR", "UNBOUNDED")
    assert len(payload["rows"]) == 2


def test_bench_delay_marks_nodes_on_the_loops_graph(workdir, capsys):
    # a self-loop atom picks the loops graph; reading P, the query needs
    # marked nodes there too, or every size measures an empty answer set
    _, write = workdir
    qf = write("q.cq", "Q(a,b) :- R(a,a), R(a,b), P(b).")
    code, out, _ = run_cli(["bench-delay", qf, "--sizes", "200", "400", "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["generator"] == "digraph-loops"
    assert sum(row["answers"] for row in payload["rows"]) > 0


def test_bench_delay_without_answers_gives_no_delay_class(workdir, capsys):
    # few marked nodes and no 2-cycle between two of them: every size has
    # no answer, so the gaps measure nothing
    _, write = workdir
    qf = write("q.cq", "Q(x,y) :- R(x,y), R(y,x), P(x), P(y).")
    code, out, _ = run_cli(["bench-delay", qf, "--sizes", "200", "400", "800", "--json"],
                           capsys)
    assert code == 0
    payload = json.loads(out)
    assert [row["answers"] for row in payload["rows"]] == [0, 0, 0]
    assert payload["verdict"] == "NO_ANSWERS"


def test_delay_verdict_reads_hand_made_rows():
    def rows(*size_gap, answers=1):
        return [{"size": size, "max_gap": gap, "answers": answers} for size, gap in size_gap]

    # a size without answers outweighs gaps that would say CONSTANT
    assert cli.delay_verdict(rows((100, 5)) + rows((200, 5), answers=0)) == "NO_ANSWERS"
    assert cli.delay_verdict(rows((100, 5), answers=0)) == "NO_ANSWERS"
    assert cli.delay_verdict(rows((100, 1000))) == "CONSTANT"  # one row: nothing to compare
    assert cli.delay_verdict(rows((100, 5), (1000, 10))) == "CONSTANT"  # gaps within 2x
    # gaps 2.1x apart, gap/size 4.8x
    assert cli.delay_verdict(rows((100, 10), (1000, 21))) == "UNBOUNDED"
    assert cli.delay_verdict(rows((100, 10), (1000, 100))) == "LINEAR"  # gap/size flat
    assert cli.delay_verdict(rows((100, 10), (1000, 200))) == "LINEAR"  # gap/size within 2x
    assert cli.delay_verdict(rows((100, 10), (200, 100))) == "UNBOUNDED"  # gap/size 5x
    # a max_gap of 0 is read as 1, so no ratio divides by 0
    assert cli.delay_verdict(rows((1, 0), (10, 2))) == "CONSTANT"
    assert cli.delay_verdict(rows((1, 0), (3, 3))) == "LINEAR"
    assert cli.delay_verdict(rows((1, 0), (1, 3))) == "UNBOUNDED"


def test_bench_generator_mismatch_exit_2(workdir, capsys):
    # the generators write R and P only
    _, write = workdir
    qf = write("q.cq", "Q(x,y,z) :- R(x,y), S(y,z).")
    code, _, err = run_cli(
        ["bench-delay", qf, "--engine", "oracle", "--sizes", "100"], capsys)
    assert code == 2
    assert "cannot feed schema" in err


@pytest.mark.parametrize("query,small", [
    ("Q(x,y) :- P(x,y).", "4"), ("Q() :- P().", "10"), ("Q(x) :- R(x,y,z).", "4")])
def test_bench_arity_mismatch_exit_2_at_every_size(workdir, capsys, query, small):
    # the generators write R/2 and P/1, P only when they mark some node: the
    # arities are checked against that schema before engine selection, not
    # against the relations one size's database happens to hold
    _, write = workdir
    qf = write("q.cq", query)
    errs = []
    for size in (small, "1000"):
        code, out, err = run_cli(["bench-delay", qf, "--sizes", size, "--seed", "3"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: relation ") and "warning:" not in err
        errs.append(err)
    assert errs[0] == errs[1]


def test_gadget_triangle_untangle2(workdir, capsys):
    tmp, write = workdir
    gf = write("g.graph", "a b\nb c\nc a\n")
    out_path = str(tmp / "out.facts")
    code, out, _ = run_cli(["gadget", "triangle-untangle2", gf, out_path], capsys)
    assert code == 0
    assert "19 facts" in out


@pytest.mark.parametrize("names", [("A", "B", "C"), ("a-1", "b.2", "c")])
@pytest.mark.parametrize("kind", sorted(rd.GADGET_BUILDERS))
def test_gadget_rejects_vertices_the_fact_format_cannot_read(workdir, capsys, kind, names):
    # the database written would not parse back, so none is written
    tmp, write = workdir
    a, b, c = names
    text = f"{a} {b}\n{b} {c}\n{c} {a}\n"
    if kind == "utd-spike-q4":
        text = f"#parts U:{a} V:{b} W:{c}\n" + text
    out_path = tmp / "out.facts"
    code, out, err = run_cli(["gadget", kind, write("g.graph", text), str(out_path)], capsys)
    assert code == 2
    assert out == "" and "is not a value token" in err
    assert not out_path.exists()


def test_gadget_encoding_trick(workdir, capsys):
    tmp, write = workdir
    qf = write("q.cq", serialize_query(fx.fixture("diamond")))
    df = write("dprime.facts", "R3(a,b). R1(b,c). R4(a,d). R2(d,c).")
    out_path = str(tmp / "enc.facts")
    code, out, _ = run_cli(
        ["gadget", "encoding-trick", df, out_path, "--query", qf], capsys)
    assert code == 0
    assert "4 facts" in out


def test_gadget_encoding_trick_writes_only_what_parses_back(workdir, capsys):
    # each value gets one more pair( around it, so a value nested
    # MAX_PAIR_DEPTH deep would come out one deeper than the parser reads
    tmp, write = workdir
    qf = write("q.cq", "Q(x,y) :- R(x,y).")

    def nested(depth):
        value = "b"
        for _ in range(depth):
            value = f"pair({value},t)"
        return value

    too_deep = tmp / "deep.facts"
    df = write("deep.in", f"R1({nested(qm.MAX_PAIR_DEPTH)},b).")
    code, out, err = run_cli(
        ["gadget", "encoding-trick", df, str(too_deep), "--query", qf], capsys)
    assert code == 2
    assert out == "" and f"nested {qm.MAX_PAIR_DEPTH} pair( deep" in err
    assert not too_deep.exists()
    out_path = tmp / "ok.facts"
    df = write("ok.in", f"R1({nested(qm.MAX_PAIR_DEPTH - 1)},b).")
    code, out, _ = run_cli(
        ["gadget", "encoding-trick", df, str(out_path), "--query", qf], capsys)
    assert code == 0 and "1 facts" in out
    code, out, err = run_cli(["enumerate", qf, str(out_path)], capsys)
    assert code == 0 and err == ""
    assert out.startswith("pair(" * qm.MAX_PAIR_DEPTH + "b,")


def test_gadget_utd_without_parts_exit_2(workdir, capsys):
    tmp, write = workdir
    gf = write("g.graph", "a b\n")
    code, _, _ = run_cli(["gadget", "utd-spike-q4", gf, str(tmp / "o.facts")], capsys)
    assert code == 2


def test_gadget_utd_reads_a_missing_part_as_empty(workdir, capsys):
    # a part the header leaves out reads as one listed with no names
    tmp, write = workdir
    written = []
    for header in ("#parts U:a V:b", "#parts U:a V:b W:"):
        gf = write("g.graph", f"{header}\na b\n")
        out_path = tmp / "o.facts"
        code, _, err = run_cli(["gadget", "utd-spike-q4", gf, str(out_path)], capsys)
        assert code == 0 and err == ""
        written.append(out_path.read_bytes())
    assert written[0] == written[1]


def test_gadget_unwritable_output_exit_2(workdir, capsys):
    tmp, write = workdir
    gf = write("g.graph", "a b\nb c\nc a\n")
    out_path = str(tmp / "missing_dir" / "out.facts")
    code, out, err = run_cli(["gadget", "triangle-untangle2", gf, out_path], capsys)
    assert code == 2
    assert "error" in err and "written" not in out


@pytest.mark.parametrize("value", ["abc", "0", "-3"])
def test_invalid_max_vars_exit_2(workdir, capsys, monkeypatch, value):
    _, write = workdir
    qf = write("q.cq", serialize_query(fx.fixture("path2_full")))
    monkeypatch.setenv("CQSJ_MAX_VARS", value)
    code, _, err = run_cli(["classify", qf], capsys)
    assert code == 2
    assert "CQSJ_MAX_VARS" in err


@pytest.mark.parametrize("bad", ["query", "facts", "graph"])
def test_non_utf8_input_exit_2(workdir, capsys, bad):
    tmp, write = workdir
    paths = {"query": write("q.cq", "Q(x,y) :- R(x,y)."),
             "facts": write("d.facts", "R(a,b)."),
             "graph": write("g.graph", "a b\n")}
    Path(paths[bad]).write_bytes(b"R(a,\xff).\n")
    if bad == "graph":
        argv = ["gadget", "triangle-untangle2", paths["graph"], str(tmp / "o.facts")]
    else:
        argv = ["verify", paths["query"], paths["facts"]]
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert "error" in err


def test_deeply_nested_pair_exit_2(workdir, capsys):
    _, write = workdir
    qf = write("q.cq", "Q(x) :- R(x).")
    df = write("d.facts", "R(" + "pair(" * 5000)
    code, out, err = run_cli(["enumerate", qf, df], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv,query,facts", [
    (["enumerate", "{q}", "{d}"], "Q(x,y,z) :- R(x,y,z).", "R(a,b)."),
    (["enumerate", "{q}", "{d}", "--engine", "oracle"], "Q(x,y,z) :- R(x,y,z).",
     "R(a,b)."),
    (["verify", "{q}", "{d}"], "Q(x,y,z) :- R(x,y,z).", "R(a,b)."),
    (["bench-delay", "{q}", "--sizes", "20", "40"], "Q(x,y,z) :- R(x,y,z).", ""),
    (["enumerate", "{q}", "{d}"], "Q(x,y) :- R(x,y).", "R(a,b,c)."),
], ids=["enumerate", "enumerate-oracle", "verify", "bench-delay", "wider-facts"])
def test_schema_mismatch_exit_2(workdir, capsys, argv, query, facts):
    _, write = workdir
    qf, df = write("q.cq", query), write("d.facts", facts)
    code, out, err = run_cli([a.format(q=qf, d=df) for a in argv], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: relation R has arity ")


def test_verify_failure_lists_mixed_answers(workdir, capsys, monkeypatch):
    _, write = workdir
    qf = write("q.cq", "Q(x,y) :- R(x,y).")
    df = write("d.facts", "R(a,b). R(pair(a,x),b).")
    select = cli.select_engine

    def emit_nothing(query, engine):
        name, _ = select(query, engine)
        return name, lambda db: iter(())

    monkeypatch.setattr(cli, "select_engine", emit_nothing)
    code, out, _ = run_cli(["verify", qf, df], capsys)
    assert code == 1
    assert "  missing: a, b\n" in out
    assert "  missing: pair(a,x), b\n" in out


@pytest.mark.parametrize("argv", [
    ["bench-delay", "{q}", "--engine", "acyclic", "--sizes", "0"],
    ["bench-delay", "{q}", "--engine", "acyclic", "--sizes", "200", "-1"],
    ["classify", "{q}", "--budget", "-5"],
    ["enumerate", "{q}", "{d}", "--limit", "-1"],
])
def test_out_of_range_option_exit_2(workdir, capsys, argv):
    _, write = workdir
    qf = write("q.cq", serialize_query(fx.fixture("path2_full")))
    df = write("d.facts", "R(a,b). R(b,c).")
    code, _, err = run_cli([a.format(q=qf, d=df) for a in argv], capsys)
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("fuzzed", ["query", "facts"])
@given(text=FUZZ_TEXT)
@settings(deadline=None)
def test_fuzzed_input_exit_0_or_2(fuzzed, text):
    # the oracle engine needs only the query's minimal form, and the other
    # file keeps its work small: an empty database, or a one-atom query; a lone
    # surrogate has no UTF-8 encoding, so it is written as the bytes
    # surrogatepass gives it, which the command must refuse as non-UTF-8
    with tempfile.TemporaryDirectory() as tmp:
        files = {"query": Path(tmp, "q.cq"), "facts": Path(tmp, "d.facts")}
        files["query"].write_text("Q(x,y) :- R(x,y).")
        files["facts"].write_text("")
        files[fuzzed].write_text(text, encoding="utf-8", errors="surrogatepass")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["enumerate", str(files["query"]), str(files["facts"]),
                             "--engine", "oracle"])
    assert code in (0, 2)
    assert (code == 2) == err.getvalue().startswith("error: ")


# Engine --engine auto picks for each fixture.
AUTO_ENGINE = {
    "bowtie_chain": "untangle", "cycle20": "untangle",
    "cyclic_triple": "oracle", "diamond": "mirror", "diamond_red": "untangle",
    "diamond_reversed": "oracle", "double_kite": "oracle",
    "path2_full": "acyclic", "path2_proj": "oracle", "ring8": "untangle",
    "ring8_io": "bespoke:SPIKE_Q2", "ring8_spikes": "bespoke:SPIKE_Q3",
    "ring8_spikes_flip": "untangle", "self_loop_boolean": "oracle",
    "square_loops": "oracle", "triangle": "oracle",
    "twin_loops": "bespoke:TWO_LOOPS", "twin_triangles": "bespoke:TWO_TRIANGLES",
    "unary_path": "oracle", "windmill": "oracle", "windmill_tail": "untangle",
}


def _auto_engine_agreeing_with_classify(query) -> str:
    engine, _ = cli.select_engine(query, "auto")
    verdicts = {v.verdict for v in st.classify(query).verdicts}
    # the picked row's guarantee is a verdict of the query; the fallback has none
    assert engine == "oracle" or cli.ENGINES[engine] in verdicts
    return engine


@pytest.mark.parametrize("name", fx.fixture_names())
def test_auto_engine_per_fixture_agrees_with_classify(name):
    assert _auto_engine_agreeing_with_classify(fx.fixture(name)) == AUTO_ENGINE[name]


def test_auto_engine_on_random_queries_agrees_with_classify():
    # auto's order decides these counts: 175 of the queries below and the
    # fixtures let both acyclic and untangle apply, 3 acyclic, mirror and
    # untangle, and 3 more untangle with mirror, SPIKE_Q2 or SPIKE_Q3
    queries = (random_query(seed) for seed in itertools.count())
    self_joins = (q for q in queries
                  if len({a.symbol for a in q.atoms}) < len(q.atoms))
    picks = collections.Counter(_auto_engine_agreeing_with_classify(q)
                                for q in itertools.islice(self_joins, 200))
    assert picks == {"oracle": 147, "acyclic": 53}
    # the 200 random queries of the benchmark's classify_mix workload at seed 1
    files, _ = _load_perfbench("run").build_classify_mix(1, Path("unwritten"))
    texts = [text for path, text in sorted(files.items())
             if Path(path).name.startswith("random") and path.endswith(".cq")]
    assert len(texts) == 200
    picks = collections.Counter(_auto_engine_agreeing_with_classify(parse_query(t))
                                for t in texts)
    assert picks == {"acyclic": 124, "oracle": 73, "untangle": 3}


def test_engine_table_ranks_constant_before_linear_delay():
    # auto takes the first row that applies, so a stronger guarantee comes first
    rank = [st.V_CONSTANT, st.V_LINEAR_DELAY]
    guarantees = list(cli.ENGINES.values())
    assert set(guarantees) == set(rank)
    assert guarantees == sorted(guarantees, key=rank.index)
    # every bespoke strategy can be selected, and only those
    bespoke = {name for name in cli.ENGINES if name.startswith("bespoke:")}
    assert bespoke == {f"bespoke:{s}" for s in en.BESPOKE_STRATEGIES}


@pytest.mark.parametrize("engine", ["nope", "bespoke:NOPE"])
def test_unknown_engine_exits_2_before_any_analysis(workdir, capsys, monkeypatch, engine):
    _, write = workdir
    qf = write("q.cq", serialize_query(fx.fixture("diamond")))
    df = write("d.facts", "R(a,b). R(b,c).")
    calls = []
    minimal_form = st.minimal_form
    monkeypatch.setattr(st, "minimal_form", lambda q: calls.append(q) or minimal_form(q))
    for command in ("enumerate", "verify"):
        code, out, err = run_cli([command, qf, df, "--engine", engine], capsys)
        assert (code, out, err) == (2, "", f"error: unknown engine {engine}\n")
    assert calls == []


def test_bespoke_engine_on_another_pattern_exits_3(workdir, capsys):
    _, write = workdir
    qf = write("q.cq", serialize_query(fx.fixture("triangle")))
    df = write("d.facts", "R(a,b). R(b,c). R(c,a).")
    code, out, err = run_cli(["enumerate", qf, df, "--engine", "bespoke:TWO_LOOPS"], capsys)
    assert (code, out) == (3, "")
    assert err == "error: query is not the TWO_LOOPS pattern\n"


@pytest.mark.parametrize("engine", [*cli.ENGINES, "oracle"])
def test_explicit_engine_matches_auto_and_states_its_guarantee(workdir, capsys, engine):
    # selecting a row by name on a fixture auto gives it runs the same
    # engine, and --stats names the row's guarantee (none for the fallback)
    name = min(n for n, picked in AUTO_ENGINE.items() if picked == engine)
    query = fx.fixture(name)
    assert cli.select_engine(query, engine)[0] == engine
    _, write = workdir
    qf = write("q.cq", serialize_query(query))
    df = write("d.facts", "")
    code, out, err = run_cli(["enumerate", qf, df, "--stats"], capsys)
    assert (code, out) == (0, "")
    *warnings, stats = err.splitlines()
    fallback = ["warning: no specialised engine applies, falling back to the generic join"]
    assert warnings == (fallback if engine == "oracle" else [])
    assert json.loads(stats)["engine"] == engine
    assert json.loads(stats)["guarantee"] == cli.ENGINES.get(engine)


# Non-minimal inputs whose minimal form is full acyclic: classify_mix seed-1
# queries 085, 161, 181 and 183, then random_query seeds 16, 202, 221, 256.
MINIMISED_TO_ACYCLIC = (
    "Q(x2) :- R(x0,x0), R(x0,x1), R(x0,x2), R(x2,x2).",
    "Q(x0,x1,x2,x3) :- R(x0,x0), R(x1,x2), R(x1,x4), R(x2,x1), R(x5,x2), "
    "S(x1,x0,x0), S(x1,x2,x0), S(x3,x2,x3).",
    "Q(x0,x1) :- P(x1), R(x0,x1), R(x1,x0), R(x1,x1), R(x1,x2), S(x1,x0,x0).",
    "Q(x0) :- P(x0), R(x0,x0), R(x0,x1), S(x0,x0,x0).",
    *(serialize_query(random_query(seed)) for seed in (16, 202, 221, 256)),
)


def _schema_db(query, seed: int) -> Database:
    """Facts over the query's own relations on a three-value domain."""
    rng = random.Random(seed)
    db = Database()
    for name, arity in sorted({(a.symbol.name, a.symbol.arity) for a in query.atoms}):
        for _ in range(12):
            db.add_fact(name, tuple(f"d{rng.randrange(3)}" for _ in range(arity)))
    return db


@pytest.mark.parametrize("text", MINIMISED_TO_ACYCLIC)
def test_non_minimal_input_runs_its_minimal_forms_engine(text):
    query = parse_query(text)
    assert st.Analysis(query).minimized
    engine, factory = cli.select_engine(query, "auto")
    assert engine == "acyclic"
    answered = 0
    for seed in range(20):
        db = _schema_db(query, seed)
        got = list(factory(db))
        assert len(got) == len(set(got)), seed
        # the oracle reads the input as written, in its own head order
        assert set(got) == en.oracle_enumerate(query, db), seed
        answered += bool(got)
    assert answered >= 5  # the check is not vacuous


def test_non_minimal_cycle_with_a_loop_enumerates_acyclic(workdir, capsys):
    # R(x,x) folds the 3-cycle through x onto x: the minimal form
    # Q(x) :- R(x,x). is full acyclic, as classify reports
    _, write = workdir
    qf = write("q.cq", "Q(x) :- R(x,y), R(y,z), R(z,x), R(x,x).")
    df = write("d.facts", "R(a,a). R(a,b). R(b,c). R(c,a). R(b,b). R(c,d).")
    code, out, err = run_cli(["enumerate", qf, df, "--stats"], capsys)
    assert code == 0
    assert "warning" not in err
    assert json.loads(err)["engine"] == "acyclic"
    assert sorted(out.splitlines()) == ["a", "b"]
    code, out, _ = run_cli(["verify", qf, df], capsys)
    assert code == 0
    assert out == "PASS acyclic: 2 answers match the oracle\n"


def test_symmetric_query_outside_registry(workdir, capsys):
    # Directed cycles give every variable one colour.  No fixture shares the
    # 10-cycle's or the 20-cycle's canonical key (cycle20 has the 20-cycle's
    # atoms per symbol, but mixed orientation), so neither matches a fixture;
    # with the pendant R(x1,y) the 20-cycle is an image that the untangling
    # search visits and memoises.
    _, write = workdir
    df = write("d.facts", "R(a,b). R(b,a).")
    for n, pendant in ((10, False), (20, False), (20, True)):
        head = [f"x{i}" for i in range(1, n + 1)] + ["y"] * pendant
        body = [f"R(x{i},x{i % n + 1})" for i in range(1, n + 1)] + ["R(x1,y)"] * pendant
        qf = write("q.cq", f"Q({','.join(head)}) :- {', '.join(body)}.")
        code, out, _ = run_cli(["classify", qf], capsys)
        assert code == 0, head
        for problem in (st.PROBLEM_FIRST, st.PROBLEM_EVAL, st.PROBLEM_CONST,
                        st.PROBLEM_LINEAR):
            assert f"  {problem}: conditionally-hard (sHyperclique; Thm 3.5)" in out
        code, out, err = run_cli(["enumerate", qf, df, "--stats"], capsys)
        assert code == 0, head
        assert sorted(out.splitlines()) == [", ".join(["a", "b"] * (n // 2) + ["b"] * pendant),
                                            ", ".join(["b", "a"] * (n // 2) + ["a"] * pendant)]
        assert json.loads(err.splitlines()[-1])["engine"] == "oracle"


def test_classify_directed_nine_cycle_with_a_pendant(workdir, capsys):
    # every cycle variable shares one colour; the untangling search memoises
    # the bare 9-cycle, an image, like any other query
    _, write = workdir
    cycle = [f"R(x{i},x{i % 9 + 1})" for i in range(1, 10)]
    head = ",".join(f"x{i}" for i in range(1, 10))
    qf = write("q.cq", f"Q({head},y) :- {', '.join(cycle)}, R(x1,y).")
    code, out, _ = run_cli(["classify", qf], capsys)
    assert code == 0
    assert out.splitlines()[-7:] == [
        "images: 2",
        "mirror: no",
        "untangleable: no",
        "  first-solution: conditionally-hard (sHyperclique; Thm 3.5)",
        "  evaluation: conditionally-hard (sHyperclique; Thm 3.5)",
        "  enumeration-constant-delay: conditionally-hard (sHyperclique; Thm 3.5)",
        "  enumeration-linear-delay: conditionally-hard (sHyperclique; Thm 3.5)",
    ]


def test_verify_a_query_keeping_a_relation_named_like_a_later_group(workdir, capsys):
    _, write = workdir
    qf = write("q.cq", KEPT_F_NAME)
    df = write("d.facts", KEPT_F_NAME_DB)
    code, out, _ = run_cli(["verify", qf, df], capsys)
    assert (code, out) == (0, "PASS untangle: 4 answers match the oracle\n")


@pytest.mark.parametrize("name", ["diamond_red", "ring8_spikes_flip"])
def test_auto_selection_runs_each_search_once(monkeypatch, name):
    st.classification_registry()  # keys the fixtures; built before counting
    query = parse_query(serialize_query(fx.fixture(name)))
    calls = {"is_untangleable": [], "canonical_key": [], "minimal_form": []}
    for fn_name, seen in calls.items():
        fn = getattr(st, fn_name)
        monkeypatch.setattr(st, fn_name,
                            lambda q, *a, fn=fn, seen=seen: seen.append(q) or fn(q, *a))
    engine, _ = cli.select_engine(query, "auto")
    assert engine == "untangle"
    assert len(calls["is_untangleable"]) == 1
    assert calls["canonical_key"].count(query) == 1
    assert calls["minimal_form"] == [query]


def _child_env(**extra) -> dict:
    """Environment of a child ``python``: it imports the same cqsj package
    as this process, whether it is installed or only on PYTHONPATH, writes
    no bytecode next to it, and nothing else leaks in."""
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    return {"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root,
            "PYTHONDONTWRITEBYTECODE": "1", **extra}


def _package_files() -> list:
    package_dir = Path(cli.__file__).parent
    return sorted(p.relative_to(package_dir) for p in package_dir.rglob("*"))


def test_cross_process_determinism(tmp_path):
    qf = tmp_path / "q.cq"
    qf.write_text(serialize_query(fx.fixture("diamond")))
    df = tmp_path / "d.facts"
    graph = rd.gen_random_graph(10, 22, 4)
    df.write_text(serialize_database(rd.graph_to_db(graph)))
    # images, the untangling search and the registry lookup all feed this
    rf = tmp_path / "r.cq"
    rf.write_text(serialize_query(fx.fixture("ring8_spikes_flip")))
    # the generic join's answer order over a windmill gadget
    wf = tmp_path / "w.cq"
    wf.write_text(serialize_query(fx.fixture("windmill")))
    gf = tmp_path / "g.facts"
    gf.write_text(serialize_database(rd.gadget_triangle_untangle2(graph)))
    # the rest of each untangling step joined per image answer
    uf = tmp_path / "u.facts"
    uf.write_text(serialize_database(rd.gadget_utd_spike_q4(ref.gen_tripartite(6, 5, 5, 0.3, 0))))
    listing = _package_files()
    for argv in (["enumerate", str(qf), str(df), "--engine", "mirror"],
                 ["classify", str(rf), "--json"],
                 ["enumerate", str(wf), str(gf), "--engine", "oracle"],
                 ["enumerate", str(rf), str(uf), "--engine", "untangle"]):
        outputs = []
        for seed in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "cqsj.cli", *argv],
                capture_output=True, text=True, timeout=120,
                env=_child_env(PYTHONHASHSEED=seed),
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0], f"{argv[0]} printed nothing"
        assert outputs[0] == outputs[1], argv[0]
    assert _package_files() == listing


@pytest.mark.parametrize("strategy,kwargs", BESPOKE_DB_KWARGS)
def test_bespoke_answers_follow_a_renamed_query_head(strategy, kwargs):
    # the registry matches up to renaming and head order, so the strategy's
    # answers are permuted into the head of the query as given;
    # test_engines.py::test_bespoke_matches_oracle checks the strategy
    # against the oracle on these databases
    pattern = fx.fixture(en.BESPOKE_STRATEGIES[strategy].fixture)
    renaming = {v: f"{v}_r" for v in pattern.all_vars}
    query = make_query([a.rename(renaming) for a in pattern.atoms],
                       [renaming[v] for v in reversed(pattern.free_vars)])
    engine, factory = cli.select_engine(query, "auto")
    assert engine == f"bespoke:{strategy}"
    _, as_given = cli.select_engine(pattern, "auto")
    for seed, db in enumerate(bespoke_dbs(kwargs)):
        # the pattern itself keeps the strategy's own tuples and order, and
        # the renamed query gives each of them reversed, in the same order
        own = list(as_given(db))
        assert own == list(en.enum_bespoke(strategy, db)), seed
        assert list(factory(db)) == [answer[::-1] for answer in own], seed


def test_enumerate_into_a_closed_pipe_exits_0(tmp_path):
    # 40,000 answers, about 600 KB, more than a pipe buffer holds
    qf = tmp_path / "q.cq"
    qf.write_text(serialize_query(fx.fixture("path2_full")))
    df = tmp_path / "d.facts"
    df.write_text("".join(f"R(s{i},m). R(m,t{i}).\n" for i in range(200)))
    listing = _package_files()
    proc = subprocess.Popen(
        [sys.executable, "-m", "cqsj.cli", "enumerate", str(qf), str(df)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env())
    assert proc.stdout.readline() == b"s0, m, t0\n"
    proc.stdout.close()
    assert proc.wait(timeout=120) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()
    assert _package_files() == listing


def test_cli_imports_neither_dataclasses_nor_inspect():
    # together with the modules they import (dis, tokenize, ast), these were
    # a large share of every command's start-up; -S keeps site's own
    # imports out of the count
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, cqsj.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True, text=True, timeout=120, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_images_beyond_the_cap_leave_auto_to_the_oracle(workdir, capsys, monkeypatch):
    # a triangle with a 5-leaf star at x has 3 * 6^5 + 2 endomorphisms:
    # Thm 3.5 settles classify without them, and the engines that need them
    # are inapplicable, so auto falls back to the oracle
    monkeypatch.setattr(st, "MAX_HOM_RESULTS", 1000)
    _, write = workdir
    ys = [f"y{i}" for i in range(1, 6)]
    qf = write("q.cq", f"Q(x,y,z,{','.join(ys)}) :- R(x,y), R(y,z), R(z,x), "
                       f"{', '.join(f'R(x,{y})' for y in ys)}.")
    df = write("d.facts", "R(a,b). R(b,c). R(c,a). R(a,d).")
    code, out, _ = run_cli(["classify", qf], capsys)
    assert code == 0 and "images: not computed" in out
    calls = []
    images = st.images
    monkeypatch.setattr(st, "images", lambda q: calls.append(q) or images(q))
    code, out, err = run_cli(["enumerate", qf, df, "--stats"], capsys)
    assert code == 0
    assert len(calls) == 1  # the capped search runs once per selection
    assert err.startswith("warning: no specialised engine applies")
    assert json.loads(err.splitlines()[-1])["engine"] == "oracle"
    assert len(out.splitlines()) == 2 ** 5 + 2  # x=a: each leaf is b or d
    for engine in ("mirror", "untangle"):
        code, out, err = run_cli(["enumerate", qf, df, "--engine", engine], capsys)
        assert code == 3 and out == ""
        assert err == "error: images not computed (more than 1000 endomorphisms)\n"


def _load_perfbench(name: str):
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_wraps_existing_names():
    # the benchmark's tracer (perfbench/spans.py) replaces these attributes;
    # a name it lists that the package no longer has breaks a traced run
    spans = _load_perfbench("spans")
    modules = {"cli": cli, "qmodel": qm, "structure": st, "engines": en,
               "reductions": rd}
    assert set(spans.SPANNED) == set(modules) == set(spans.LAYERS)
    for layer, names in spans.SPANNED.items():
        for name in names:
            assert callable(getattr(modules[layer], name, None)), (layer, name)
    assert set(spans.ENGINE_OF) <= set(spans.SPANNED["engines"])
    assert callable(en.EnumerationCursor.next)
    # the enum_bespoke wrapper reads the strategy from args[0] or kwargs
    assert next(iter(inspect.signature(en.enum_bespoke).parameters)) == "strategy"


# Public names that nothing in the package or the benchmark calls yet, each
# kept for a stated reason.
UNCALLED_BY_DESIGN = {
    "first_solution": "the planned `enumerate --limit 1` path for acyclic cores",
    "fixture_names": "the accessor of the fixture table",
}


# Method names that more than one class defines, each as Class.name: an
# attribute `.name` cannot tell such methods apart, so the test below cannot
# see one of them go unused, and each new shared name is reviewed here.
SHARED_METHODS = set()


def test_package_holds_only_called_code():
    # every public function, class, module constant and method of src/cqsj
    # is named outside its own definition by code in the package or in
    # perfbench/*.py: a method by an attribute `.name`; anything else by its
    # bare name in its own module, by `module.name` or by
    # `from ... import name`.  perfbench/spans.py also names the functions
    # it wraps in SPANNED, as (module, name).
    root = Path(__file__).resolve().parent.parent
    spans = _load_perfbench("spans")
    package = {path.stem: ast.parse(path.read_text())
               for path in sorted((root / "src" / "cqsj").glob("*.py"))}
    trees = [*package.values(),
             *(ast.parse(path.read_text()) for path in sorted((root / "perfbench").glob("*.py")))]
    named = {(layer, name) for layer, names in spans.SPANNED.items() for name in names}
    attributes = collections.Counter()
    for tree in trees:
        aliases = _module_aliases(tree, package)
        named.update(_named_in_modules(tree, aliases))
        attributes.update(_attributes(tree, aliases))
    uncalled, owners = set(), collections.defaultdict(set)
    for module, tree in package.items():
        bare, aliases = _bare_names(tree), _module_aliases(tree, package)
        for node in tree.body:
            for name in _defined_names(node):
                if (not name.startswith("_") and (module, name) not in named
                        and bare[name] == _bare_names(node)[name]):
                    uncalled.add(name)
            if not isinstance(node, ast.ClassDef):
                continue
            for method in node.body:
                if isinstance(method, ast.FunctionDef) and not method.name.startswith("_"):
                    owners[method.name].add(f"{node.name}.{method.name}")
                    if attributes[method.name] == _attributes(method, aliases)[method.name]:
                        uncalled.add(f"{node.name}.{method.name}")
    shared = {name for names in owners.values() if len(names) > 1 for name in names}
    # each name here is new, or a stale entry of the tables above
    surprises = {"uncalled": uncalled ^ set(UNCALLED_BY_DESIGN),
                 "shared methods": shared ^ SHARED_METHODS}
    assert surprises == {"uncalled": set(), "shared methods": set()}


def test_sources_parse_as_python_3_10():
    # the package declares requires-python >= 3.10; this checks syntax only
    root = Path(__file__).resolve().parent.parent
    paths = sorted(p for d in ("src", "tests", "perfbench") for p in (root / d).rglob("*.py"))
    assert len(paths) > 10
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def _package_module(node: ast.ImportFrom):
    """The package module that ``from <module> import ...`` names, "" for
    the package itself, None for anything else."""
    if node.level:
        return node.module or ""
    if node.module == "cqsj":
        return ""
    if (node.module or "").startswith("cqsj."):
        return node.module[len("cqsj."):]
    return None


def _module_aliases(tree, package: dict) -> dict:
    """Local name -> package module, for ``from cqsj import engines`` and
    ``from . import engines``."""
    return {alias.asname or alias.name: alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and _package_module(node) == ""
            for alias in node.names if alias.name in package}


def _named_in_modules(tree, aliases: dict) -> set:
    """(module, name) for each ``module.name`` and ``from module import name``."""
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _package_module(node):
            named.update((_package_module(node), a.name) for a in node.names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in aliases):
            named.add((aliases[node.value.id], node.attr))
    return named


def _attributes(tree, aliases: dict) -> collections.Counter:
    """The attribute names read off anything but a package module."""
    return collections.Counter(
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
        and not (isinstance(node.value, ast.Name) and node.value.id in aliases))


def _bare_names(tree) -> collections.Counter:
    return collections.Counter(node.id for node in ast.walk(tree) if isinstance(node, ast.Name))


def _defined_names(node) -> list:
    """The module-level names that a statement of a module body defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else (
        [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [t.id for t in targets if isinstance(t, ast.Name)]


def test_benchmark_knows_every_auto_engine_label():
    # perfbench/run.py keys its per-engine gap table by ENGINES; a label that
    # select_engine(q, "auto") returns outside it fails every traced run
    path = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
    tree = ast.parse(path.read_text())
    known = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["ENGINES"])
    fallback, _ = cli.select_engine(fx.fixture("triangle"), "auto")
    labels = (*cli.ENGINES, fallback)
    assert set(AUTO_ENGINE.values()) <= set(labels)
    for label in labels:
        assert label.split(":")[-1] in known, label
