"""Query/database model: parsing, serialization, structural accessors."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FUZZ_TEXT
from cqsj import fixtures as fx
from cqsj.qmodel import (
    MAX_PAIR_DEPTH,
    ArityMismatchError,
    Atom,
    Database,
    LimitExceededError,
    Pair,
    ParseError,
    Query,
    QueryModelError,
    RelationSymbol,
    parse_database,
    parse_query,
    serialize_answer,
    serialize_database,
    serialize_query,
)


def test_parse_marked_diamond():
    q = parse_query("Q(x,y,z,u) :- R(x,y), R(y,z), R(x,u), R(u,z), P(y).")
    assert q.free_vars == ("x", "y", "z", "u")
    assert len(q.atoms) == 5
    assert q.is_full
    assert q == fx.fixture("diamond_red")


def test_parse_projected_path():
    q = parse_query("Q(x,z) :- R(x,y), S(y,z).")
    assert q.free_vars == ("x", "z")
    assert set(q.all_vars) == {"x", "y", "z"}
    assert not q.is_full


def test_parse_boolean_self_loop():
    q = parse_query("Q() :- R(x,x).")
    assert q.is_boolean
    assert len(q.atoms) == 1
    assert q.atoms[0].args == ("x", "x")


def test_parse_comments_and_whitespace():
    q = parse_query("% header\nQ(x,y) :- % inline\n  R(x,y).\n% trailing\n")
    assert q.free_vars == ("x", "y")


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_query("Q(x) :- R(x,)")
    assert err.value.line >= 1 and err.value.column >= 1


@pytest.mark.parametrize("parse, text, message", [
    (parse_query, "% head\nQ(x) :-\n  R(x,).", "expected variable (line 3, column 7)"),
    (parse_database, "R(a,b).\n% c\nR(b,c). R(a).\n",
     "fact R/1 conflicts with earlier arity 2 (line 3, column 14)"),
], ids=["query", "facts"])
def test_parse_error_exact_position(parse, text, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == message
    assert f"(line {err.value.line}, column {err.value.column})" in message


@given(FUZZ_TEXT)
@settings(deadline=None)
def test_parse_arbitrary_text_fails_only_with_parse_errors(text):
    try:
        q = parse_query(text)
    except (ParseError, LimitExceededError):
        pass
    else:
        assert parse_query(serialize_query(q)) == q
    try:
        db = parse_database(text)
    except ParseError:
        pass
    else:
        assert parse_database(serialize_database(db)) == db


def test_arity_mismatch_rejected():
    with pytest.raises(ParseError):
        parse_query("Q(x) :- R(x,y), R(x).")


def test_duplicate_head_variable_rejected():
    with pytest.raises(ParseError):
        parse_query("Q(x,x) :- R(x,y).")


def test_head_variable_must_occur_in_body():
    with pytest.raises(ParseError):
        parse_query("Q(x,w) :- R(x,y).")


def test_duplicate_atoms_collapse():
    q = parse_query("Q(x,y) :- R(x,y), R(x,y).")
    assert len(q.atoms) == 1


def test_parse_database_basics():
    db = parse_database("R(a,b). R(b,c).")
    assert db.size == 2
    assert list(db.facts("R")) == [("a", "b"), ("b", "c")]


def test_parse_database_worked_colors():
    db = parse_database("Blue(a,b). Red(b,c). Orange(a,d). Green(d,c).")
    assert db.size == 4
    assert db.symbols == ["Blue", "Green", "Orange", "Red"]


def test_parse_pair_values_round_trip():
    db = parse_database("R(pair(a,x), pair(b,u)).")
    assert db.size == 1
    (row,) = db.facts("R")
    assert row == (Pair("a", "x"), Pair("b", "u"))
    assert parse_database(serialize_database(db)) == db


def test_parse_nested_pairs_round_trip():
    db = parse_database("R(pair(pair(a,x),y), b).")
    (row,) = db.facts("R")
    assert row == (Pair(Pair("a", "x"), "y"), "b")
    assert parse_database(serialize_database(db)) == db


def test_parse_pair_nesting_is_capped():
    deepest = "R(" + "pair(" * MAX_PAIR_DEPTH + "a" + ",x)" * MAX_PAIR_DEPTH + ")."
    assert parse_database(deepest).size == 1
    with pytest.raises(ParseError) as err:
        parse_database("R(" + "pair(" * 5000 + "a" + ",x)" * 5000 + ").")
    # reported at the first pair( past the cap
    assert (err.value.line, err.value.column) == (1, 3 + 5 * MAX_PAIR_DEPTH)


def test_duplicate_facts_collapse():
    db1 = parse_database("R(a,b). R(a,b). R(b,c).")
    db2 = parse_database("R(a,b). R(b,c).")
    assert db1 == db2 and db1.size == 2


def test_fact_arity_mismatch():
    with pytest.raises(ParseError):
        parse_database("R(a,b). R(a).")


def test_atom_and_query_checks():
    r = RelationSymbol("R", 2)
    with pytest.raises(ArityMismatchError, match="^atom R expects 2 args, got 1$"):
        Atom(r, ("x",))
    xy, yz = Atom(r, ("x", "y")), Atom(r, ("y", "z"))
    q = Query((yz, xy, yz), ("x",))
    assert q.atoms == (xy, yz) and q == Query([xy, yz], ("x",))
    with pytest.raises(ArityMismatchError, match="^symbol R used with arities 2 and 3$"):
        Query((xy, Atom(RelationSymbol("R", 3), ("x", "y", "z"))), ())
    with pytest.raises(QueryModelError, match="^duplicate free variable$"):
        Query((xy,), ("x", "x"))
    with pytest.raises(QueryModelError, match=r"^free variables not in any atom: \['w'\]$"):
        Query((xy,), ("x", "w"))


def test_check_arities():
    db = parse_database("R(a,b,c). S(a).")
    # an absent relation is empty; a relation not read is not checked
    db.check_arities({"R": 3, "P": 1})
    with pytest.raises(ArityMismatchError,
                       match="^relation R has arity 3 in the database but 2 in the query$"):
        db.check_arities({"S": 1, "R": 2})


def test_query_round_trip_all_fixtures():
    for name in fx.fixture_names():
        q = fx.fixture(name)
        assert parse_query(serialize_query(q)) == q


def test_answer_serialization():
    ans = (Pair("a", "x"), Pair("b", "u"), Pair("c", "y"), Pair("d", "v"))
    assert serialize_answer(ans) == "pair(a,x), pair(b,u), pair(c,y), pair(d,v)"
    assert serialize_answer(()) == ""


@given(st.lists(st.tuples(st.sampled_from("RST"),
                          st.lists(st.sampled_from("abcdxyz"), min_size=1,
                                   max_size=3)),
                min_size=1, max_size=12))
@settings(max_examples=120, deadline=None)
def test_database_round_trip_random(facts):
    db = Database()
    arities = {}
    for name, values in facts:
        if arities.setdefault(name, len(values)) != len(values):
            continue
        db.add_fact(name, tuple(values))
    assert parse_database(serialize_database(db)) == db


def test_size_limit(monkeypatch):
    monkeypatch.setenv("CQSJ_MAX_VARS", "3")
    with pytest.raises(LimitExceededError):
        parse_query("Q(a,b,c,d) :- R(a,b), R(c,d).")
    monkeypatch.delenv("CQSJ_MAX_VARS")
    parse_query("Q(a,b,c,d) :- R(a,b), R(c,d).")


def test_size_limit_message_names_what_it_compared(monkeypatch):
    # 33 distinct atoms over 12 variables, the first listed twice: the atom
    # limit counts distinct atoms and is never below 32, whatever the
    # variable limit
    pairs = [(i, j) for i in range(12) for j in range(i + 1, 12)][:33]
    body = ", ".join(f"R(x{i},x{j})" for i, j in [pairs[0], *pairs])
    text = f"Q(x0) :- {body}."
    for limit, over in ((None, "33 distinct atoms > 32"), ("12", "33 distinct atoms > 32"),
                        ("11", "12 vars > 11, 33 distinct atoms > 32")):
        if limit is None:
            monkeypatch.delenv("CQSJ_MAX_VARS", raising=False)
        else:
            monkeypatch.setenv("CQSJ_MAX_VARS", limit)
        with pytest.raises(LimitExceededError) as exc:
            parse_query(text)
        assert str(exc.value) == f"query exceeds size limit ({over})", limit
    monkeypatch.setenv("CQSJ_MAX_VARS", "33")
    assert len(set(parse_query(text).atoms)) == 33
