"""Query and database model: types, text formats, structural accessors.

Queries are conjunctions of relational atoms over variables, with an ordered
list of free (output) variables; everything else is existentially quantified.
Databases are finite sets of facts whose values are either atomic tokens or
tagged pairs ``pair(data, var)``.  Both are immutable after construction and
safe to share across threads.
"""

from __future__ import annotations

import os
import re
from typing import Iterable, NamedTuple, Sequence, Union

DEFAULT_MAX_VARS = 32
DEFAULT_MAX_ATOMS = 32
MAX_PAIR_DEPTH = 64  # each encoding-trick pass nests pair( one level deeper

class QueryModelError(Exception):
    """Base class for model-level errors."""


class ParseError(QueryModelError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class ArityMismatchError(QueryModelError):
    pass


class LimitExceededError(QueryModelError):
    pass


def max_vars_limit() -> int:
    """Structural size limit; CQSJ_MAX_VARS overrides the default."""
    raw = os.environ.get("CQSJ_MAX_VARS")
    if raw is None:
        return DEFAULT_MAX_VARS
    try:
        limit = int(raw)
    except ValueError:
        limit = 0
    if limit < 1:
        raise QueryModelError(f"CQSJ_MAX_VARS must be a positive integer, got {raw!r}")
    return limit


class Pair(NamedTuple):
    """A tagged value ``pair(data, var)``; data nests up to MAX_PAIR_DEPTH deep."""

    data: "Value"
    var: str


Value = Union[str, Pair]


def serialize_value(value: Value) -> str:
    if isinstance(value, Pair):
        return f"pair({serialize_value(value.data)},{value.var})"
    return value


class RelationSymbol(NamedTuple):
    name: str
    arity: int


class _AtomFields(NamedTuple):
    symbol: RelationSymbol
    args: tuple  # tuple[str, ...], repeats allowed


class Atom(_AtomFields):
    __slots__ = ()

    def __new__(cls, symbol: RelationSymbol, args: tuple):
        if len(args) != symbol.arity:
            raise ArityMismatchError(
                f"atom {symbol.name} expects {symbol.arity} args, got {len(args)}"
            )
        return super().__new__(cls, symbol, args)

    @property
    def var_set(self) -> frozenset:
        return frozenset(self.args)

    def rename(self, mapping: dict) -> "Atom":
        return Atom(self.symbol, tuple(mapping.get(v, v) for v in self.args))

    def __str__(self) -> str:
        return f"{self.symbol.name}({','.join(self.args)})"


class _QueryFields(NamedTuple):
    atoms: tuple  # tuple[Atom, ...], sorted, no duplicates
    free_vars: tuple  # tuple[str, ...], no duplicates


class Query(_QueryFields):
    """A conjunctive query.

    ``atoms`` are kept sorted and deduplicated (set semantics); ``free_vars``
    is the ordered output tuple.  A query is *full* when every variable is
    free and *Boolean* when none is.
    """

    __slots__ = ()

    def __new__(cls, atoms: tuple, free_vars: tuple):
        atoms = tuple(sorted(set(atoms)))
        seen_arities = {}
        for a in atoms:
            prev = seen_arities.setdefault(a.symbol.name, a.symbol.arity)
            if prev != a.symbol.arity:
                raise ArityMismatchError(
                    f"symbol {a.symbol.name} used with arities {prev} and {a.symbol.arity}"
                )
        self = super().__new__(cls, atoms, free_vars)
        if len(set(free_vars)) != len(free_vars):
            raise QueryModelError("duplicate free variable")
        missing = set(free_vars) - set(self.all_vars)
        if missing:
            raise QueryModelError(f"free variables not in any atom: {sorted(missing)}")
        return self

    @property
    def all_vars(self) -> tuple:
        """All variables, sorted."""
        out = set()
        for a in self.atoms:
            out.update(a.args)
        return tuple(sorted(out))

    @property
    def is_full(self) -> bool:
        return set(self.free_vars) == set(self.all_vars)

    @property
    def is_boolean(self) -> bool:
        return len(self.free_vars) == 0

    @property
    def arity(self) -> int:
        return len(self.free_vars)

    def __str__(self) -> str:
        return serialize_query(self)


def make_query(atoms: Iterable[Atom], free_vars: Iterable[str]) -> Query:
    return Query(tuple(atoms), tuple(free_vars))


class Database:
    """A finite relational instance; duplicate facts collapse.

    Each relation is one dict of facts, a set that keeps first-insertion
    order, so every consumer iterates deterministically regardless of hash
    seeds.
    """

    def __init__(self):
        self._facts: dict = {}  # name -> insertion-ordered dict of value tuples
        self._arities: dict = {}

    def add_fact(self, name: str, values: Sequence[Value]) -> None:
        values = tuple(values)
        known = self._arities.get(name)
        if known is None:
            self._arities[name] = len(values)
            self._facts[name] = {}
        elif known != len(values):
            raise ArityMismatchError(
                f"fact {name}/{len(values)} conflicts with earlier arity {known}"
            )
        self._facts[name].setdefault(values, None)

    def facts(self, name: str):
        """The relation's facts in first-insertion order, as a read-only view."""
        return self._facts.get(name, {}).keys()

    def check_arities(self, read: dict) -> None:
        """Each relation of ``read`` (name -> arity) has that arity here or
        is absent, which makes it empty; relations not read are ignored."""
        for name, arity in read.items():
            known = self._arities.get(name)
            if known not in (None, arity):
                raise ArityMismatchError(f"relation {name} has arity {known} in the "
                                         f"database but {arity} in the query")

    @property
    def symbols(self) -> list:
        return sorted(self._arities)

    @property
    def size(self) -> int:
        return sum(len(rows) for rows in self._facts.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Database):
            return NotImplemented
        return self._facts == other._facts  # dict equality ignores order

    def __repr__(self) -> str:
        return f"Database({self.size} facts, {len(self._facts)} relations)"


AnswerTuple = tuple  # tuple[Value, ...] aligned with a query's free_vars


# -- parsing ---------------------------------------------------------------


_SKIP = re.compile(r"(?:\s+|%[^\n]*)*")  # whitespace and % comments
_RELATION = re.compile(r"[A-Z][A-Za-z0-9_]*")
_VARIABLE = re.compile(r"[a-z][A-Za-z0-9_]*")
_VALUE = re.compile(r"[a-z0-9_#]+")


class _Scanner:
    """Cursor over the text that skips whitespace and ``%`` comments before
    every token; line and column are worked out only for an error."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> str:
        """The next character after whitespace and comments, or ''."""
        self.pos = _SKIP.match(self.text, self.pos).end()
        return self.text[self.pos:self.pos + 1]

    def error(self, message: str) -> ParseError:
        line = self.text.count("\n", 0, self.pos) + 1
        return ParseError(message, line, self.pos - self.text.rfind("\n", 0, self.pos))

    def accept(self, literal: str) -> bool:
        self.peek()
        if not self.text.startswith(literal, self.pos):
            return False
        self.pos += len(literal)
        return True

    def expect(self, literal: str) -> None:
        if not self.accept(literal):
            raise self.error(f"expected {literal!r}")

    def token(self, pattern: re.Pattern, what: str) -> str:
        self.peek()
        m = pattern.match(self.text, self.pos)
        if not m:
            raise self.error(f"expected {what}")
        self.pos = m.end()
        return m.group()


def _bracketed(sc: _Scanner, item) -> list:
    """``(item, ..., item)``, possibly empty; ``item`` parses one element."""
    sc.expect("(")
    items = []
    if not sc.accept(")"):
        items.append(item(sc))
        while sc.accept(","):
            items.append(item(sc))
        sc.expect(")")
    return items


def _variable(sc: _Scanner) -> str:
    return sc.token(_VARIABLE, "variable")


def parse_query(text: str) -> Query:
    """Parse ``Head(v1,...,vk) :- A1, ..., Am.`` into a Query.

    Head arguments become the free variables; a repeated head variable is an
    error, as is reusing a relation name with two different arities.
    """
    sc = _Scanner(text)
    sc.token(_RELATION, "head relation name")
    free = _bracketed(sc, _variable)
    if len(set(free)) != len(free):
        raise sc.error("duplicate head variable")
    sc.expect(":-")
    atoms = []
    arities: dict = {}
    while True:
        name = sc.token(_RELATION, "relation name")
        args = _bracketed(sc, _variable)
        prev = arities.setdefault(name, len(args))
        if prev != len(args):
            raise sc.error(f"symbol {name} reappears with arity {len(args)} (was {prev})")
        atoms.append(Atom(RelationSymbol(name, len(args)), tuple(args)))
        if not sc.accept(","):
            break
    sc.expect(".")
    if sc.peek():
        raise sc.error("trailing input after query")
    body_vars = set()
    for a in atoms:
        body_vars.update(a.args)
    loose = set(free) - body_vars
    if loose:
        raise sc.error(f"head variables not used in body: {sorted(loose)}")
    limit = max_vars_limit()
    over = [f"{n} {what} > {cap}" for n, what, cap in (
        (len(body_vars), "vars", limit),
        (len(set(atoms)), "distinct atoms", max(limit, DEFAULT_MAX_ATOMS))) if n > cap]
    if over:
        raise LimitExceededError(f"query exceeds size limit ({', '.join(over)})")
    return Query(tuple(atoms), tuple(free))


def _parse_value(sc: _Scanner, depth: int = 0) -> Value:
    """One fact value; ``depth`` counts the ``pair(`` values around it."""
    if sc.accept("pair("):
        if depth == MAX_PAIR_DEPTH:
            sc.pos -= len("pair(")
            raise sc.error(f"pair( nested deeper than {MAX_PAIR_DEPTH}")
        data = _parse_value(sc, depth + 1)
        sc.expect(",")
        var = sc.token(_VARIABLE, "variable tag")
        sc.expect(")")
        return Pair(data, var)
    return sc.token(_VALUE, "value token")


def parse_database(text: str) -> Database:
    """Parse fact lines ``R(v1,...,vk).`` into a Database."""
    sc = _Scanner(text)
    db = Database()
    while sc.peek():
        name = sc.token(_RELATION, "relation name")
        values = _bracketed(sc, _parse_value)
        sc.expect(".")
        try:
            db.add_fact(name, values)
        except ArityMismatchError as exc:
            raise sc.error(str(exc)) from exc
    return db


# -- serialization ---------------------------------------------------------


def serialize_query(query: Query) -> str:
    body = ", ".join(str(a) for a in query.atoms)
    return f"Q({','.join(query.free_vars)}) :- {body}."


def serialize_database(db: Database) -> str:
    lines = []
    for name in sorted(db.symbols):
        rows = sorted(db.facts(name), key=lambda row: tuple(serialize_value(v) for v in row))
        for row in rows:
            lines.append(f"{name}({','.join(serialize_value(v) for v in row)}).")
    return "\n".join(lines) + ("\n" if lines else "")


def serialize_answer(answer: AnswerTuple) -> str:
    return ", ".join(serialize_value(v) for v in answer)
