"""Independent answer computation for checking the program's output.

A plain backtracking join with one hash index per atom on the positions
already bound when the atom is reached.  It reads the same text formats the
program reads but shares no code with ``cqsj``: values stay in their
serialized form (``v3``, ``pair(v3,x)``), so answers compare directly with
the lines ``cqsj enumerate`` prints.
"""

from __future__ import annotations

import re

_VALUE = r"pair\((?:[^()]|\([^()]*\))*\)|[a-z0-9_#]+"
_FACT = re.compile(r"\s*([A-Z][A-Za-z0-9_]*)\(([^\n]*)\)\.\s*$")
_VALUE_RE = re.compile(_VALUE)
_ATOM = re.compile(r"([A-Z][A-Za-z0-9_]*)\(([^()]*)\)")


def parse_facts(text: str) -> dict:
    """Relation name -> list of distinct value tuples, in file order."""
    rels: dict = {}
    seen = set()
    for line in text.splitlines():
        if not line.strip():
            continue
        m = _FACT.match(line)
        if m is None:
            raise ValueError(f"unreadable fact line {line!r}")
        values = tuple(_VALUE_RE.findall(m.group(2)))
        key = (m.group(1), values)
        if key not in seen:
            seen.add(key)
            rels.setdefault(m.group(1), []).append(values)
    return rels


def parse_rule(text: str):
    """(head variables, [(relation, args), ...]) of ``Q(..) :- A1, ..., An.``"""
    head, body = text.split(":-")
    atoms = [(name, tuple(a.strip() for a in args.split(",") if a.strip()))
             for name, args in _ATOM.findall(body)]
    head_vars = tuple(a.strip() for a in _ATOM.findall(head)[0][1].split(",") if a.strip())
    return head_vars, atoms


def _plan(atoms, bound):
    """Greedy order: next is the atom sharing most variables with those bound."""
    remaining = sorted(set(atoms))
    order, bound = [], set(bound)
    while remaining:
        best = max(remaining, key=lambda a: (len(set(a[1]) & bound), -len(a[1])))
        remaining.remove(best)
        order.append(best)
        bound.update(best[1])
    return order


def answers(rule_text: str, rels: dict, limit=None, fixed=None) -> set:
    """Distinct answer tuples (head order); stops once ``limit`` are found.

    ``fixed`` pins some variables to values before the search starts.
    """
    head, atoms = parse_rule(rule_text)
    fixed = fixed or {}
    steps = []
    bound = set(fixed)
    for name, args in _plan(atoms, bound):
        key_pos = [i for i, v in enumerate(args) if v in bound]
        index: dict = {}
        for row in rels.get(name, ()):
            if len(row) != len(args):
                raise ValueError(f"{name} has arity {len(row)}, query uses {len(args)}")
            # rows must agree with repeated variables inside the atom
            local: dict = {}
            if all(local.setdefault(v, x) == x for v, x in zip(args, row)):
                index.setdefault(tuple(row[i] for i in key_pos), []).append(row)
        new = [(i, v) for i, v in enumerate(args) if v not in bound and
               args.index(v) == i]
        steps.append(([args[i] for i in key_pos], new, index))
        bound.update(args)

    out: set = set()
    env: dict = dict(fixed)

    def search(k: int) -> bool:
        if k == len(steps):
            out.add(tuple(env[v] for v in head))
            return limit is not None and len(out) >= limit
        key_vars, new, index = steps[k]
        for row in index.get(tuple(env[v] for v in key_vars), ()):
            for i, v in new:
                env[v] = row[i]
            if search(k + 1):
                return True
        return False

    search(0)
    return out


def answer_line(answer: tuple) -> str:
    return ", ".join(answer)
