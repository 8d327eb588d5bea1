"""Seeded input generators owned by the benchmark.

Nothing here imports cqsj: the program under test receives only the files
these functions produce, so two commits given the same seed read the same
bytes (see ``digest``).
"""

from __future__ import annotations

import hashlib
import random
import re


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def graph_facts(rng: random.Random, nodes: int, degree: int = 2,
                red_frac: float = 0.0, loops: int = 0) -> list:
    """R edges of a random digraph in which every vertex has in- and
    out-degree ``degree`` (a union of random permutations, self-loops
    dropped), plus ``loops`` R self-loops and P marks on ``red_frac`` of the
    vertices.

    Fixed degrees keep answer counts steady from seed to seed: with
    Poisson degrees the spiked ring patterns multiply several degrees per
    answer, and at 1k facts ``ring8_spikes`` gave between 1k and 86k
    answers depending on the seed.
    """
    names = [f"v{i}" for i in range(nodes)]
    edges = {}
    for _ in range(degree):
        perm = list(range(nodes))
        rng.shuffle(perm)
        for u, v in enumerate(perm):
            if u != v:
                edges.setdefault((u, v))
    for u in rng.sample(range(nodes), loops):
        edges.setdefault((u, u))
    order = list(edges)
    rng.shuffle(order)
    facts = [("R", (names[u], names[v])) for u, v in order]
    facts.extend(("P", (names[i],)) for i in sorted(rng.sample(range(nodes), round(red_frac * nodes))))
    return facts


def planted_facts(rng: random.Random, rule: str, matches: int, nodes: int,
                  noise: int) -> list:
    """A small {R/2, P/1, S/3} instance for one random query: the query's
    atoms under ``matches`` random assignments of its variables, plus
    ``noise`` random R facts (duplicates collapse).

    The first head variable takes a different value in every planted match,
    so the query has at least ``matches`` distinct answers: a ``--limit``
    up to that count then stops early instead of searching the whole
    instance.
    """
    names = [f"v{i}" for i in range(nodes)]
    head = rule[rule.index("(") + 1:rule.index(")")].split(",")
    atoms = [(a.split("(")[0], a.split("(")[1].rstrip(")").split(","))
             for a in rule.split(":-")[1].strip().rstrip(".").split(", ")]
    variables = sorted({v for _, args in atoms for v in args})
    firsts = rng.sample(names, matches)
    facts = {}
    for first in firsts:
        env = {v: names[rng.randrange(nodes)] for v in variables}
        env[head[0]] = first
        for name, args in atoms:
            facts.setdefault((name, tuple(env[v] for v in args)))
    for _ in range(noise):
        facts.setdefault(("R", (names[rng.randrange(nodes)], names[rng.randrange(nodes)])))
    out = list(facts)
    rng.shuffle(out)
    return out


def facts_text(facts: list) -> str:
    return "".join(f"{name}({','.join(args)}).\n" for name, args in facts)


_SCHEMA = (("R", 2, 0.6), ("P", 1, 0.15), ("S", 3, 0.25))


def random_query(rng: random.Random, tree: bool, min_atoms: int = 4,
                 max_atoms: int = 10) -> str:
    """A connected self-join query over R/2, P/1 and S/3, as rule text.

    With ``tree`` every atom after the first shares exactly one variable
    with the earlier ones, and that variable occurs in at most two earlier
    atoms.  The query is then acyclic and its head is every variable.
    Without the cap, a star of R atoms around one variable has tens of
    thousands of endomorphisms, and one such query took 0.8 s to classify.

    Otherwise each atom shares at least one variable with the earlier ones,
    new variables stop at ten, and the head is every variable or, half of
    the time, a random non-empty proper subset.
    """
    target = rng.randint(min_atoms, max_atoms)
    while True:
        variables = ["x0"]
        atoms = []
        while len(atoms) < target:
            r = rng.random()
            for name, arity, weight in _SCHEMA:
                r -= weight
                if r < 0:
                    break
            if tree:
                uses = {v: sum(a[2:-1].split(",").count(v) for a in atoms)
                        for v in variables}
                hubs = [v for v in variables if uses[v] < 3]
                args = [hubs[rng.randrange(len(hubs))]]
            else:
                args = [variables[rng.randrange(len(variables))]]
            for _ in range(arity - 1):
                if tree or (rng.random() < 0.5 and len(variables) < 10):
                    variables.append(f"x{len(variables)}")
                    args.append(variables[-1])
                else:
                    args.append(variables[rng.randrange(len(variables))])
            rng.shuffle(args)
            atom = f"{name}({','.join(args)})"
            if atom not in atoms:
                atoms.append(atom)
        used = sorted({v for a in atoms for v in a[2:-1].split(",")},
                      key=lambda v: int(v[1:]))
        if len(used) >= 2:
            break
    if tree or rng.random() < 0.5:
        head = used
    else:
        head = sorted(rng.sample(used, rng.randint(1, len(used) - 1)),
                      key=lambda v: int(v[1:]))
    return f"Q({','.join(head)}) :- {', '.join(atoms)}.\n"


def relabel_graph(rng: random.Random, text: str) -> str:
    """The same graph with its vertices renamed and its edge lines shuffled.

    Names are permuted among those with the same letter prefix, so a
    ``#parts`` header stays valid.  The graph, and so the answers of a
    gadget built from it, are the same for every ``rng``; only the values
    and the order of the facts change.
    """
    groups: dict = {}
    for name in sorted(set(re.findall(r"[a-z]+[0-9]+", text))):
        groups.setdefault(name.rstrip("0123456789"), []).append(name)
    rename = {}
    for names in groups.values():
        shuffled = names[:]
        rng.shuffle(shuffled)
        rename.update(zip(names, shuffled))
    lines = text.splitlines(keepends=True)
    edges = [line for line in lines if not line.startswith("#")]
    rng.shuffle(edges)
    return "".join(re.sub(r"[a-z]+[0-9]+", lambda m: rename[m.group(0)], line)
                   for line in [*(x for x in lines if x.startswith("#")), *edges])


def tripartite_text(rng: random.Random, n_u: int, n_v: int, n_w: int,
                    edges_per_side: int) -> str:
    """``edges_per_side`` random U->V, V->W and W->U edges each, with a
    parts header."""
    us = [f"u{i}" for i in range(n_u)]
    vs = [f"v{i}" for i in range(n_v)]
    ws = [f"w{i}" for i in range(n_w)]
    lines = [f"#parts U:{','.join(us)} V:{','.join(vs)} W:{','.join(ws)}\n"]
    for a_side, b_side in ((us, vs), (vs, ws), (ws, us)):
        pairs = [(a, b) for a in a_side for b in b_side]
        lines.extend(f"{a} {b}\n" for a, b in rng.sample(pairs, edges_per_side))
    return "".join(lines)
