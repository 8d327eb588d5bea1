"""cqsj command line: classify | enumerate | verify | bench-delay | gadget.

Exit codes: 0 success, 1 verification failure, 2 input error, 3 inapplicable
engine.  Every command is deterministic for fixed inputs; bench-delay draws
its databases from --seed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from pathlib import Path

from . import engines, fixtures, reductions, structure
from .qmodel import (
    Database,
    Query,
    QueryModelError,
    parse_database,
    parse_query,
    serialize_answer,
    serialize_database,
    serialize_query,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT = 2
EXIT_INAPPLICABLE = 3


class InputError(Exception):
    pass


class InapplicableEngineError(Exception):
    pass


def _load(path: str, parse, what: str):
    """``parse`` applied to the text of the file at ``path``."""
    try:
        return parse(Path(path).read_text())
    except (OSError, UnicodeDecodeError, QueryModelError) as exc:
        raise InputError(f"cannot load {what} {path}: {exc}") from exc


def _load_checked(args) -> tuple:
    """The query and the database that ``args`` name, the database checked
    to hold every relation the query reads at the query's arity."""
    query = _load(args.query, parse_query, "query")
    db = _load(args.db, parse_database, "database")
    db.check_arities({a.symbol.name: a.symbol.arity for a in query.atoms})
    return query, db


# -- engine selection -----------------------------------------------------------


# The engines auto tries, in order, with the verdict each one's cursors
# realise: full acyclic (Thm 2.2), mirror (Prop 5.2), untangle (Prop 4.3) and
# the bespoke strategies.  The generic join of --engine oracle promises none.
ENGINES = {**dict.fromkeys(("acyclic", "mirror", "bespoke:SPIKE_Q2", "bespoke:SPIKE_Q3"),
                           structure.V_CONSTANT),
           **dict.fromkeys(("untangle", "bespoke:TWO_LOOPS", "bespoke:TWO_TRIANGLES"),
                           structure.V_LINEAR_DELAY)}


def select_engine(query: Query, engine: str):
    """Resolve an engine name to its label and a cursor factory.  A name
    other than auto, oracle or a key of ENGINES is an input error, raised
    before any analysis.  Every engine, auto included, reads one structural
    analysis of the query's minimal form and runs on that form, which has
    the query's answers in its head order.  Auto picks the first engine of
    ENGINES whose explicit selection applies, else the generic join."""
    if engine not in ENGINES and engine not in ("auto", "oracle"):
        raise InputError(f"unknown engine {engine}")
    analysis = structure.Analysis(query)
    if engine != "auto":
        return _engine(analysis, engine)
    for name in ENGINES:
        try:
            return _engine(analysis, name)
        except InapplicableEngineError:
            pass
    print("warning: no specialised engine applies, falling back to the generic join",
          file=sys.stderr)
    return _engine(analysis, "oracle")


def _engine(analysis: structure.Analysis, engine: str):
    query = analysis.analyzed
    if engine in ("mirror", "untangle") and not analysis.images_computed:
        raise InapplicableEngineError(f"images not computed (more than "
                                      f"{structure.MAX_HOM_RESULTS} endomorphisms)")
    if engine == "oracle":
        return "oracle", lambda db: engines.generic_join_cursor(query, db)
    if engine == "acyclic":
        if not (query.is_full and analysis.acyclic):
            raise InapplicableEngineError("query is not full acyclic")
        return "acyclic", lambda db: engines.enum_full_acyclic(query, db)
    if engine == "mirror":
        witness = analysis.mirror
        if witness is None:
            raise InapplicableEngineError("query is not a mirror")
        return "mirror", lambda db: engines.enum_mirror(query, witness, db)
    if engine == "untangle":
        status, witness = analysis.untangling
        if status != "yes":
            raise InapplicableEngineError(f"query is not untangleable ({status})")
        return "untangle", lambda db: engines.enum_untangle(query, witness, db)
    strategy = engine.split(":", 1)[1]  # the bespoke:<ID> rows of ENGINES
    spec = engines.BESPOKE_STRATEGIES[strategy]
    if analysis.fixture_name != spec.fixture:
        raise InapplicableEngineError(f"query is not the {strategy} pattern")
    # where each free variable of the query sits in the pattern's head
    iso = analysis.registry_entry["iso"]
    at = {iso[v]: i for i, v in enumerate(fixtures.fixture(spec.fixture).free_vars)}
    positions = [at[v] for v in query.free_vars]
    return engine, lambda db: engines.reorder_answers(
        engines.enum_bespoke(strategy, db), positions)


# -- subcommands ------------------------------------------------------------------


def cmd_classify(args) -> int:
    if args.budget < 0:
        raise InputError("--budget must not be negative")
    query = _load(args.query, parse_query, "query")
    report = structure.classify(query, untangle_budget=args.budget)
    if args.json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
        return EXIT_OK
    analyzed = report.analyzed
    print(f"query: {serialize_query(analyzed)}")
    if report.minimized:
        print("note: input was not minimal; verdicts apply to the minimal form")
    if report.fixture_name:
        print(f"pattern: {report.fixture_name}")
    print(f"full: {analyzed.is_full}  boolean: {analyzed.is_boolean}  "
          f"unary: {analyzed.arity == 1}  binary: {analyzed.arity == 2}")
    print(f"acyclic: {report.acyclic}  free-connex: {report.free_connex}  "
          "minimal: True")
    print(f"core: {serialize_query(report.core)}  (acyclic: {report.core_acyclic})")
    if report.full_core is not None:
        print(f"full-core: {serialize_query(report.full_core)}")
    if not report.images_computed:
        print(f"images: {structure.NOT_COMPUTED} (more than "
              f"{structure.MAX_HOM_RESULTS} endomorphisms)")
        print(f"mirror: {structure.NOT_COMPUTED}")
    else:
        if report.images:
            print(f"images: {len(report.images)}")
        print(f"mirror: {'yes' if report.mirror else 'no'}")
    print(f"untangleable: {report.untangleable}")
    for v in report.verdicts:
        qualifier = "" if v.assumption == "none" else f"{v.assumption}; "
        print(f"  {v.problem}: {v.verdict} ({qualifier}{v.citation})")
    return EXIT_OK


def cmd_enumerate(args) -> int:
    if args.limit is not None and args.limit < 0:
        raise InputError("--limit must not be negative")
    query, db = _load_checked(args)
    name, factory = select_engine(query, args.engine)
    cursor = factory(db)
    write = sys.stdout.write
    emitted = 0
    while True:
        if args.limit is not None and emitted >= args.limit:
            break
        item = cursor.next()
        if item is None:
            break
        try:
            line = ", ".join(item)  # plain tokens
        except TypeError:  # the answer holds a Pair
            line = serialize_answer(item)
        write(line + "\n")
        emitted += 1
    if args.stats:
        stats = {"engine": name, "guarantee": ENGINES.get(name), "answers": emitted,
                 "preprocessing_ticks": cursor.preprocessing_ticks,
                 "ticks": cursor.ticker.count}
        print(json.dumps(stats, sort_keys=True), file=sys.stderr)
    return EXIT_OK


def cmd_verify(args) -> int:
    query, db = _load_checked(args)
    name, factory = select_engine(query, args.engine)
    got = list(factory(db))
    want = engines.oracle_enumerate(query, db)
    dupes = len(got) - len(set(got))
    missing = want - set(got)
    extra = set(got) - want
    if not missing and not extra and not dupes:
        print(f"PASS {name}: {len(want)} answers match the oracle")
        return EXIT_OK
    print(f"FAIL {name}: {len(got)} emitted vs {len(want)} expected "
          f"({dupes} duplicates)")
    for label, group in (("missing", missing), ("extra", extra)):
        # answers may mix plain tokens and pairs, which do not compare
        for item in sorted(group, key=serialize_answer)[:5]:
            print(f"  {label}: {serialize_answer(item)}")
    return EXIT_VERIFY_FAIL


def _bench_db(gen: str, size: int, seed: int, marked: bool) -> Database:
    # edge count tracks the requested fact count; node count keeps the
    # instances sparse so answer sets stay near-linear.  Marked nodes P are
    # drawn whenever the query reads P, on the loops graph too.
    loops = size // 50 if gen == "digraph-loops" else 0
    graph = reductions.gen_random_graph(max(4, size // 2), size - loops, seed)
    red = ()
    if marked:
        rng = random.Random(seed + 1)
        red = [v for v in graph.vertices if rng.random() < 0.05]
    db = reductions.graph_to_db(graph, red=red)
    rng = random.Random(seed + 2)
    for _ in range(loops):
        v = graph.vertices[rng.randrange(len(graph.vertices))]
        db.add_fact("R", (v, v))
    return db


def _default_generator(query: Query) -> str:
    uses_red = any(a.symbol.name == "P" for a in query.atoms)
    has_loop_atom = any(len(set(a.args)) == 1 and a.symbol.arity == 2
                        for a in query.atoms)
    if has_loop_atom:
        return "digraph-loops"
    return "digraph-red" if uses_red else "digraph"


def cmd_bench_delay(args) -> int:
    if min(args.sizes) < 1:
        raise InputError("--sizes must be positive")
    query = _load(args.query, parse_query, "query")
    gen = _default_generator(query)
    needed = {a.symbol.name: a.symbol.arity for a in query.atoms}
    if not needed.keys() <= {"R", "P"}:
        raise InputError(f"generator {gen} cannot feed schema {sorted(needed)}")
    # the arities the generators write, R/2 and P/1, read off a one-edge
    # instance: a size's database may lack P, which would pass any arity
    schema = reductions.graph_to_db(reductions.make_graph([("u", "v")]), red=["u"])
    schema.check_arities(needed)
    name, factory = select_engine(query, args.engine)
    rows = []
    for size in args.sizes:
        db = _bench_db(gen, size, args.seed, "P" in needed)
        rows.append({"size": db.size, **engines.measure_delay(lambda: factory(db))})
    verdict = delay_verdict(rows)
    payload = {"engine": name, "generator": gen, "rows": rows, "verdict": verdict}
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"engine: {name}  generator: {gen}")
        print(f"{'size':>8} {'prep_ticks':>12} {'max_gap':>10} {'answers':>10} {'wall_ms':>10}")
        for r in rows:
            print(f"{r['size']:>8} {r['preprocessing_ticks']:>12} "
                  f"{r['max_gap']:>10} {r['answers']:>10} {r['wall_ms']:>10.1f}")
        print(f"verdict: {verdict}")
    return EXIT_OK


def delay_verdict(rows) -> str:
    """NO_ANSWERS if some size gave no answer, whose gaps say nothing;
    CONSTANT if max_gap barely moves across sizes, LINEAR if max_gap/size
    stays flat, UNBOUNDED otherwise.  Finite-sample heuristic, ratio 2."""
    if any(r["answers"] == 0 for r in rows):
        return "NO_ANSWERS"
    if len(rows) < 2:
        return "CONSTANT"
    gaps = [max(1, r["max_gap"]) for r in rows]
    sizes = [r["size"] for r in rows]
    if max(gaps) / min(gaps) <= 2.0:
        return "CONSTANT"
    per_size = [g / s for g, s in zip(gaps, sizes)]
    if max(per_size) / min(per_size) <= 2.0:
        return "LINEAR"
    return "UNBOUNDED"


def cmd_gadget(args) -> int:
    kind = args.kind
    out_path = Path(args.out)
    try:
        if kind == "encoding-trick":
            if not args.query:
                raise InputError("encoding-trick needs --query")
            query = _load(args.query, parse_query, "query")
            d_prime = _load(args.input, parse_database, "database")
            _, occurrence = reductions.relabel_self_join_free(query)
            db = reductions.encoding_trick(d_prime, occurrence)
        else:  # argparse admits no other kind than those of GADGET_BUILDERS
            graph = reductions.parse_graph(Path(args.input).read_text())
            db = reductions.GADGET_BUILDERS[kind](graph)
    except (OSError, UnicodeDecodeError, reductions.GadgetInputError) as exc:
        raise InputError(str(exc)) from exc
    try:
        out_path.write_text(serialize_database(db))
    except OSError as exc:
        raise InputError(f"cannot write {out_path}: {exc}") from exc
    print(f"{db.size} facts written to {out_path}")
    return EXIT_OK


# -- argument parsing ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cqsj",
        description="structural classification, verified-delay enumeration and "
                    "hardness gadgets for conjunctive queries with self-joins",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="structural facts and verdicts")
    p.add_argument("query")
    p.add_argument("--json", action="store_true")
    p.add_argument("--budget", type=int, default=structure.DEFAULT_UNTANGLE_BUDGET)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("enumerate", help="stream the answers of a query")
    p.add_argument("query")
    p.add_argument("db")
    p.add_argument("--engine", default="auto")
    p.add_argument("--limit", type=int)
    p.add_argument("--stats", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", help="compare an engine against the oracle")
    p.add_argument("query")
    p.add_argument("db")
    p.add_argument("--engine", default="auto")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench-delay", help="tick-based delay measurements")
    p.add_argument("query")
    p.add_argument("--engine", default="auto")
    p.add_argument("--sizes", type=int, nargs="+",
                   default=[1000, 2000, 4000, 8000])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bench_delay)

    p = sub.add_parser("gadget", help="write a reduction database")
    p.add_argument("kind", choices=["encoding-trick"] + sorted(reductions.GADGET_BUILDERS))
    p.add_argument("input")
    p.add_argument("out")
    p.add_argument("--query", help="query file (encoding-trick only)")
    p.set_defaults(func=cmd_gadget)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader closed stdout (`| head`): it has all it wants.  Later
        # writes, the flush at interpreter exit included, go to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (InputError, QueryModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InapplicableEngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INAPPLICABLE


if __name__ == "__main__":
    sys.exit(main())
