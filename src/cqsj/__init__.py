"""Conjunctive queries with self-joins: structure, enumeration, reductions."""

from .qmodel import (
    Atom,
    Database,
    Pair,
    Query,
    RelationSymbol,
    parse_database,
    parse_query,
    serialize_database,
    serialize_query,
)
from .structure import (
    ClassificationReport,
    classify,
    core,
    endomorphisms,
    gyo_acyclic,
    hardness_transfer,
    images,
    is_minimal,
    is_mirror,
    is_untangleable,
    minimal_form,
)
from .engines import (
    DelayStats,
    EnumerationCursor,
    Ticker,
    cheater_dedup,
    enum_bespoke,
    enum_full_acyclic,
    enum_mirror,
    enum_untangle,
    eval_boolean,
    eval_unary,
    first_solution,
    measure_delay,
    oracle_enumerate,
)
from .reductions import (
    DecodedAnswer,
    Graph,
    decode_solution,
    duplicate_db,
    encoding_trick,
    gen_random_db,
    gen_random_graph,
    gen_tripartite,
    relabel_self_join_free,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
