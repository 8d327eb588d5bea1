"""Named query patterns used across tests, the CLI and the verdict registry.

Each fixture is a plain parsed query.  The registry at the bottom records the
individually settled verdicts (bespoke enumeration strategies and gadget
encodings) keyed by canonical key, so classification recognises the
patterns regardless of variable names.
"""

from __future__ import annotations

from functools import lru_cache

from .qmodel import Query, parse_query

# Full 2-path and its projected (not free-connex) variant.
PATH2_FULL = "Q(x,y,z) :- R(x,y), R(y,z)."
PATH2_PROJ = "Q(x,z) :- R(x,y), S(y,z)."
UNARY_PATH = "Q(y) :- R(x,y), R(y,z)."
SELF_LOOP_BOOLEAN = "Q() :- R(x,x)."
TRIANGLE = "Q(x,y,z) :- R(x,y), R(y,z), R(z,x)."
CYCLIC_TRIPLE = "Q(x,z) :- R(x,y), S(y,z), T(x,z)."

# The three diamond orientations: plain (a mirror), with a marked node
# (linear delay only), and with one edge reversed (cyclic core).
DIAMOND = "Q(x,u,y,v) :- R(x,u), R(u,y), R(x,v), R(v,y)."
DIAMOND_RED = "Q(x,y,z,u) :- R(x,y), R(y,z), R(x,u), R(u,z), P(y)."
DIAMOND_REVERSED = "Q(x,u,y,v) :- R(x,u), R(u,y), R(x,v), R(y,v)."

# The eight-variable marked ring and its spiked variants.  Spike names:
# si/so are the in/out spikes of RING8_IO; sa..so2 those of RING8_SPIKES.
_RING8_BODY = ("R(x1,x2), R(x2,x3), R(x4,x3), R(x5,x4), R(x5,x6), "
               "R(x6,x7), R(x8,x7), R(x1,x8), P(x2)")
RING8 = f"Q(x1,x2,x3,x4,x5,x6,x7,x8) :- {_RING8_BODY}."
RING8_IO = (f"Q(x1,x2,x3,x4,x5,x6,x7,x8,si,so) :- {_RING8_BODY}, "
            "R(x5,so), R(si,x7).")
RING8_SPIKES = (f"Q(x1,x2,x3,x4,x5,x6,x7,x8,sa,sb,sc,se,so1,so2) :- "
                f"{_RING8_BODY}, R(x1,sa), R(sb,x3), R(x8,sc), R(se,x4), "
                "R(x5,so1), R(x5,so2).")
RING8_SPIKES_FLIP = (f"Q(x1,x2,x3,x4,x5,x6,x7,x8,sa,sb,sc,se,so1,so2) :- "
                     f"{_RING8_BODY}, R(x1,sa), R(sb,x3), R(x8,sc), R(x4,se), "
                     "R(x5,so1), R(x5,so2).")

# Ternary hub with an inner triangle and an outer triangle; the _TAIL
# variant adds one extra pendant edge, which makes it untangleable.
_WINDMILL_BODY = ("S(w1,w2,w3), R(u,w1), R(w1,w2), R(w2,w3), R(w3,w1), "
                  "R(w2,v), R(y,v), R(x,y), R(y,z), R(z,x), R(u,x)")
WINDMILL = f"Q(u,w1,w2,w3,v,x,y,z) :- {_WINDMILL_BODY}."
WINDMILL_TAIL = f"Q(u,w1,w2,w3,v,x,y,z,t) :- {_WINDMILL_BODY}, R(t,v)."

# Chain of overlapping gadgets that untangles in three steps.
BOWTIE_CHAIN = ("Q(a,b,c,d,e,f,g) :- S(a,b,c), R(a,b), R(a,c), R(c,b), "
                "R(a,d), R(d,b), R(e,f), R(e,d), R(d,f), R(e,g), R(g,f).")

# Ternary hub with two overlapping four-cycles hanging off it.
DOUBLE_KITE = ("Q(a,g,h,b,d,e,c,f) :- S(a,g,h), R(a,g), R(g,h), R(h,a), "
               "R(a,b), R(b,d), R(d,e), R(e,b), "
               "R(a,c), R(c,d), R(d,f), R(f,c).")

# Two self-loops joined through a shared hub; linear-delay by a two-table
# strategy, not by untangling.
TWIN_LOOPS = ("Q(a,b,c,a2,b2) :- R(a,a), R(a,b), R(b,c), R(c,a), "
              "R(a2,a2), R(a2,c), R(c,b2), R(b2,a2).")
TWIN_TRIANGLES = ("Q(a,b,c,a2) :- R(a,a), R(a,b), R(b,c), R(c,a), "
                  "R(a2,a2), R(a2,b), R(a2,c).")

# Square with two chords and two self-loops; linear-delay status open.
SQUARE_LOOPS = ("Q(a,b,c,d,e) :- R(a,b), R(b,c), R(c,d), R(d,a), "
                "R(e,a), R(e,c), R(d,d), R(e,e).")

# Twenty-cycle with mixed orientation; constant-delay status open.
CYCLE20 = ("Q(n01,n02,n03,n04,n05,n06,n07,n08,n09,n10,"
           "n11,n12,n13,n14,n15,n16,n17,n18,n19,n20) :- "
           "R(n01,n02), R(n02,n03), R(n04,n03), R(n05,n04), R(n05,n06), "
           "R(n07,n06), R(n07,n08), R(n08,n09), R(n10,n09), R(n10,n11), "
           "R(n12,n11), R(n13,n12), R(n13,n14), R(n15,n14), R(n15,n16), "
           "R(n16,n17), R(n18,n17), R(n18,n19), R(n20,n19), R(n01,n20).")

_SOURCES = {
    "path2_full": PATH2_FULL,
    "path2_proj": PATH2_PROJ,
    "unary_path": UNARY_PATH,
    "self_loop_boolean": SELF_LOOP_BOOLEAN,
    "triangle": TRIANGLE,
    "cyclic_triple": CYCLIC_TRIPLE,
    "diamond": DIAMOND,
    "diamond_red": DIAMOND_RED,
    "diamond_reversed": DIAMOND_REVERSED,
    "ring8": RING8,
    "ring8_io": RING8_IO,
    "ring8_spikes": RING8_SPIKES,
    "ring8_spikes_flip": RING8_SPIKES_FLIP,
    "windmill": WINDMILL,
    "windmill_tail": WINDMILL_TAIL,
    "bowtie_chain": BOWTIE_CHAIN,
    "double_kite": DOUBLE_KITE,
    "twin_loops": TWIN_LOOPS,
    "twin_triangles": TWIN_TRIANGLES,
    "square_loops": SQUARE_LOOPS,
    "cycle20": CYCLE20,
}


@lru_cache(maxsize=None)
def fixture(name: str) -> Query:
    return parse_query(_SOURCES[name])


def fixture_names() -> list:
    return sorted(_SOURCES)


@lru_cache(maxsize=None)
def classification_registry() -> dict:
    """Canonical key -> the individually settled verdicts and fixture label
    of every registered fixture with that key."""
    from .structure import (
        PROBLEM_CONST,
        PROBLEM_LINEAR,
        V_COND_HARD,
        V_CONSTANT,
        V_LINEAR_DELAY,
        canonical_key,
    )

    entries = {
        "diamond_red": [
            (PROBLEM_CONST, V_COND_HARD, "sHyperclique", "triangle-mirrorfig1 encoding"),
        ],
        "ring8": [
            (PROBLEM_CONST, V_COND_HARD, "sHyperclique", "triangle-spike-q1 encoding"),
        ],
        "ring8_io": [
            (PROBLEM_CONST, V_CONSTANT, "none", "bespoke SPIKE_Q2"),
        ],
        "ring8_spikes": [
            (PROBLEM_CONST, V_CONSTANT, "none", "bespoke SPIKE_Q3"),
        ],
        "ring8_spikes_flip": [
            (PROBLEM_CONST, V_COND_HARD, "UTD", "utd-spike-q4 encoding"),
        ],
        "double_kite": [
            (PROBLEM_LINEAR, V_COND_HARD, "sHyperclique", "Ex 4.7 encoding"),
        ],
        "twin_loops": [
            (PROBLEM_LINEAR, V_LINEAR_DELAY, "none", "bespoke TWO_LOOPS"),
        ],
        "twin_triangles": [
            (PROBLEM_LINEAR, V_LINEAR_DELAY, "none", "bespoke TWO_TRIANGLES"),
        ],
        # Open problems: listed so classification can label the fixture, but
        # with no settled verdicts (the generic rules leave them unknown).
        "square_loops": [],
        "cycle20": [],
        "windmill": [],
        "windmill_tail": [],
        "bowtie_chain": [],
    }
    registry = {}
    for name, verdicts in entries.items():
        registry.setdefault(canonical_key(fixture(name)), []).append(
            {"name": name, "verdicts": verdicts})
    return registry
