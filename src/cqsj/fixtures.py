"""Named query patterns used across tests, the CLI and the verdict registry.

Each fixture is a plain parsed query, looked up by name.  The verdicts
settled for single patterns live with the other classification rules, in
``structure``.
"""

from __future__ import annotations

from functools import lru_cache

from .qmodel import Query, parse_query

# The eight-variable marked ring and its spiked variants.  Spike names:
# si/so are the in/out spikes of ring8_io; sa..so2 those of ring8_spikes.
_RING8_BODY = ("R(x1,x2), R(x2,x3), R(x4,x3), R(x5,x4), R(x5,x6), "
               "R(x6,x7), R(x8,x7), R(x1,x8), P(x2)")

# Ternary hub with an inner triangle and an outer triangle; the _tail
# variant adds one extra pendant edge, which makes it untangleable.
_WINDMILL_BODY = ("S(w1,w2,w3), R(u,w1), R(w1,w2), R(w2,w3), R(w3,w1), "
                  "R(w2,v), R(y,v), R(x,y), R(y,z), R(z,x), R(u,x)")

_SOURCES = {
    # Full 2-path and its projected (not free-connex) variant.
    "path2_full": "Q(x,y,z) :- R(x,y), R(y,z).",
    "path2_proj": "Q(x,z) :- R(x,y), S(y,z).",
    "unary_path": "Q(y) :- R(x,y), R(y,z).",
    "self_loop_boolean": "Q() :- R(x,x).",
    "triangle": "Q(x,y,z) :- R(x,y), R(y,z), R(z,x).",
    "cyclic_triple": "Q(x,z) :- R(x,y), S(y,z), T(x,z).",
    # The three diamond orientations: plain (a mirror), with a marked node
    # (linear delay only), and with one edge reversed (cyclic core).
    "diamond": "Q(x,u,y,v) :- R(x,u), R(u,y), R(x,v), R(v,y).",
    "diamond_red": "Q(x,y,z,u) :- R(x,y), R(y,z), R(x,u), R(u,z), P(y).",
    "diamond_reversed": "Q(x,u,y,v) :- R(x,u), R(u,y), R(x,v), R(y,v).",
    "ring8": f"Q(x1,x2,x3,x4,x5,x6,x7,x8) :- {_RING8_BODY}.",
    "ring8_io": (f"Q(x1,x2,x3,x4,x5,x6,x7,x8,si,so) :- {_RING8_BODY}, "
                 "R(x5,so), R(si,x7)."),
    "ring8_spikes": (f"Q(x1,x2,x3,x4,x5,x6,x7,x8,sa,sb,sc,se,so1,so2) :- "
                     f"{_RING8_BODY}, R(x1,sa), R(sb,x3), R(x8,sc), R(se,x4), "
                     "R(x5,so1), R(x5,so2)."),
    "ring8_spikes_flip": (f"Q(x1,x2,x3,x4,x5,x6,x7,x8,sa,sb,sc,se,so1,so2) :- "
                          f"{_RING8_BODY}, R(x1,sa), R(sb,x3), R(x8,sc), R(x4,se), "
                          "R(x5,so1), R(x5,so2)."),
    "windmill": f"Q(u,w1,w2,w3,v,x,y,z) :- {_WINDMILL_BODY}.",
    "windmill_tail": f"Q(u,w1,w2,w3,v,x,y,z,t) :- {_WINDMILL_BODY}, R(t,v).",
    # Chain of overlapping gadgets that untangles in three steps.
    "bowtie_chain": ("Q(a,b,c,d,e,f,g) :- S(a,b,c), R(a,b), R(a,c), R(c,b), "
                     "R(a,d), R(d,b), R(e,f), R(e,d), R(d,f), R(e,g), R(g,f)."),
    # Ternary hub with two overlapping four-cycles hanging off it.
    "double_kite": ("Q(a,g,h,b,d,e,c,f) :- S(a,g,h), R(a,g), R(g,h), R(h,a), "
                    "R(a,b), R(b,d), R(d,e), R(e,b), "
                    "R(a,c), R(c,d), R(d,f), R(f,c)."),
    # Two self-loops joined through a shared hub; linear-delay by a two-table
    # strategy, not by untangling.
    "twin_loops": ("Q(a,b,c,a2,b2) :- R(a,a), R(a,b), R(b,c), R(c,a), "
                   "R(a2,a2), R(a2,c), R(c,b2), R(b2,a2)."),
    "twin_triangles": ("Q(a,b,c,a2) :- R(a,a), R(a,b), R(b,c), R(c,a), "
                       "R(a2,a2), R(a2,b), R(a2,c)."),
    # Square with two chords and two self-loops; linear-delay status open.
    "square_loops": ("Q(a,b,c,d,e) :- R(a,b), R(b,c), R(c,d), R(d,a), "
                     "R(e,a), R(e,c), R(d,d), R(e,e)."),
    # Twenty-cycle with mixed orientation; constant-delay status open.
    "cycle20": ("Q(n01,n02,n03,n04,n05,n06,n07,n08,n09,n10,"
                "n11,n12,n13,n14,n15,n16,n17,n18,n19,n20) :- "
                "R(n01,n02), R(n02,n03), R(n04,n03), R(n05,n04), R(n05,n06), "
                "R(n07,n06), R(n07,n08), R(n08,n09), R(n10,n09), R(n10,n11), "
                "R(n12,n11), R(n13,n12), R(n13,n14), R(n15,n14), R(n15,n16), "
                "R(n16,n17), R(n18,n17), R(n18,n19), R(n20,n19), R(n01,n20)."),
}


@lru_cache(maxsize=None)
def fixture(name: str) -> Query:
    return parse_query(_SOURCES[name])


def fixture_names() -> list:
    return sorted(_SOURCES)
