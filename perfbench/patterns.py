"""The 21 named query patterns and the statuses the acceptance suite pins.

The benchmark keeps its own copy of the query texts so that the bytes it
hands the program do not change when the program's fixture module does.
"""

_R8 = ("R(x1,x2), R(x2,x3), R(x4,x3), R(x5,x4), R(x5,x6), R(x6,x7), "
       "R(x8,x7), R(x1,x8), P(x2)")
_R8_SPIKE_HEAD = "Q(x1,x2,x3,x4,x5,x6,x7,x8,sa,sb,sc,se,so1,so2)"
_WINDMILL = ("S(w1,w2,w3), R(u,w1), R(w1,w2), R(w2,w3), R(w3,w1), R(w2,v), "
             "R(y,v), R(x,y), R(y,z), R(z,x), R(u,x)")
_CYCLE20_VARS = ",".join(f"n{i:02d}" for i in range(1, 21))

QUERIES = {
    "bowtie_chain": "Q(a,b,c,d,e,f,g) :- S(a,b,c), R(a,b), R(a,c), R(c,b), R(a,d), "
                    "R(d,b), R(e,f), R(e,d), R(d,f), R(e,g), R(g,f).",
    "cycle20": f"Q({_CYCLE20_VARS}) :- R(n01,n02), R(n02,n03), R(n04,n03), "
               "R(n05,n04), R(n05,n06), R(n07,n06), R(n07,n08), R(n08,n09), "
               "R(n10,n09), R(n10,n11), R(n12,n11), R(n13,n12), R(n13,n14), "
               "R(n15,n14), R(n15,n16), R(n16,n17), R(n18,n17), R(n18,n19), "
               "R(n20,n19), R(n01,n20).",
    "cyclic_triple": "Q(x,z) :- R(x,y), S(y,z), T(x,z).",
    "diamond": "Q(x,u,y,v) :- R(x,u), R(u,y), R(x,v), R(v,y).",
    "diamond_red": "Q(x,y,z,u) :- R(x,y), R(y,z), R(x,u), R(u,z), P(y).",
    "diamond_reversed": "Q(x,u,y,v) :- R(x,u), R(u,y), R(x,v), R(y,v).",
    "double_kite": "Q(a,g,h,b,d,e,c,f) :- S(a,g,h), R(a,g), R(g,h), R(h,a), R(a,b), "
                   "R(b,d), R(d,e), R(e,b), R(a,c), R(c,d), R(d,f), R(f,c).",
    "path2_full": "Q(x,y,z) :- R(x,y), R(y,z).",
    "path2_proj": "Q(x,z) :- R(x,y), S(y,z).",
    "ring8": f"Q(x1,x2,x3,x4,x5,x6,x7,x8) :- {_R8}.",
    "ring8_io": f"Q(x1,x2,x3,x4,x5,x6,x7,x8,si,so) :- {_R8}, R(x5,so), R(si,x7).",
    "ring8_spikes": f"{_R8_SPIKE_HEAD} :- {_R8}, R(x1,sa), R(sb,x3), R(x8,sc), "
                    "R(se,x4), R(x5,so1), R(x5,so2).",
    "ring8_spikes_flip": f"{_R8_SPIKE_HEAD} :- {_R8}, R(x1,sa), R(sb,x3), R(x8,sc), "
                         "R(x4,se), R(x5,so1), R(x5,so2).",
    "self_loop_boolean": "Q() :- R(x,x).",
    "square_loops": "Q(a,b,c,d,e) :- R(a,b), R(b,c), R(c,d), R(d,a), R(e,a), R(e,c), "
                    "R(d,d), R(e,e).",
    "triangle": "Q(x,y,z) :- R(x,y), R(y,z), R(z,x).",
    "twin_loops": "Q(a,b,c,a2,b2) :- R(a,a), R(a,b), R(b,c), R(c,a), R(a2,a2), "
                  "R(a2,c), R(c,b2), R(b2,a2).",
    "twin_triangles": "Q(a,b,c,a2) :- R(a,a), R(a,b), R(b,c), R(c,a), R(a2,a2), "
                      "R(a2,b), R(a2,c).",
    "unary_path": "Q(y) :- R(x,y), R(y,z).",
    "windmill": f"Q(u,w1,w2,w3,v,x,y,z) :- {_WINDMILL}.",
    "windmill_tail": f"Q(u,w1,w2,w3,v,x,y,z,t) :- {_WINDMILL}, R(t,v).",
}

FIRST = "first-solution"
EVAL = "evaluation"
CONST = "enumeration-constant-delay"
LINEAR = "enumeration-linear-delay"

# Acceptance criterion 1, restricted to the fields `classify --json` prints
# (the hardness witness of `windmill` is not part of the JSON report).
EXPECTED = {
    "path2_full": {"verdicts": {CONST: "constant-delay"}},
    "path2_proj": {"verdicts": {CONST: "conditionally-hard", LINEAR: "linear-delay"}},
    "unary_path": {"verdicts": {EVAL: "linear-time", CONST: "constant-delay"}},
    "self_loop_boolean": {"verdicts": {EVAL: "linear-time"}},
    "triangle": {"verdicts": {FIRST: "conditionally-hard"}},
    "cyclic_triple": {"verdicts": {FIRST: "conditionally-hard"}},
    "diamond": {"mirror": True, "verdicts": {CONST: "constant-delay"}},
    "diamond_red": {"mirror": False,
                    "verdicts": {FIRST: "linear-time", LINEAR: "linear-delay",
                                 CONST: "conditionally-hard"}},
    "diamond_reversed": {"core_acyclic": False,
                         "verdicts": {FIRST: "conditionally-hard"}},
    "ring8": {"untangleable": "yes",
              "verdicts": {LINEAR: "linear-delay", CONST: "conditionally-hard"}},
    "ring8_io": {"untangleable": "yes", "verdicts": {CONST: "constant-delay"}},
    "ring8_spikes": {"untangleable": "yes", "verdicts": {CONST: "constant-delay"}},
    "ring8_spikes_flip": {"untangleable": "yes",
                          "verdicts": {CONST: "conditionally-hard"}},
    "windmill": {"untangleable": "no", "verdicts": {LINEAR: "conditionally-hard"}},
    "windmill_tail": {"untangleable": "yes", "verdicts": {LINEAR: "linear-delay"}},
    "bowtie_chain": {"untangleable": "yes", "verdicts": {LINEAR: "linear-delay"}},
    "double_kite": {"untangleable": "no", "verdicts": {LINEAR: "conditionally-hard"}},
    "twin_loops": {"untangleable": "no", "verdicts": {LINEAR: "linear-delay"}},
    "twin_triangles": {"untangleable": "no", "verdicts": {LINEAR: "linear-delay"}},
    "square_loops": {"untangleable": "no",
                     "verdicts": {LINEAR: "unknown", CONST: "unknown"}},
    "cycle20": {"mirror": False, "verdicts": {CONST: "unknown"}},
}

# Gadget kind -> the pattern its database encodes (acceptance criterion 5).
GADGET_QUERIES = {
    "triangle-mirrorfig1": "diamond_red",
    "triangle-spike-q1": "ring8",
    "triangle-untangle2": "windmill",
    "utd-spike-q4": "ring8_spikes_flip",
}


def classify_mismatches(name: str, report: dict) -> list:
    """Fields of a `classify --json` report that differ from the pinned
    statuses, as (field, got) pairs."""
    expected = EXPECTED[name]
    bad = []
    if "untangleable" in expected and report["untangleable"] != expected["untangleable"]:
        bad.append(("untangleable", report["untangleable"]))
    if "mirror" in expected and (report["mirror"] is not None) != expected["mirror"]:
        bad.append(("mirror", report["mirror"]))
    if "core_acyclic" in expected and report["core_acyclic"] != expected["core_acyclic"]:
        bad.append(("core_acyclic", report["core_acyclic"]))
    got = {v["problem"]: v["verdict"] for v in report["verdicts"]}
    for problem, verdict in expected["verdicts"].items():
        if got.get(problem) != verdict:
            bad.append((problem, got.get(problem)))
    return bad
