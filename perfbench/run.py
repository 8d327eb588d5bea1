"""End-to-end benchmark of the cqsj command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload enum_stream --seed 1 --seconds 15 --trace 0

Each workload is a fixed list of commands run as a closed loop by a single
client: one command after the other through ``cqsj.cli.main``, in a fresh
worker process per pass (see ``worker.py``).  Passes repeat until
``--seconds`` have been spent.  The bounded end-to-end metrics are exact
tick counts, peak memory and set-up time; the timings (CPU time of the
worker, each command's fastest pass) are printed but not bounded.  After
timing, and outside it, every output is checked against the benchmark's own
join (``join.py``) and the pinned classifications
(``patterns.py``), ticks are recorded, and one real ``cqsj enumerate``
subprocess is compared byte for byte with the in-process run.

``--trace 1`` instead runs one untraced and one traced pass of every
workload and reports per-layer metrics; see README.md for the map from
layer metrics to the end-to-end metrics they should move.

The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import join  # noqa: E402
import patterns  # noqa: E402
import spans  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 3
SETUP_MIN_S = 0.1
MIN_PASSES = 3
WORKER_TIMEOUT_S = 150
ENGINES = ("acyclic", "mirror", "untangle", "SPIKE_Q2", "SPIKE_Q3",
           "TWO_LOOPS", "TWO_TRIANGLES", "oracle")


# -- workloads ---------------------------------------------------------------
#
# A workload function returns (files, commands).  files maps a path to its
# text; the commands name those paths.  Every command carries what its check
# needs.


def _enum(cid, query, facts, extra=()):
    return {"id": cid, "kind": "enumerate", "query": query, "facts": facts,
            "argv": ["enumerate", query, facts, "--engine", "auto", "--stats", *extra]}


def _query_files(d: Path, names) -> dict:
    return {str(d / f"{n}.cq"): patterns.QUERIES[n] + "\n" for n in names}


def build_enum_stream(seed: int, d: Path):
    files = _query_files(d, ("path2_full", "diamond", "ring8_io", "ring8_spikes"))
    cmds = []
    for size in (1000, 4000, 16000):
        f = str(d / f"plain{size // 1000}k.facts")
        rng = random.Random(f"{seed}:enum_stream:plain:{size}")
        files[f] = gen.facts_text(gen.graph_facts(rng, size // 2))
        for q in ("path2_full", "diamond"):
            cmds.append(_enum(f"{q}@{size // 1000}k", str(d / f"{q}.cq"), f))
    for size in (1000, 4000):
        f = str(d / f"red{size // 1000}k.facts")
        rng = random.Random(f"{seed}:enum_stream:red:{size}")
        files[f] = gen.facts_text(gen.graph_facts(rng, size // 2, red_frac=0.02))
        for q in ("ring8_io", "ring8_spikes"):
            cmds.append(_enum(f"{q}@{size // 1000}k", str(d / f"{q}.cq"), f))
    return files, cmds


def build_enum_linear(seed: int, d: Path):
    names = ("diamond_red", "ring8", "twin_loops", "twin_triangles")
    files = _query_files(d, names)
    cmds = []
    plan = [(("diamond_red",), (1000, 2000)), (("ring8",), (200, 300)),
            (("twin_loops", "twin_triangles"), (4000, 8000))]
    for targets, sizes in plan:
        for size in sizes:
            rng = random.Random(f"{seed}:enum_linear:{targets[0]}:{size}")
            f = str(d / f"{targets[0]}{size}.facts")
            # the twin patterns need self-loops, the others marked nodes
            kw = {"loops": size // 100} if len(targets) > 1 else {"red_frac": 0.05}
            files[f] = gen.facts_text(gen.graph_facts(rng, size // 2, **kw))
            for t in targets:
                cmds.append(_enum(f"{t}@{size}", str(d / f"{t}.cq"), f))
    return files, cmds


RANDOM_QUERIES = 200
ENUM_LIMIT = 10


def build_classify_mix(seed: int, d: Path):
    files = _query_files(d, patterns.QUERIES)
    cmds = []
    for name in sorted(patterns.QUERIES):
        extra = ["--budget", "400"] if name == "cycle20" else []
        cmds.append({"id": f"classify:{name}", "kind": "classify", "fixture": name,
                     "argv": ["classify", str(d / f"{name}.cq"), "--json", *extra]})
    rng = random.Random(f"{seed}:classify_mix:queries")
    for i in range(RANDOM_QUERIES):
        q, facts = str(d / f"random{i:03d}.cq"), str(d / f"random{i:03d}.facts")
        tree = i % 2 == 0
        files[q] = gen.random_query(rng, tree, *((5, 9) if tree else (4, 10)))
        cmds.append({"id": f"classify:random{i:03d}", "kind": "classify",
                     "argv": ["classify", q, "--json"]})
        if not tree:
            # cyclic and projected queries reach the oracle fallback, whose
            # search made ticks vary several-fold between seeds (README.md)
            continue
        files[facts] = gen.facts_text(gen.planted_facts(
            rng, files[q], matches=ENUM_LIMIT, nodes=200, noise=20))
        cmds.append(_enum(f"first{ENUM_LIMIT}:random{i:03d}", q, facts,
                          ("--limit", str(ENUM_LIMIT))))
    return files, cmds


GRAPHS_PER_GADGET = 3


def build_verify_gadgets(seed: int, d: Path):
    kinds = sorted(patterns.GADGET_QUERIES)
    files = _query_files(d, sorted(set(patterns.GADGET_QUERIES.values())))
    cmds = []
    for kind in kinds:
        query = str(d / f"{patterns.GADGET_QUERIES[kind]}.cq")
        for j in range(GRAPHS_PER_GADGET):
            # the same graphs for every seed, renamed and reordered by it:
            # drawn afresh per seed, the gadgets' answer counts and delays
            # made answers_per_cpu_s and delay_cpu_us_p99 vary by 28%
            # between seeds (README.md)
            rng = random.Random(f"verify_gadgets:{kind}:{j}")
            graph = str(d / f"{kind}-{j}.graph")
            if kind == "utd-spike-q4":
                text = gen.tripartite_text(rng, 6, 5, 5, edges_per_side=6)
            else:
                text = "".join(f"{u} {v}\n" for _, (u, v) in gen.graph_facts(rng, 12))
            files[graph] = gen.relabel_graph(
                random.Random(f"{seed}:verify_gadgets:{kind}:{j}"), text)
            facts = str(d / f"{kind}-{j}.facts")
            cid = f"{kind}-{j}"
            cmds.append({"id": f"gadget:{cid}", "kind": "gadget", "graph": graph,
                         "argv": ["gadget", kind, graph, facts]})
            cmds.append(_enum(f"enumerate:{cid}", query, facts))
            cmds.append({"id": f"verify:{cid}", "kind": "verify", "query": query,
                         "facts": facts,
                         "argv": ["verify", query, facts, "--engine", "auto"]})
    return files, cmds


WORKLOADS = {
    "enum_stream": build_enum_stream,
    "enum_linear": build_enum_linear,
    "classify_mix": build_classify_mix,
    "verify_gadgets": build_verify_gadgets,
}


def setup(workload: str, seed: int, d: Path, times: list):
    """Generate and write the inputs at least SETUP_REPS times and for at
    least SETUP_MIN_S of CPU time, appending the CPU time of each set-up to
    `times`.  Returns the commands and a digest of every input file.

    A timed run sets up again before every pass: the speed of a shared
    machine changes from one second to the next, and set-ups spread over
    the run give a steadier median than set-ups at its start.
    """
    d.mkdir(parents=True, exist_ok=True)
    spent = []
    while len(spent) < SETUP_REPS or sum(spent) < SETUP_MIN_S:
        start = time.process_time()
        files, cmds = WORKLOADS[workload](seed, d)
        for path, text in files.items():
            Path(path).write_text(text)
        spent.append(time.process_time() - start)
    times.extend(spent)
    digests = {Path(p).name: gen.digest(t) for p, t in sorted(files.items())}
    (d / "inputs.json").write_text(json.dumps(digests, indent=1, sort_keys=True))
    return cmds, digests


# -- worker processes ----------------------------------------------------------


def run_worker(plan: dict, d: Path, tag: str) -> dict:
    plan = {"src": str(SRC), **plan}
    plan_path, result_path = d / f"{tag}.plan.json", d / f"{tag}.result.json"
    plan_path.write_text(json.dumps(plan))
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(plan_path),
                           str(result_path)], cwd=ROOT, timeout=WORKER_TIMEOUT_S,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {tag} failed:\n{proc.stderr[-3000:]}")
    return json.loads(result_path.read_text())


def run_passes(cmds, d: Path, seconds: float, between) -> list:
    """Closed loop of passes until `seconds` are spent (at least MIN_PASSES),
    calling `between()` before each pass after the first."""
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        save = d / "out0" if not passes else None
        if save:
            save.mkdir()
        else:
            between()
        passes.append(run_worker({"mode": "pass", "commands": cmds,
                                  "save_dir": str(save) if save else None},
                                 d, f"pass{len(passes)}"))
    return passes


def subprocess_probe(cmd: dict, saved: Path) -> tuple:
    """Run the command as a real `cqsj enumerate` process under two hash
    seeds; returns (milliseconds per run, failures)."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times, failures = [], []
    want = saved.read_text()
    for hash_seed in ("1", "2"):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "cqsj.cli", *cmd["argv"]],
                              cwd=ROOT, env={**env, "PYTHONHASHSEED": hash_seed},
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=WORKER_TIMEOUT_S)
        times.append((time.perf_counter() - start) * 1e3)
        if proc.returncode != 0 or proc.stdout != want:
            failures.append(f"subprocess {cmd['id']} PYTHONHASHSEED={hash_seed}: "
                            f"exit {proc.returncode}, output differs: {proc.stdout != want}")
    return times, failures


# -- checks (outside the timed region) -----------------------------------------


def check_outputs(cmds, saved: Path) -> dict:
    """Command id -> reason it is wrong, for the outputs of one pass."""
    bad = {}
    cache: dict = {}

    def rels(path):
        if path not in cache:
            cache[path] = join.parse_facts(Path(path).read_text())
        return cache[path]

    def all_answers(cmd):
        key = (cmd["query"], cmd["facts"])
        if key not in cache:
            rule = Path(cmd["query"]).read_text()
            cache[key] = {join.answer_line(a) for a in join.answers(rule, rels(cmd["facts"]))}
        return cache[key]

    for cmd in cmds:
        try:
            reason = _check(cmd, (saved / f"{cmd['id']}.out").read_text(), rels, all_answers)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            reason = f"unreadable output: {exc!r}"
        if reason:
            bad[cmd["id"]] = reason
    return bad


def _check(cmd, text, rels, all_answers):
    kind = cmd["kind"]
    if kind == "enumerate":
        argv = cmd["argv"]
        lines = text.split("\n")[:-1]
        if "--limit" not in argv:
            want = all_answers(cmd)
            if len(lines) != len(set(lines)) or set(lines) != want:
                return (f"{len(lines)} lines, {len(set(lines))} distinct, {len(want)} "
                        f"expected, {len(set(lines) - want)} not expected")
            return None
        limit = int(argv[argv.index("--limit") + 1])
        rule = Path(cmd["query"]).read_text()
        head, _ = join.parse_rule(rule)
        found = len(join.answers(rule, rels(cmd["facts"]), limit=limit))
        rows = [tuple(line.split(", ")) if head else () for line in lines]
        if len(set(lines)) != len(lines) or len(lines) != found or not all(
                len(row) == len(head) and join.answers(
                    rule, rels(cmd["facts"]), limit=1, fixed=dict(zip(head, row)))
                for row in rows):
            return f"{len(lines)} lines are not {found} distinct answers"
    elif kind == "verify":
        n = len(all_answers(cmd))
        if not text.startswith("PASS ") or f": {n} answers match" not in text:
            return f"verify printed {text.strip()!r}, the join finds {n} answers"
    elif kind == "classify":
        report = json.loads(text)
        wrong = patterns.classify_mismatches(cmd["fixture"], report) if "fixture" in cmd else []
        if wrong:
            return f"verdicts differ from the pinned ones: {wrong}"
    elif kind == "gadget":
        facts = cmd["argv"][3]
        n = sum(len(rows) for rows in rels(facts).values())
        if text != f"{n} facts written to {facts}\n":
            return f"gadget printed {text.strip()!r}, its file has {n} facts"
    return None


def stats_of(rec: dict) -> dict:
    for line in reversed(rec["stderr"].splitlines()):
        if line.startswith("{"):
            return json.loads(line)
    raise ValueError(f"{rec['id']}: no --stats line")


# -- metrics ------------------------------------------------------------------------


def commands_cpu_s(p: dict) -> float:
    """CPU time of one pass's commands, without the benchmark's own work
    between them (saving outputs, hashing)."""
    return sum(r["cpu_ms"] for r in p["commands"]) / 1e3


def fastest(passes, field) -> list:
    """Per command that records `field`, its least value over the passes.

    Load from other processes on a shared machine only ever adds time, in
    bursts that hit a few commands of a pass; a command's fastest pass is
    the steadiest estimate of its cost.  Passes print identical output, so
    each command records the same fields in every pass.
    """
    return [min(r[field] for r in recs) for recs in zip(*(p["commands"] for p in passes))
            if field in recs[0]]


def end_to_end(setup_times, cmds, passes, ticks) -> tuple:
    """(bounded metrics, printed timings) of a timed run.

    The bounded metrics are exact counts, memory and set-up time.  The
    timings of the passes are printed but not bounded: on a shared machine
    they drift by more than any bound a comparison could use (README.md).
    """
    enum_ids = {c["id"] for c in cmds if c["kind"] == "enumerate"}
    first_pass = {r["id"]: r for r in passes[0]["commands"]}
    stats = [stats_of(first_pass[i]) for i in enum_ids]
    import_s = statistics.median(p["import_cpu_s"] for p in passes)
    metrics = {
        "setup_s": (statistics.median(setup_times) + import_s, "s", len(setup_times)),
        "total_ticks": (sum(st["ticks"] for st in stats), "ticks", len(stats)),
        "preprocessing_ticks": (sum(st["preprocessing_ticks"] for st in stats), "ticks",
                                len(stats)),
        "max_gap_ticks": (sum(ticks[i]["max_gap"] for i in enum_ids), "ticks",
                          len(enum_ids)),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB",
                        len(passes)),
    }
    cpu_ms = fastest(passes, "cpu_ms")
    first = fastest(passes, "first_cpu_ms")
    after_first = fastest(passes, "after_first_cpu_s")
    lines = [r["lines"] - 1 for r in passes[0]["commands"] if "after_first_cpu_s" in r]
    # the k-th gap is between the same two answer lines in every pass
    gaps = sorted(map(min, zip(*(p["gaps_cpu_us"] for p in passes))))
    wall_ms = [r["ms"] for p in passes for r in p["commands"]]
    timings = {
        "pass_cpu_s": (sum(cpu_ms) / 1e3, "s", len(cpu_ms)),
        "cmd_cpu_ms_p50": (statistics.median(cpu_ms), "ms", len(cpu_ms)),
        "first_answer_cpu_ms_p50": (statistics.median(first), "ms", len(first)),
        "answers_per_cpu_s": (sum(lines) / sum(after_first), "1/s", sum(lines)),
        "delay_cpu_us_p99": (gaps[int(0.99 * len(gaps))], "us", len(gaps)),
        "wall_s": (statistics.median(sum(r["ms"] for r in p["commands"]) / 1e3
                                     for p in passes), "s", len(passes)),
        "cmd_ms_p50": (statistics.median(wall_ms), "ms", len(wall_ms)),
    }
    if len(cpu_ms) >= 100:  # ten samples beyond the 90th percentile
        timings["cmd_cpu_ms_p90"] = (statistics.quantiles(cpu_ms, n=10)[-1], "ms",
                                     len(cpu_ms))
    return metrics, timings


def per_layer(runs: dict, subprocess_ms: list) -> dict:
    """runs: workload -> (cmds, untraced pass, traced pass, ticks)."""
    m = {}
    untraced = sum(commands_cpu_s(r[1]) for r in runs.values())
    traced = sum(commands_cpu_s(r[2]) for r in runs.values())
    m["trace.overhead_frac"] = (traced / untraced - 1.0, "frac")
    calls = []  # [name, workload, command, engine, nested, in_classify, n, ms]
    for wl, (_, _, traced_pass, _) in runs.items():
        summary = traced_pass["spans"]
        for layer in spans.LAYERS:
            if layer != "reductions" or wl == "verify_gadgets":
                m[f"{wl}.{layer}.self_ms"] = (summary["self_ms"][layer], "ms")
        calls.extend([c[0], wl, *c[1:]] for c in summary["calls"])

    def total(name, pred=lambda c: True, field=7):
        """Time (or, with field 6, calls) of the outermost spans of `name`:
        a span nested in one of the same name is already inside it."""
        return sum(c[field] for c in calls if c[0] == name and not c[4] and pred(c))

    m["cli.read_ms"] = (total("read_text"), "ms")
    m["cli.select_engine_ms"] = (total("select_engine"), "ms")
    for cmd in ("classify", "enumerate", "verify", "gadget"):
        m[f"cli.{cmd}_cmd_ms"] = (total(f"cmd_{cmd}"), "ms")
    m["cli.subprocess_ms"] = (statistics.median(subprocess_ms), "ms")

    m["qmodel.parse_db_ms"] = (total("parse_database"), "ms")
    stream_cmds = {c["id"]: c for c in runs["enum_stream"][0]}
    for size in ("1k", "4k", "16k"):
        dur = facts = 0
        for c in calls:
            if c[0] == "parse_database" and c[1] == "enum_stream" and c[2].endswith(f"@{size}"):
                dur += c[7]
                facts += c[6] * len(Path(stream_cmds[c[2]]["facts"]).read_text().splitlines())
        m[f"qmodel.parse_us_per_fact.{size}"] = (dur * 1e3 / facts, "us/fact")
    m["qmodel.parse_query_ms"] = (total("parse_query"), "ms")
    m["qmodel.serialize_us_per_answer"] = (
        total("serialize_answer") * 1e3 / total("serialize_answer", field=6), "us")
    m["qmodel.serialize_db_ms"] = (total("serialize_database"), "ms")

    for name in ("classify", "is_mirror", "is_untangleable"):
        m[f"structure.{name}_ms"] = (total(name), "ms")

    def in_mix_classify(c):
        return c[1] == "classify_mix" and c[5]

    for name in ("images", "endomorphisms", "canonical_key"):
        m[f"structure.{name}_calls"] = (total(name, in_mix_classify, 6), "count")
    queries = total("classify", lambda c: c[1] == "classify_mix", 6)
    m["structure.images_calls_per_query"] = (m["structure.images_calls"][0] / queries, "ratio")

    for e in ENGINES:
        m[f"engines.{e}.preprocess_ms"] = (sum(
            c[7] for c in calls if c[0] != "next" and c[3] == e and not c[4]), "ms")
        m[f"engines.{e}.enumerate_ms"] = (
            total("next", lambda c, e=e: c[3] == e), "ms")

    prep_ticks = all_ticks = answers = 0
    gaps = {e: 0 for e in ENGINES}
    raw = distinct = oracle_ticks = oracle_answers = 0
    for cmds, first_pass, _, ticks in runs.values():
        recs = {r["id"]: r for r in first_pass["commands"]}
        for c in cmds:
            if c["kind"] == "enumerate":
                st = stats_of(recs[c["id"]])
                prep_ticks += st["preprocessing_ticks"]
                all_ticks += st["ticks"]
                answers += st["answers"]
                t = ticks[c["id"]]
                gaps[t["engine"]] = max(gaps[t["engine"]], t["max_gap"])
                if "raw_emissions" in t:
                    raw += t["raw_emissions"]
                    distinct += t["answers"]
            elif c["kind"] == "verify":
                oracle_ticks += ticks[c["id"]]["oracle_ticks"]
                oracle_answers += ticks[c["id"]]["oracle_answers"]
    m["engines.preprocessing_ticks"] = (prep_ticks, "ticks")
    m["engines.enum_ticks"] = (all_ticks - prep_ticks, "ticks")
    m["engines.ticks_per_answer"] = (all_ticks / answers, "ticks")
    for e in ENGINES:
        m[f"engines.max_gap_ticks.{e}"] = (gaps[e], "ticks")
    step_p50, step_max = runs["enum_stream"][2]["spans"]["step_us"]
    m["engines.delay_us_p50"] = (step_p50, "us")
    m["engines.delay_us_max"] = (step_max, "us")
    m["engines.dedup_ratio"] = (raw / distinct, "ratio")
    m["engines.oracle_ms"] = (total("oracle_enumerate"), "ms")
    m["engines.oracle_ticks_per_answer"] = (oracle_ticks / oracle_answers, "ticks")

    m["reductions.build_ms"] = (sum(total(f) for f in spans.SPANNED["reductions"]
                                    if f.startswith("gadget_")), "ms")
    facts = edges = 0
    for c in runs["verify_gadgets"][0]:
        if c["kind"] == "gadget":
            edges += sum(1 for line in Path(c["graph"]).read_text().splitlines()
                         if line and not line.startswith("#"))
            facts += len(Path(c["argv"][3]).read_text().splitlines())
    m["reductions.facts_per_input_edge"] = (facts / edges, "ratio")
    return m


# -- entry point -----------------------------------------------------------------


def check_run(cmds, passes, d: Path) -> dict:
    """Failures of a run: command id -> reason."""
    bad = {}
    for k, p in enumerate(passes):
        for i, (rec, cmd) in enumerate(zip(p["commands"], cmds)):
            if rec["rc"] != 0:
                bad[f"{k}:{cmd['id']}"] = f"exit {rec['rc']} {rec['error'] or rec['stderr']}"
            elif rec["digest"] != passes[0]["commands"][i]["digest"]:
                bad[f"{k}:{cmd['id']}"] = "output differs from the first pass"
    if not bad:
        bad.update(check_outputs(cmds, d / "out0"))
    return bad


def ticks_and_probe(cmds, d: Path, bad: dict):
    """Tick records of every command, and the subprocess probe's times."""
    try:
        ticks = run_worker({"mode": "ticks", "commands": cmds}, d, "ticks")
    except RuntimeError as exc:
        bad["ticks"], ticks = str(exc), {}
    probe = next(c for c in cmds if c["kind"] == "enumerate")
    sub_ms, sub_bad = subprocess_probe(probe, d / "out0" / f"{probe['id']}.out")
    bad.update({f"subprocess:{i}": msg for i, msg in enumerate(sub_bad)})
    return ticks, sub_ms


def timed_run(workload: str, seed: int, seconds: float):
    d = OUT / workload
    shutil.rmtree(d, ignore_errors=True)
    setup_times: list = []
    cmds, digests = setup(workload, seed, d, setup_times)
    passes = run_passes(cmds, d, seconds, lambda: setup(workload, seed, d, setup_times))
    bad = check_run(cmds, passes, d)
    ticks, sub_ms = ticks_and_probe(cmds, d, bad)
    attempted = len(cmds) * len(passes) + len(sub_ms)
    print(f"workload {workload}  seed {seed}  passes {len(passes)}  commands/pass "
          f"{len(cmds)}  inputs {gen.digest(json.dumps(digests, sort_keys=True))}")
    try:
        metrics, timings = end_to_end(setup_times, cmds, passes, ticks)
    except (ArithmeticError, LookupError, ValueError):
        if not bad:
            raise
        metrics, timings = {}, {}  # failed commands left nothing to measure
    print_table("end-to-end", metrics)
    print_table("not bounded", {**timings, "failed_frac": (len(bad) / attempted, "frac",
                                                           attempted)})
    return metrics, bad, attempted


def traced_run(first: str, seed: int):
    """One untraced and one traced pass of every workload, `first` first."""
    runs, bad, attempted, sub_ms = {}, {}, 0, None
    for wl in [first] + [w for w in WORKLOADS if w != first]:
        d = OUT / f"{wl}-traced"
        shutil.rmtree(d, ignore_errors=True)
        cmds, _ = setup(wl, seed, d, [])
        (d / "out0").mkdir()
        plain = run_worker({"mode": "pass", "commands": cmds,
                            "save_dir": str(d / "out0")}, d, "plain")
        traced = run_worker({"mode": "pass", "commands": cmds, "trace": True,
                             "spans_path": str(d / "spans.json")}, d, "traced")
        wl_bad = check_run(cmds, [plain, traced], d)
        ticks, probe_ms = ticks_and_probe(cmds, d, wl_bad)
        sub_ms = sub_ms or probe_ms
        bad.update({f"{wl}/{k}": v for k, v in wl_bad.items()})
        attempted += 2 * len(cmds) + len(probe_ms)
        runs[wl] = (cmds, plain, traced, ticks)
    try:
        metrics = per_layer(runs, sub_ms)
    except (ArithmeticError, LookupError, ValueError):
        if not bad:
            raise
        metrics = {}  # failed commands left nothing to measure
    print_table("per-layer (one untraced and one traced pass of every workload)", metrics)
    return metrics, bad, attempted


def print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, value in metrics.items():
        print(f"  {name:<40} {value[0]:>14.6g} {value[1]:<8}"
              + (f" n={value[2]}" if len(value) > 2 else ""))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cqsj" / "cli.py").is_file():
        print(f"error: no cqsj sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.trace:
        metrics, bad, attempted = traced_run(args.workload, args.seed)
    else:
        metrics, bad, attempted = timed_run(args.workload, args.seed, args.seconds)
    for key, reason in sorted(bad.items())[:20]:
        print(f"FAILED {key}: {reason}")
    print(json.dumps({"correct": not bad, "attempted": attempted,
                      "failed": min(len(bad), attempted),
                      "metrics": {k: {"value": v[0], "unit": v[1]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
