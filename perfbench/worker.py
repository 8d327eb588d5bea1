"""One workload pass in a fresh process.

Usage: python3 perfbench/worker.py PLAN.json RESULT.json

PLAN holds the source directory, the commands (argv lists for
``cqsj.cli.main``) and a mode:

* ``pass``: run the commands back to back, one client, no threads, stdout
  and stderr captured with a timestamp per written line.  Each command's
  wall-clock and CPU time are recorded, and line stamps are CPU time, so
  time this process spends waiting for a processor does not count.  The
  commands read small cached files and write to memory, so their CPU time
  is the time they need.  With
  ``"trace": true`` the layer spans of ``spans.py`` are recorded and written
  to ``spans_path``.  With ``save_dir`` set, each command's output is saved
  for the correctness check.
* ``ticks``: for each command, re-run its engine through the library to
  record tick gaps (``engines.measure_delay``'s rule), raw emissions of the
  bespoke strategies without deduplication, and oracle ticks for ``verify``.
  Tick counts do not depend on time, so this runs outside the timed pass.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
import traceback
from pathlib import Path

import spans


class LineClock:
    """A text stream that keeps what is written and the CPU time at which
    each line ended."""

    def __init__(self):
        self.parts: list = []
        self.stamps: list = []

    def write(self, s: str) -> int:
        self.parts.append(s)
        if s.endswith("\n"):
            self.stamps.append(time.process_time())
        return len(s)

    def flush(self) -> None:
        pass

    def text(self) -> str:
        return "".join(self.parts)


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux VmHWM, which exec resets,
    unlike ru_maxrss, which a child inherits from the forking parent)."""
    with open("/proc/self/status") as status:  # not the traced read_text
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_pass(plan: dict) -> dict:
    start = time.process_time()
    from cqsj import cli  # the program's own set-up, counted in setup_s
    import_cpu_s = time.process_time() - start

    tracer = None
    if plan.get("trace"):
        tracer = spans.Tracer()
        tracer.install()
    save_dir = Path(plan["save_dir"]) if plan.get("save_dir") else None
    records = []
    gaps = []
    real_out, real_err = sys.stdout, sys.stderr
    for cmd in plan["commands"]:
        out, err = LineClock(), LineClock()
        if tracer is not None:
            tracer.begin_command(cmd["id"])
        sys.stdout, sys.stderr = out, err
        error = None
        start, cpu = time.perf_counter(), time.process_time()
        try:
            rc = cli.main(cmd["argv"])
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # any escaping exception fails the command
            rc, error = None, traceback.format_exc()
        end, cpu_end = time.perf_counter(), time.process_time()
        sys.stdout, sys.stderr = real_out, real_err
        text = out.text()
        rec = {"id": cmd["id"], "rc": rc, "error": error, "ms": (end - start) * 1e3,
               "cpu_ms": (cpu_end - cpu) * 1e3, "lines": len(out.stamps),
               "digest": hashlib.sha256(text.encode()).hexdigest(),
               "stderr": err.text()[-2000:]}
        if cmd["kind"] == "enumerate" and out.stamps:
            stamps = out.stamps
            rec["first_cpu_ms"] = (stamps[0] - cpu) * 1e3
            rec["after_first_cpu_s"] = stamps[-1] - stamps[0]
            gaps.extend(b - a for a, b in zip(stamps, stamps[1:]))
        records.append(rec)
        if save_dir is not None:
            (save_dir / f"{cmd['id']}.out").write_text(text)
    result = {
        "import_cpu_s": import_cpu_s,
        "peak_rss_mb": peak_rss_mb(),
        "commands": records,
        "gaps_cpu_us": [round(g * 1e6, 3) for g in gaps],
    }
    if tracer is not None:
        Path(plan["spans_path"]).write_text(json.dumps(tracer.spans))
        result["spans"] = spans.summarize(tracer.spans)
    return result


def run_ticks(plan: dict) -> dict:
    from cqsj import cli, engines
    from cqsj.qmodel import parse_database, parse_query

    out = {}
    for cmd in plan["commands"]:
        argv = cmd["argv"]
        if cmd["kind"] not in ("enumerate", "verify"):
            continue
        query = parse_query(Path(argv[1]).read_text())
        db = parse_database(Path(argv[2]).read_text())
        rec = {}
        if cmd["kind"] == "verify":
            cursor = engines.oracle_cursor(query, db)
            n = sum(1 for _ in cursor)
            rec["oracle_ticks"], rec["oracle_answers"] = cursor.ticker.count, n
            out[cmd["id"]] = rec
            continue
        limit = int(argv[argv.index("--limit") + 1]) if "--limit" in argv else None
        name, factory = cli.select_engine(query, "auto")
        cursor = factory(db)
        last, max_gap, answers = cursor.ticker.count, 0, 0
        while limit is None or answers < limit:
            item = cursor.next()
            max_gap = max(max_gap, cursor.ticker.count - last)
            last = cursor.ticker.count
            if item is None:
                break
            answers += 1
        rec.update(engine=name.split(":")[-1], max_gap=max_gap, answers=answers)
        if name.startswith("bespoke:"):
            raw = engines.enum_bespoke(name.split(":")[1], db, dedup=False)
            rec["raw_emissions"] = sum(1 for _ in raw)
        out[cmd["id"]] = rec
    return out


def main(argv) -> int:
    plan = json.loads(Path(argv[1]).read_text())
    sys.path.insert(1, plan["src"])
    result = run_ticks(plan) if plan["mode"] == "ticks" else run_pass(plan)
    Path(argv[2]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
