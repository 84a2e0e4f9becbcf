#!/usr/bin/env python3
"""Collect and compare result records of the benchmark in this directory.

A result record is a JSON-lines file with one line per benchmark run:
{"workload", "seed", "trace", "digest", "wall_s", "result"}, where
"result" is the JSON object the run printed as its last line.

  python3 perfbench/compare.py collect OUT.jsonl [--workloads a,b] [--seeds 1-10] [--trace 0|1]
      Runs the command in BENCHMARK.json once per (workload, seed), from the
      repository root, and appends one record per run.
  python3 perfbench/compare.py spread REC.jsonl
      Per workload and end-to-end metric: median over runs and the quartile
      spread (Q3 - Q1) / median, next to the metric's bound.
  python3 perfbench/compare.py diff BASE.jsonl NEW.jsonl
      Per workload and metric: both medians, the change as a share of the
      base median, and the bound. A metric whose spread on either side is
      wider than its bound is "unresolved" unless every new run beats every
      base run. No verdict is "better" or "within bound" when the new side
      has failed solves, or more than the base side. Also reports each
      side's failed/attempted solves and whether simulated statistics
      repeat exactly.
"""

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def collect(out, workloads, seeds, trace):
    for w in workloads:
        for seed in seeds:
            cmd = BENCH["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace),
            ]
            t0 = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            wall = time.monotonic() - t0
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.exit(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            digest = next((l.split()[1] for l in lines if l.startswith("digest ")), "")
            rec = {"workload": w, "seed": seed, "trace": trace, "digest": digest,
                   "wall_s": round(wall, 3), "result": json.loads(lines[-1])}
            with open(out, "a") as f:
                f.write(json.dumps(rec) + "\n")
            r = rec["result"]
            print(f"{w} seed {seed}: {wall:.1f}s correct={r['correct']} "
                  f"failed={r['failed']}/{r['attempted']} digest={digest}", flush=True)
            if not r["correct"] or r["failed"]:
                sys.exit(f"{w} seed {seed}: {r['failed']} of {r['attempted']} solves failed; stopping")


def by_workload(records):
    out = {}
    for rec in records:
        if rec["trace"] == 0:
            out.setdefault(rec["workload"], []).append(rec)
    return out


def values(recs, metric):
    return [r["result"]["metrics"][metric]["value"] for r in recs]


def spread(vals):
    """(Q3 - Q1) / median over runs, quartiles from statistics.quantiles."""
    med = statistics.median(vals)
    if len(vals) < 2 or med == 0:
        return 0.0
    q = statistics.quantiles(vals, n=4)
    return (q[2] - q[0]) / abs(med)


def failures(recs):
    return sum(r["result"]["failed"] for r in recs), sum(r["result"]["attempted"] for r in recs)


def cmd_spread(path):
    groups = by_workload(load(path))
    print(f"{'workload':<14} {'metric':<14} {'runs':>4} {'median':>14} {'spread':>8} {'bound':>6}  note")
    worst = 0.0
    for w, recs in groups.items():
        for m in BENCH["end_to_end"]:
            vals = values(recs, m["name"])
            s = spread(vals)
            note = ""
            if s > m["bound"]:
                note = "OVER BOUND"
            elif s > m["bound"] / 3:
                note = "over bound/3"
            worst = max(worst, s / m["bound"])
            print(f"{w:<14} {m['name']:<14} {len(vals):>4} {statistics.median(vals):>14.6g} "
                  f"{s:>8.4f} {m['bound']:>6}  {note}")
        failed, attempted = failures(recs)
        print(f"{w:<14} failed solves over all runs: {failed} of {attempted}")
    print(f"largest spread / bound: {worst:.3f}")


def cmd_diff(base_path, new_path):
    base, new = by_workload(load(base_path)), by_workload(load(new_path))
    print(f"{'workload':<14} {'metric':<14} {'base':>12} {'new':>12} {'change':>8} {'bound':>6}  verdict")
    for w in base:
        if w not in new:
            print(f"{w:<14} missing from {new_path}")
            continue
        (bf, ba), (nf, na) = failures(base[w]), failures(new[w])
        print(f"{w:<14} failed solves: base {bf} of {ba}, new {nf} of {na}")
        refused = nf > 0 or not all(r["result"]["correct"] for r in new[w])
        for m in BENCH["end_to_end"]:
            b, n = values(base[w], m["name"]), values(new[w], m["name"])
            bm, nm = statistics.median(b), statistics.median(n)
            change = (nm - bm) / bm if bm else 0.0
            worse = change if m["better"] == "lower" else -change
            if m["better"] == "lower":
                all_better = max(n) < min(b)
            else:
                all_better = min(n) > max(b)
            if max(spread(b), spread(n)) > m["bound"] and not all_better:
                verdict = "unresolved (spread wider than bound)"
            elif worse > m["bound"]:
                verdict = "WORSE beyond bound"
            elif worse < 0:
                verdict = "better" if all_better else "better within noise"
            else:
                verdict = "within bound"
            if refused and verdict in ("better", "better within noise", "within bound"):
                verdict = "REFUSED (new side has failed solves)"
            print(f"{w:<14} {m['name']:<14} {bm:>12.6g} {nm:>12.6g} {change:>+8.2%} {m['bound']:>6}  {verdict}")
        same_seeds = {r["seed"]: r["digest"] for r in base[w]}
        clash = [r["seed"] for r in new[w] if r["seed"] in same_seeds and same_seeds[r["seed"]] != r["digest"]]
        print(f"{w:<14} simulated-statistics digest: "
              + ("differs on seeds " + ", ".join(map(str, clash)) if clash else "identical on shared seeds"))


def main(argv):
    if len(argv) >= 2 and argv[0] == "collect":
        opts = dict(zip(argv[2::2], argv[3::2]))
        workloads = opts.get("--workloads", ",".join(w["name"] for w in BENCH["workloads"])).split(",")
        collect(argv[1], workloads, parse_seeds(opts.get("--seeds", "1-10")), int(opts.get("--trace", "0")))
    elif len(argv) == 2 and argv[0] == "spread":
        cmd_spread(argv[1])
    elif len(argv) == 3 and argv[0] == "diff":
        cmd_diff(argv[1], argv[2])
    else:
        sys.exit(__doc__)


if __name__ == "__main__":
    main(sys.argv[1:])
