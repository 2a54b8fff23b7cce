#!/usr/bin/env python3
"""Repeats the benchmark to measure its run-to-run spread.

Runs the command in BENCHMARK.json once per seed for each workload, from
the repository root, and reports for every metric the median, the first
and third quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median, against the bound BENCHMARK.json sets. Exact metrics
must read the same on every run of one seed; across seeds they differ.

    python3 scbench/steady.py --seeds 1-10 [--workloads cnn-train,...]
        [--seconds 30] [--trace 0|1] [--out scbench/out/steady.json]
    python3 scbench/steady.py --markdown A.json [B.json ...]

The second form prints the records as Markdown tables, and for several
records of the same seeds, whether every exact metric repeated bit for bit
and how far each median moved.

The first form exits 1 if a run fails or any metric's spread, setup_s
included, is over a third of its bound. The second exits 1 if a record
holds a spread over its bound, if an exact metric of one seed differs
between records, or if a median moved from the first record to the last
by more than its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds_arg(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(bench, workload, seed, seconds, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    start = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.time() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    result["seed"] = seed
    # The per-round log on standard error: measured (unscaled) rates and
    # host speeds, kept to show what the scaling removed.
    for line in proc.stderr.splitlines():
        for key, label in (("measured_items_per_s", "measured items_per_s "),
                           ("host_speed", "host speed ")):
            if label in line:
                values = [float(v) for v in line.split(label, 1)[1].split()]
                if values:
                    result[key] = statistics.median(values)
    return result


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("inf")
    return {"median": med, "q1": q1, "q3": q3, "spread": spread}


EXACT = ("quality", "sim_cycles", "sim_p99_cycles")


def markdown(paths):
    """Prints the records as Markdown; returns whether they agree."""
    ok = True
    records = []
    for p in paths:
        with open(p) as f:
            records.append(json.load(f))
    out = []
    for i, (path, rec) in enumerate(zip(paths, records)):
        out.append(f"### Set {i + 1}: `{os.path.basename(path)}` "
                   f"({rec['seconds']} s runs, seeds {rec['seeds'][0]}-{rec['seeds'][-1]})\n")
        for w, data in rec["workloads"].items():
            names = list(data["stats"])
            logged = [k for k in ("measured_items_per_s", "host_speed") if k in data["runs"][0]]
            out.append(f"**{w}**\n")
            out.append("| seed | " + " | ".join(names + logged) + " |")
            out.append("|---" * (len(names) + len(logged) + 1) + "|")
            for n, st in data["stats"].items():
                if "bound" in st and st["spread"] > st["bound"]:
                    ok = False
            for r in data["runs"]:
                out.append(f"| {r['seed']} | " + " | ".join(
                    [f"{r['metrics'][n]['value']:.6g}" for n in names]
                    + [f"{r[k]:.6g}" for k in logged]) + " |")
            for label, key in (("median", "median"), ("q1", "q1"), ("q3", "q3"),
                               ("spread", "spread"), ("bound", "bound")):
                cells = [f"{data['stats'][n][key]:.4g}" if key in data["stats"][n] else "-"
                         for n in names]
                if key != "bound":
                    cells += [f"{summarize([r[k] for r in data['runs']])[key]:.4g}"
                              for k in logged]
                else:
                    cells += ["-"] * len(logged)
                out.append(f"| {label} | " + " | ".join(cells) + " |")
            out.append("")
    if len(records) > 1:
        out.append("### Between sets\n")
        out.append("| workload | metric | median, set 1 | median, last set | change | bound | within |")
        out.append("|---|---|---|---|---|---|---|")
        first, last = records[0]["workloads"], records[-1]["workloads"]
        for w in first:
            for n, s in first[w]["stats"].items():
                a, b = s["median"], last[w]["stats"][n]["median"]
                change = (b - a) / a if a else 0.0
                within = "bound" not in s or abs(change) <= s["bound"]
                ok &= within
                out.append(f"| {w} | {n} | {a:.6g} | {b:.6g} | {change:+.4f} | {s.get('bound', '-')} "
                           f"| {'yes' if within else '**NO**'} |")
        out.append("")
        for w in first:
            same = all(
                [r["metrics"][n]["value"] for n in EXACT]
                == [q["metrics"][n]["value"] for n in EXACT]
                for rec in records[1:]
                for r, q in zip(first[w]["runs"], rec["workloads"][w]["runs"])
            )
            ok &= same
            out.append(f"- {w}: exact metrics (`{'`, `'.join(EXACT)}`) identical seed for seed "
                       f"in every set: **{'yes' if same else 'NO'}**")
    print("\n".join(out))
    return ok


def main():
    if len(sys.argv) > 2 and sys.argv[1] == "--markdown":
        return 0 if markdown(sys.argv[2:]) else 1
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    declared = bench["per_layer" if args.trace else "end_to_end"]

    record = {"seconds": seconds, "trace": args.trace, "seeds": args.seeds, "workloads": {}}
    steady = True
    for w in workloads:
        runs = []
        for seed in args.seeds:
            r = run_once(bench, w, seed, seconds, args.trace)
            runs.append(r)
            print(f"{w} seed {seed}: {r['wall_s']:.1f} s, correct={r['correct']}, "
                  + ", ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()
                              if k in ("setup_s", "items_per_s", "peak_rss_mb", "quality")),
                  flush=True)
            steady &= r["correct"]
        stats = {}
        for m in declared:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            s = summarize(values) if len(values) > 1 else {"median": values[0]}
            if "bound" in m and len(values) > 1:
                s["bound"] = m["bound"]
                s["ok"] = s["spread"] <= m["bound"] / 3
                steady &= s["ok"]
            stats[m["name"]] = s
        record["workloads"][w] = {"runs": runs, "stats": stats}
        print(f"\n{w}: metric median q1 q3 spread bound")
        for name, s in stats.items():
            if "spread" in s:
                flag = "" if s.get("ok", True) else "  <-- over a third of the bound"
                print(f"  {name:40s} {s['median']:.6g} {s['q1']:.6g} {s['q3']:.6g} "
                      f"{s['spread']:.4f} {s.get('bound', '-')}{flag}")
        print(flush=True)
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
