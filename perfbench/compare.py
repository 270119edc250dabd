#!/usr/bin/env python3
"""Collect benchmark result sets and compare a parent commit with a change.

A result set is a directory holding one `<workload>.jsonl` file per workload;
each line records one run: {"seed", "fingerprint", "exit", "result"}, where
"result" is the JSON object the benchmark prints as its last line.

    python3 perfbench/compare.py collect OUT [--root DIR] [--workloads a,b]
                                 [--seeds 1-10] [--seconds N] [--trace 0|1]
        Runs the benchmark command of DIR/BENCHMARK.json (DIR defaults to
        the current directory) once per seed and workload, seed-major.

    python3 perfbench/compare.py pairs PARENT_DIR CHANGE_DIR PARENT_OUT CHANGE_OUT
                                 [--workloads a,b] [--seeds 1-10] [--seconds N]
        Collects both checkouts in pairs, alternating which side runs first.

    python3 perfbench/compare.py spread OUT
        Per workload and end-to-end metric: median, quartiles and their
        distance as a share of the median, against the metric's bound.

    python3 perfbench/compare.py compare PARENT_OUT CHANGE_OUT
        Applies choosing-metrics section 8 to each metric and workload: the
        pairs the change won, medians and quartiles, and a verdict of
        improved, unchanged, worse or unresolved. One row per workload.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def load_benchmark(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(root, bench, workload, seed, seconds, trace):
    cmd = list(bench["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    fingerprint = next(
        (l.split()[1] for l in lines if l.startswith("sim_fingerprint ")), None)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return {"seed": seed, "fingerprint": fingerprint, "exit": proc.returncode,
            "result": result}


def append(out, workload, record):
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, workload + ".jsonl"), "a") as f:
        f.write(json.dumps(record) + "\n")
    res = record["result"] or {}
    print(f"{workload} seed {record['seed']}: exit {record['exit']}, "
          f"correct {res.get('correct')}, fingerprint {record['fingerprint']}",
          file=sys.stderr)


def workloads_of(bench, arg):
    names = [w["name"] for w in bench["workloads"]]
    return arg.split(",") if arg else names


def cmd_collect(a):
    bench = load_benchmark(a.root)
    seconds = a.seconds or bench["run_seconds"]
    for seed in parse_seeds(a.seeds):
        for w in workloads_of(bench, a.workloads):
            append(a.out, w, run_once(a.root, bench, w, seed, seconds, a.trace))


def cmd_pairs(a):
    sides = [(a.parent_dir, a.parent_out), (a.change_dir, a.change_out)]
    bench = load_benchmark(a.parent_dir)
    seconds = a.seconds or bench["run_seconds"]
    for i, seed in enumerate(parse_seeds(a.seeds)):
        order = sides if i % 2 == 0 else sides[::-1]
        for w in workloads_of(bench, a.workloads):
            for root, out in order:
                append(out, w, run_once(root, load_benchmark(root), w, seed,
                                        seconds, 0))


def load_set(out):
    sets = {}
    for name in sorted(os.listdir(out)):
        if name.endswith(".jsonl"):
            with open(os.path.join(out, name)) as f:
                sets[name[:-6]] = [json.loads(l) for l in f if l.strip()]
    return sets


def values(records, metric):
    return {r["seed"]: r["result"]["metrics"][metric]["value"]
            for r in records
            if r["result"] and metric in r["result"]["metrics"]}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def specs(bench):
    out = {m["name"]: m for m in bench["end_to_end"]}
    for m in bench["per_layer"]:
        out[m["name"]] = dict(m, bound=None)
    return out


def cmd_spread(a):
    bench = load_benchmark(a.root)
    ok = True
    for w, records in load_set(a.out).items():
        failed = [r["seed"] for r in records
                  if r["exit"] != 0 or not (r["result"] or {}).get("correct")]
        print(f"{w}: {len(records)} runs, failed seeds {failed or 'none'}")
        ok &= not failed
        for m in bench["end_to_end"]:
            xs = list(values(records, m["name"]).values())
            if not xs:
                continue
            q1, med, q3 = quartiles(xs)
            spread = (q3 - q1) / med if med else float("inf")
            steady = spread < m["bound"] / 3
            exempt = m["name"] == "setup_s"
            ok &= steady or exempt
            print(f"  {m['name']:<16} median {med:12.6g} {m['unit']:<3} "
                  f"[{q1:.6g}, {q3:.6g}]  spread {spread:6.2%}  "
                  f"bound {m['bound']:.0%}  "
                  f"{'steady' if steady else 'exempt' if exempt else 'TOO WIDE'}")
    print("all spreads below a third of their bounds" if ok
          else "some spreads are too wide")
    return 0 if ok else 1


def verdict(par, chg, better, bound):
    """choosing-metrics section 8 for one metric on one workload."""
    sign = 1 if better == "lower" else -1
    seeds = sorted(set(par) & set(chg))
    pairs = [(par[s], chg[s]) for s in seeds]
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) > 0)
    pq1, pm, pq3 = quartiles(list(par.values()))
    cq1, cm, cq3 = quartiles(list(chg.values()))
    worse_by = sign * (cm - pm) / pm if pm else 0.0
    moved = abs(cm - pm) > pq3 - pq1
    spread = (pq3 - pq1) / pm if pm else 0.0
    if pairs and wins >= 0.9 * len(pairs) and moved and worse_by < 0:
        v = "improved"
    elif bound is None:
        v = "worse" if pairs and losses >= 0.9 * len(pairs) and moved else "unchanged"
    elif worse_by > bound:
        v = "worse"
    elif spread > bound and not all(
            sign * (c - p) < 0 for p in par.values() for c in chg.values()):
        v = "unresolved"
    else:
        v = "unchanged"
    return (pm, pq1, pq3), (cm, cq1, cq3), wins, len(pairs), v


def cmd_compare(a):
    bench = load_benchmark(a.root)
    parent, change = load_set(a.parent_out), load_set(a.change_out)
    workloads = [w for w in parent if w in change]
    for name, spec in specs(bench).items():
        rows = []
        for w in workloads:
            par, chg = values(parent[w], name), values(change[w], name)
            if par and chg:
                rows.append((w,) + verdict(par, chg, spec["better"], spec["bound"]))
        if not rows:
            continue
        bound = "no bound" if spec["bound"] is None else f"bound {spec['bound']:.0%}"
        print(f"{name} ({spec['unit']}, {spec['better']} is better, {bound})")
        for w, (pm, pq1, pq3), (cm, cq1, cq3), wins, n, v in rows:
            print(f"  {w:<18} parent {pm:12.6g} [{pq1:.6g}, {pq3:.6g}]  "
                  f"change {cm:12.6g} [{cq1:.6g}, {cq3:.6g}]  "
                  f"change won {wins}/{n}  {v}")
    print("sim_fingerprint")
    for w in workloads:
        pf = {r["seed"]: r["fingerprint"] for r in parent[w]}
        cf = {r["seed"]: r["fingerprint"] for r in change[w]}
        seeds = sorted(set(pf) & set(cf))
        same = sum(1 for s in seeds if pf[s] == cf[s])
        print(f"  {w:<18} identical on {same} of {len(seeds)} seeds")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("out")
    c.add_argument("--root", default=".")
    c.add_argument("--workloads")
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--seconds", type=int)
    c.add_argument("--trace", type=int, default=0, choices=[0, 1])
    c = sub.add_parser("pairs")
    for arg in ["parent_dir", "change_dir", "parent_out", "change_out"]:
        c.add_argument(arg)
    c.add_argument("--workloads")
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--seconds", type=int)
    c = sub.add_parser("spread")
    c.add_argument("out")
    c.add_argument("--root", default=".")
    c = sub.add_parser("compare")
    c.add_argument("parent_out")
    c.add_argument("change_out")
    c.add_argument("--root", default=".")
    a = p.parse_args()
    return {"collect": cmd_collect, "pairs": cmd_pairs, "spread": cmd_spread,
            "compare": cmd_compare}[a.cmd](a) or 0


if __name__ == "__main__":
    sys.exit(main())
