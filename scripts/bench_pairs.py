#!/usr/bin/env python3
"""Paired benchmark runs of a parent commit against this checkout, summarized
as a ``BENCH_<n>.json``.

    python3 scripts/bench_pairs.py --parent HEAD --scratch /tmp/bench \\
        --claim grid-solves:items_per_s --out BENCH_10.json

The parent's committed files are exported with ``git archive`` into
``<scratch>/parent``; the change side is the working tree this script lives
in.  For each workload of ``BENCHMARK.json`` and each of the seeds 101-110,
one run of ``python3 perfbench/run.py --workload W --seed S --seconds T``
(T is ``run_seconds`` of ``BENCHMARK.json``) goes to each side, the sides
alternating which runs first.  Then one ``--trace 1`` run per
side at seed 201 gives the per-layer figures, and one more pair at seed 977
(a seed not used while the change was written) checks the claim.  Without
``--claim`` the file records ``"claim": null`` and that pair is not run.
Every run's result line is kept under ``runs_in_order``, and the output file
is rewritten after each run, so an interrupted run keeps what it measured.

The claim is met when the change is better on at least 9 in 10 pairs, the
median gain exceeds the interquartile range of the parent's runs, the change
is also better in the confirmation pair, and the change fails no more items
than the parent, counting the confirmation pair.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
import tarfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = list(range(101, 111))
TRACE_SEED = 201
CONFIRM_SEED = 977


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent side")
    ap.add_argument("--scratch", required=True, help="directory for the parent's files")
    ap.add_argument("--out", required=True, help="the BENCH_<n>.json to write")
    ap.add_argument("--claim", default=None,
                    help="workload:metric the change claims (omit for a change that claims none)")
    return ap.parse_args(argv)


def export_parent(rev, scratch):
    """The committed files of rev, unpacked into <scratch>/parent."""
    dest = os.path.join(scratch, "parent")
    if os.path.exists(dest):
        raise SystemExit(f"{dest} exists; give an empty --scratch")
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")
    return dest


def run(root, workload, seed, seconds, trace=False):
    """One perfbench run in checkout root: (result object, environment)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    out = subprocess.run(cmd, cwd=root, check=True, capture_output=True, text=True).stdout
    lines = out.strip().splitlines()
    env = next(json.loads(line.split(" ", 1)[1]) for line in lines
               if line.startswith("environment "))
    return json.loads(lines[-1]), env


def quartiles(xs):
    q1, med, q3 = np.percentile(xs, [25, 50, 75])
    return {"median": round(float(med), 6), "q1": round(float(q1), 6), "q3": round(float(q3), 6)}


def summarize(runs, metrics, claim):
    """The BENCH layout from the runs so far."""
    better = {m["name"]: m["better"] for m in metrics}
    out = {}
    for w in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == w]
        paired = {side: {r["seed"]: r for r in mine if r["side"] == side
                         and r["seed"] in SEEDS and not r["trace"]}
                  for side in ("parent", "change")}
        pairs = sorted(set(paired["parent"]) & set(paired["change"]))
        end_to_end = {}
        for name in better:
            values = {side: [paired[side][s]["metrics"][name] for s in pairs
                             if name in paired[side][s]["metrics"]]
                      for side in paired}
            if not values["parent"] or len(values["parent"]) != len(values["change"]):
                continue
            sign = 1.0 if better[name] == "higher" else -1.0
            wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
            end_to_end[name] = {"parent": quartiles(values["parent"]),
                                "change": quartiles(values["change"]),
                                "change_better_pairs": int(wins), "pairs": len(pairs)}
        traced = {r["side"]: r["metrics"] for r in mine if r["trace"]}
        out[w] = {
            "end_to_end": end_to_end,
            "failed": {side: sum(paired[side][s]["failed"] for s in pairs) for side in paired},
            "attempted": {side: sum(paired[side][s]["attempted"] for s in pairs)
                          for side in paired},
            f"per_layer_trace_seed{TRACE_SEED}": {
                k: {side: round(traced[side][k], 6) for side in ("parent", "change")}
                for k in traced.get("parent", {}) if k in traced.get("change", {})},
            "runs_in_order": [
                {"side": r["side"], "seed": r["seed"], "trace": r["trace"],
                 "attempted": r["attempted"], "failed": r["failed"],
                 **{k: round(v, 6) for k, v in r["metrics"].items()}}
                for r in mine],
        }
        confirm = {r["side"]: r for r in mine if r["seed"] == CONFIRM_SEED and not r["trace"]}
        if confirm:
            out[w]["failed"][f"seed{CONFIRM_SEED}"] = {s: r["failed"] for s, r in confirm.items()}
    if claim is None:
        return None, out
    cw, cm = claim
    row = out.get(cw, {}).get("end_to_end", {}).get(cm)
    claim_block = {"workload": cw, "metric": cm}
    if row:
        sign = 1.0 if better[cm] == "higher" else -1.0
        gain = row["change"]["median"] - row["parent"]["median"]
        iqr = row["parent"]["q3"] - row["parent"]["q1"]
        confirm = {r["side"]: r for r in runs
                   if r["workload"] == cw and r["seed"] == CONFIRM_SEED and not r["trace"]}
        failed = {side: out[cw]["failed"][side] + (confirm[side]["failed"] if side in confirm
                                                   else 0)
                  for side in ("parent", "change")}
        confirmed = len(confirm) == 2 and sign * (confirm["change"]["metrics"][cm]
                                                  - confirm["parent"]["metrics"][cm]) > 0
        claim_block.update(
            change_better_pairs=row["change_better_pairs"], pairs=row["pairs"],
            median_gain=round(gain, 6), parent_iqr=round(iqr, 6),
            failed=failed,
            met=bool(row["change_better_pairs"] >= 0.9 * row["pairs"]
                     and sign * gain > iqr and confirmed
                     and failed["change"] <= failed["parent"]))
        if confirm:
            claim_block[f"confirm_seed{CONFIRM_SEED}"] = {
                side: round(r["metrics"][cm], 6) for side, r in confirm.items()}
    return claim_block, out


def main(argv=None):
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    claim = tuple(args.claim.split(":", 1)) if args.claim else None
    rev = subprocess.run(["git", "rev-parse", "--short", args.parent], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    roots = {"parent": export_parent(args.parent, args.scratch), "change": ROOT}
    command = " ".join(bench["command"])
    header = {
        "description": (
            f"Paired perfbench runs, parent commit {rev} against this change: {command} "
            f"--workload W --seed S --seconds {seconds:g}, from each checkout, sides "
            f"alternating which runs first. Seeds {SEEDS[0]}-{SEEDS[-1]} give the "
            f"end-to-end figures (median and quartiles of the runs per side); one --trace 1 "
            f"run per side at seed {TRACE_SEED} gives the per-layer figures, which are "
            f"means per traced item. Seed {CONFIRM_SEED}, not used while the change was "
            f"written, confirms the claim with one more pair."),
        "parent": rev,
    }
    runs, env = [], None

    def record(side, workload, seed, trace=False):
        nonlocal env
        result, env = run(roots[side], workload, seed, seconds, trace)
        runs.append({"side": side, "workload": workload, "seed": seed, "trace": trace,
                     "attempted": result["attempted"], "failed": result["failed"],
                     "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
        print(f"{workload} seed {seed} {side}{' trace' if trace else ''}: "
              f"{ {k: round(v, 4) for k, v in runs[-1]['metrics'].items()} }", flush=True)
        claim_block, summary = summarize(runs, bench["end_to_end"], claim)
        with open(args.out, "w") as fh:
            json.dump({**header, "claim": claim_block, "environment": env,
                       "workloads": summary}, fh, indent=1)
            fh.write("\n")

    for workload in workloads:
        for k, seed in enumerate(SEEDS):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                record(side, workload, seed)
        for side in ("parent", "change"):
            record(side, workload, TRACE_SEED, trace=True)
    if claim is not None:
        for side in ("change", "parent"):
            record(side, claim[0], CONFIRM_SEED)
    return 0


if __name__ == "__main__":
    sys.exit(main())
