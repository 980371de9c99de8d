#!/usr/bin/env python3
"""The repo benchmark: rescheck driven through its CLI, one child at a time.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout.  It builds bin/rescheck.exe,
perfbench/tool/pbtool.exe and perfbench/host with dune, then repeats
rounds over the workload for --seconds seconds.  A round regenerates the
workload's DIMACS inputs from --seed and takes the instances one by one
through their set-up steps and their measured steps, so set-up and
measurement are spread evenly over the run.  Times are the CPU time
(user+sys) of the rescheck child processes and peak RSS their own, both
read with wait4 by host/spawn.exe.  After every child the harness runs
host/ref.exe, a
fixed piece of CPU work that shares no code with the repository, and
divides each round's times by that round's reference time, so that the
shared host's slow periods cancel.  Every verdict is checked.  With
--trace 1 the run makes one round and then times each library layer
in-process (pbtool layers).  The last stdout line is one JSON object:
correct, attempted, failed, metrics.  See METRICS.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESCHECK = os.path.join(ROOT, "_build", "default", "bin", "rescheck.exe")
PBTOOL = os.path.join(ROOT, "_build", "default", "perfbench", "tool", "pbtool.exe")
HOST_ROOT = os.path.join(ROOT, "perfbench", "host")
REF = os.path.join(HOST_ROOT, "_build", "default", "ref.exe")
SPAWN = os.path.join(HOST_ROOT, "_build", "default", "spawn.exe")
# about the CPU seconds of one reference call on the development host (a
# 2-vCPU Xeon KVM guest at 2.0 GHz): end-to-end times are reported at that
# host's speed
REF_NOMINAL_S = 0.045
CHILD_TIMEOUT_S = 150

STRATEGIES = ["df", "bf", "hybrid", "window", "par", "hint"]
CHECK_FLAGS = {"window": ["--window", "128"], "par": ["--jobs", "2"]}
# bf, hint, window and par replay the same schedule: their check --json
# reports must be identical in these fields
BF_FAMILY = ["bf", "hint", "window", "par"]
BF_FIELDS = ["clauses_built", "resolution_steps", "core_original_ids",
             "learned_built_ids"]

# name -> (instances, smoke instances); every trace is binary
WORKLOADS = {
    "recheck_archive": (
        ["equiv_large", "pipe_2", "equiv_seeded", "rand_seeded"],
        ["equiv_tiny", "ring_small", "equiv_seeded_tiny", "rand_seeded_tiny"],
    ),
    "prove_archive": (
        ["fpga_route", "php_8", "rand_unsat", "pipe_2", "longmult_hi", "equiv_large",
         "route_seeded", "rand_seeded", "equiv_seeded"],
        ["equiv_tiny", "php_6", "ring_small", "route_seeded_tiny", "rand_seeded_tiny",
         "equiv_seeded_tiny"],
    ),
}

END_TO_END = [
    ("setup_s", "s"), ("total_cpu_s", "s"), ("solve_cpu_s", "s"), ("check_cpu_s", "s"),
    ("check_peak_rss_mb", "MB"), ("solve_peak_rss_mb", "MB"), ("trace_mb", "MB"),
    ("ops", "count"),
]

PER_LAYER = [
    ("sat.parse_s", "s"), ("sat.parse_ns_per_byte", "ns/B"),
    ("solver.solve_s", "s"), ("solver.conflicts", "count"),
    ("solver.propagations", "count"), ("solver.decisions", "count"),
    ("solver.restarts", "count"), ("solver.us_per_conflict", "us"),
    ("solver.props_per_s", "1/s"), ("solver.learned_lits_avg", "lits"),
    ("trace.records", "count"), ("trace.bytes_per_record", "B"),
    ("trace.encode_ns_per_record", "ns"), ("trace.decode_ns_per_record", "ns"),
    ("trace.solve_overhead_pct", "%"),
    ("analysis.lint_ns_per_record", "ns"),
    ("proof.replay_s", "s"), ("proof.resolution_steps", "count"),
    ("proof.us_per_step", "us"), ("proof.merged_literals", "count"),
    ("proof.arena_peak_bytes", "B"), ("proof.arena_bytes_per_clause", "B"),
] + [
    (f"checker.{s}.{m}", u) for s in STRATEGIES for m, u in [
        ("check_s", "s"), ("us_per_step", "us"), ("peak_live_clauses", "count"),
        ("peak_mem_words", "words"), ("arena_bytes", "B")]
] + [
    ("checker.bf.pass_one_s", "s"), ("checker.bf.pass_two_s", "s"),
    ("checker.par.wavefronts", "count"), ("checker.par.max_wavefront_width", "count"),
    ("checker.par.overhead_vs_bf", "ratio"), ("checker.window.overhead_vs_bf", "ratio"),
    ("layers.unattributed_s", "s"),
]


def fail_setup(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


# --- children --------------------------------------------------------------

class Op:
    """One rescheck invocation: wall and CPU seconds, peak RSS, verdict.
    role is "setup", "pass" (the workload's measured work) or "verify"
    (checks of what the pass wrote, outside the pass)."""

    def __init__(self, kind, inst, role, wall, cpu, rss_mb):
        self.kind, self.inst, self.role = kind, inst, role
        self.wall, self.cpu, self.rss_mb = wall, cpu, rss_mb
        self.failed = False
        self.why = ""

    def fail(self, why):
        if not self.failed:
            self.failed, self.why = True, why


def spawn(argv, out_path):
    """Run argv to completion through perfbench/host/spawn.exe, its output
    to out_path; returns (exit code, output, wall seconds, CPU seconds,
    peak RSS in MB).  Linux starts a child's peak RSS from the resident
    size of the process that forks it, so a child forked by this harness
    would report at least the harness's size; spawn.exe is a small C
    program, so the peak it reports is the child's own."""
    p = subprocess.run([SPAWN, out_path, str(CHILD_TIMEOUT_S)] + argv, cwd=ROOT,
                       stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S + 30)
    fields = p.stdout.split()
    if p.returncode != 0 or len(fields) != 5:
        fail_setup(f"could not run {argv[0]}: {p.stdout}")
    code, user, system, rss_kb, wall = int(fields[0]), *map(float, fields[1:])
    with open(out_path, "r", errors="replace") as f:
        return code, f.read(), wall, user + system, rss_kb / 1024


class Runner:
    def __init__(self, work):
        self.work = work
        self.ref_cpu = []

    def reference(self):
        code, out, _, cpu, _ = spawn([REF], self.path("ref.out"))
        if code != 0:
            fail_setup("the speed reference failed:\n" + out)
        self.ref_cpu.append(cpu)

    def path(self, name):
        return os.path.join(self.work, name)

    def rescheck(self, kind, inst, role, args, expect_code, expect_line, writes=None):
        code, out, wall, cpu, rss_mb = spawn([RESCHECK] + args, self.path("child.out"))
        op = Op(kind, inst, role, wall, cpu, rss_mb)
        self.reference()
        if code != expect_code:
            op.fail(f"exit {code}, expected {expect_code}")
        elif expect_line and expect_line not in out.splitlines():
            op.fail(f"missing {expect_line!r}")
        op.written = os.path.getsize(writes) if writes and os.path.exists(writes) else 0
        op.trace_md5 = md5(writes) if writes and kind == "solve" and not op.failed else None
        op.conflicts = solve_conflicts(out) if kind == "solve" else None
        op.report = None
        if kind.startswith("check.") and not op.failed:
            op.report = check_report(out)
            if op.report is None:
                op.fail("unreadable check report")
        return op

    def solve(self, inst, role, trace):
        return self.rescheck("solve", inst, role,
                             ["solve", self.path(inst + ".cnf"), "--trace", trace,
                              "--format", "binary"], 20, "s UNSATISFIABLE", writes=trace)

    def check(self, inst, role, trace, strategy):
        args = ["check", self.path(inst + ".cnf"), trace, "--json"]
        if strategy != "df":
            args += ["--mode", strategy] + CHECK_FLAGS.get(strategy, [])
        return self.rescheck("check." + strategy, inst, role, args, 0,
                             "s VERIFIED UNSATISFIABLE")

    def hint(self, inst, role, src, dst):
        return self.rescheck("hint", inst, role, ["hint", src, "-o", dst], 0, "",
                             writes=dst)


def check_report(out):
    """The JSON report that check --json prints, or None."""
    text = out.strip()
    try:
        return json.loads(text[: text.rindex("}") + 1])
    except ValueError:
        return None


def solve_conflicts(out):
    for line in out.splitlines():
        if line.startswith("c decisions"):
            for part in line[2:].split(","):
                k, v = part.split()
                if k == "conflicts":
                    return int(v)
    return None


def md5(path):
    h = hashlib.md5()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# --- workloads -------------------------------------------------------------

class Workload:
    def __init__(self, name, seed, smoke):
        self.name = name
        insts, smoke_insts = WORKLOADS[name]
        self.insts = smoke_insts if smoke else insts
        self.seed = seed
        self.work = os.path.join(ROOT, ".bench_work", ("smoke-" if smoke else "") + name)
        self.rng = {}

    def round(self, r):
        """One round: write the inputs, then per instance its set-up steps
        followed by its measured ones.  recheck_archive solves and hints
        the archive (set-up) and checks it six ways (the pass);
        prove_archive solves (the pass) and verifies the trace with df.
        Returns the round's set-up wall seconds, its ops and the host's
        slowness: the round's mean reference time over REF_NOMINAL_S."""
        r.ref_cpu = []
        t0 = time.perf_counter()
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        code, out, _, _, _ = spawn([PBTOOL, "gen", self.work, str(self.seed)] + self.insts,
                                   os.path.join(self.work, "gen.out"))
        if code != 0:
            fail_setup("instance generation failed:\n" + out)
        self.rng = dict(line.split() for line in out.splitlines())
        setup_s = time.perf_counter() - t0
        ops = []
        for inst in self.insts:
            trace = r.path(inst + ".bin")
            if self.name == "recheck_archive":
                v2 = r.path(inst + ".v2")
                ops.append(r.solve(inst, "setup", trace))
                ops.append(r.hint(inst, "setup", trace, v2))
                for s in STRATEGIES:
                    ops.append(r.check(inst, "pass", v2 if s == "hint" else trace, s))
            else:
                ops.append(r.solve(inst, "pass", trace))
                ops.append(r.check(inst, "verify", trace, "df"))
        setup_s += sum(op.wall for op in ops if op.role == "setup")
        return setup_s, ops, statistics.fmean(r.ref_cpu) / REF_NOMINAL_S


def sandwich(df, hy, bf):
    """Why the hybrid's report disagrees with df's and bf's, or None.  The
    hybrid builds every clause reachable from the final conflict, df only
    those its lazy traversal demands, bf all: df <= hybrid <= bf."""
    if not set(df["learned_built_ids"]) <= set(hy["learned_built_ids"]):
        return "df built a clause the hybrid did not"
    if not set(df["core_original_ids"]) <= set(hy["core_original_ids"]):
        return "df core not within the hybrid core"
    if not df["resolution_steps"] <= hy["resolution_steps"] <= bf["resolution_steps"]:
        return "resolution steps not df <= hybrid <= bf"
    if not df["clauses_built"] <= hy["clauses_built"] <= bf["clauses_built"]:
        return "clauses built not df <= hybrid <= bf"
    return None


def agree(ops):
    """Agreement between the strategies' check reports within a round."""
    by_inst = {}
    for op in ops:
        if op.report:
            by_inst.setdefault(op.inst, {})[op.kind[6:]] = op
    for checks in by_inst.values():
        family = [checks[s] for s in BF_FAMILY if s in checks]
        for op in family[1:]:
            for f in BF_FIELDS:
                if op.report.get(f) != family[0].report.get(f):
                    op.fail(f"{f} disagrees with {family[0].kind}")
        if all(s in checks for s in ("df", "hybrid", "bf")):
            why = sandwich(checks["df"].report, checks["hybrid"].report,
                           checks["bf"].report)
            if why:
                checks["hybrid"].fail(why)


def repeatable(rounds):
    """Every round writes the same bytes and conflict counts as the first."""
    first = {(op.inst, op.kind): op for op in rounds[0]}
    for ops in rounds[1:]:
        for op in ops:
            ref = first[(op.inst, op.kind)]
            for f in ("written", "conflicts", "trace_md5"):
                if getattr(op, f) != getattr(ref, f):
                    op.fail(f"{f} differs from the first round")


def fingerprint(wl, ops):
    """Exact counts per cell: these repeat byte for byte on one commit."""
    cells = {}
    for op in ops:
        if op.failed:
            continue
        if op.kind == "solve":
            cell = {"conflicts": op.conflicts, "trace_bytes": op.written}
        elif op.report:
            cell = {"resolution_steps": op.report["resolution_steps"],
                    "peak_live_clauses": op.report["peak_live_clauses"]}
        else:
            continue
        cells[f"{op.inst}/{op.kind}"] = cell
    return {"workload": wl.name, "seed": wl.seed, "rng": wl.rng, "cells": cells}


# --- statistics ------------------------------------------------------------

def summary(values):
    """(mean, median, q1, q3, n) of the per-round values."""
    v = sorted(values)
    q1, q3 = (v[0], v[0]) if len(v) == 1 else statistics.quantiles(v, n=4)[::2]
    return statistics.fmean(v), statistics.median(v), q1, q3, len(v)


def e2e_metrics(rounds, setups, slowness):
    """name -> summary for every end-to-end metric.  Each is one number per
    round, times divided by the round's slowness; the value reported is
    setup_s's median and the others' mean.  A run holds two to five rounds
    and a shared host's slow periods last seconds to minutes: the mean of
    the rounds follows the whole run, where their median would follow a
    single round."""
    def per_round(f, scale=False):
        return summary([f(ops) / (k if scale else 1) for ops, k in zip(rounds, slowness)])

    def total(pred, field):
        return per_round(lambda ops: sum(getattr(o, field) for o in ops if pred(o)), True)

    def peak(pred):
        return per_round(lambda ops: max(o.rss_mb for o in ops if pred(o)))

    def in_pass(op):
        return op.role == "pass"

    def is_solve(op):
        return op.kind == "solve"

    def is_check(op):
        return op.kind.startswith("check.")

    return {
        "setup_s": summary([t / k for t, k in zip(setups, slowness)]),
        "total_cpu_s": total(in_pass, "cpu"),
        "solve_cpu_s": total(is_solve, "cpu"),
        "check_cpu_s": total(is_check, "cpu"),
        "check_peak_rss_mb": peak(is_check),
        "solve_peak_rss_mb": peak(is_solve),
        "trace_mb": per_round(lambda ops: sum(o.written for o in ops) / 1e6),
        "ops": per_round(lambda ops: sum(map(in_pass, ops))),
    }


def reported(name, s):
    return s[1] if name == "setup_s" else s[0]


# --- the traced run --------------------------------------------------------

def traced(wl, r, cli, pass_cpu):
    """Per-layer metrics from pbtool layers, cross-checked against the CLI."""
    code, out, _, _, _ = spawn([PBTOOL, "layers", wl.work] + wl.insts,
                               r.path("layers.out"))
    lay = {}
    for line in out.splitlines():
        try:
            d = json.loads(line)
            lay[d["name"]] = d
        except (ValueError, KeyError, TypeError):
            pass
    failed = 0
    if code != 0 or set(lay) != set(wl.insts):
        print("perfbench: traced run failed:\n" + out[-2000:], file=sys.stderr)
        return None, len(wl.insts)

    # the in-process run must reproduce what the CLI printed
    for op in cli:
        d = lay[op.inst]
        bad = None
        if op.kind == "solve":
            if op.conflicts != d["conflicts"]:
                bad = "solver conflicts differ from the traced run"
            elif op.trace_md5 != d["trace_md5"]:
                bad = "trace bytes differ from the traced run"
        elif op.report:
            c = d["checks"][op.kind[6:]]
            if not c["ok"]:
                bad = "traced check failed: " + c.get("error", "")
            elif any(op.report[f] != c[f] for f in ("clauses_built", "resolution_steps")):
                bad = "check counts differ from the traced run"
        if bad and not op.failed:
            op.fail(bad)
            failed += 1
    broken = [d["name"] for d in lay.values()
              if not (d["encode_same"] and d["lint_clean"] and d["decoded"] == d["records"]
                      and all(c["ok"] for c in d["checks"].values()))]
    if broken:
        print("perfbench: traced run disagrees on " + ", ".join(broken), file=sys.stderr)
        return None, failed + len(broken)

    L = list(lay.values())

    def tot(k):
        return sum(d[k] for d in L)

    def ck(s, k, agg=sum):
        return agg(d["checks"][s][k] for d in L)

    records = tot("records")
    m = {
        "sat.parse_s": tot("parse_s"),
        "sat.parse_ns_per_byte": tot("parse_s") / tot("cnf_bytes") * 1e9,
        "solver.solve_s": tot("solve_s"),
        "solver.conflicts": tot("conflicts"),
        "solver.propagations": tot("propagations"),
        "solver.decisions": tot("decisions"),
        "solver.restarts": tot("restarts"),
        "solver.us_per_conflict": tot("solve_s") / tot("conflicts") * 1e6,
        "solver.props_per_s": tot("propagations") / tot("solve_s"),
        "solver.learned_lits_avg": tot("learned_literals") / tot("learned_clauses"),
        "trace.records": records,
        "trace.bytes_per_record": tot("trace_bytes") / records,
        "trace.encode_ns_per_record": tot("encode_s") / records * 1e9,
        "trace.decode_ns_per_record": tot("decode_s") / records * 1e9,
        "trace.solve_overhead_pct":
            (tot("solve_traced_s") - tot("solve_s")) / tot("solve_s") * 100,
        "analysis.lint_ns_per_record": tot("lint_s") / records * 1e9,
        "proof.replay_s": tot("replay_s"),
        "proof.resolution_steps": tot("replay_steps"),
        "proof.us_per_step": tot("replay_s") / tot("replay_steps") * 1e6,
        "proof.merged_literals": tot("replay_merged"),
        "proof.arena_peak_bytes": max(d["replay_arena_peak"] for d in L),
        "proof.arena_bytes_per_clause": tot("replay_arena_peak") / tot("replay_peak_live"),
    }
    for s in STRATEGIES:
        m[f"checker.{s}.check_s"] = ck(s, "s")
        m[f"checker.{s}.us_per_step"] = ck(s, "s") / ck(s, "resolution_steps") * 1e6
        m[f"checker.{s}.peak_live_clauses"] = ck(s, "peak_live_clauses", max)
        m[f"checker.{s}.peak_mem_words"] = ck(s, "peak_mem_words", max)
        m[f"checker.{s}.arena_bytes"] = ck(s, "arena_bytes", max)
    m["checker.bf.pass_one_s"] = ck("bf", "pass_one_s")
    m["checker.bf.pass_two_s"] = ck("bf", "pass_two_s")
    m["checker.par.wavefronts"] = ck("par", "wavefronts")
    m["checker.par.max_wavefront_width"] = ck("par", "max_wavefront_width", max)
    m["checker.par.overhead_vs_bf"] = ck("par", "s") / ck("bf", "s")
    m["checker.window.overhead_vs_bf"] = ck("window", "s") / ck("bf", "s")

    # The layer time each CLI invocation of the pass maps to: a solve is
    # parse + solve into the trace writer; a check is parse + the checker
    # (which decodes the trace) + the lint it taps onto that decode.
    attributed = 0.0
    for op in cli:
        d = lay[op.inst]
        if op.role != "pass":
            continue
        if op.kind == "solve":
            attributed += d["parse_s"] + d["solve_traced_s"]
        elif op.kind.startswith("check."):
            attributed += (d["parse_s"] + d["checks"][op.kind[6:]]["s"]
                           + max(0.0, d["lint_s"] - d["decode_s"]))
    m["layers.unattributed_s"] = pass_cpu - attributed
    return m, failed


# --- main ------------------------------------------------------------------

def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isfile(os.path.join(ROOT, "bin", "rescheck.ml"))):
        fail_setup("run from a source checkout of the repository (no dune-project/bin here)")
    dune = shutil.which("dune")
    cmd = [dune] if dune else (["opam", "exec", "--", "dune"] if shutil.which("opam") else None)
    if cmd is None:
        fail_setup("dune not found")
    env = dict(os.environ, DUNE_CACHE="disabled")
    # perfbench/host is a dune project of its own, built apart from the
    # repository so that no change to the repository's build reaches it
    for root, targets in [(ROOT, ["./bin/rescheck.exe", "./perfbench/tool/pbtool.exe"]),
                          (HOST_ROOT, ["./ref.exe", "./spawn.exe"])]:
        p = subprocess.run(cmd + ["build", "--root", root] + targets, cwd=root, env=env,
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        if p.returncode != 0:
            fail_setup("build failed:\n" + p.stdout.decode(errors="replace")[-4000:])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="quick() registry families instead of the real-sized ones")
    a = ap.parse_args()
    build()
    wl = Workload(a.workload, a.seed, a.smoke)
    r = Runner(wl.work)

    # rounds until the next would overrun --seconds; the last round's
    # files are the ones the traced run reads
    setups, rounds, slowness = [], [], []
    t0 = time.perf_counter()
    while True:
        seconds, ops, slow = wl.round(r)
        agree(ops)
        setups.append(seconds)
        rounds.append(ops)
        slowness.append(slow)
        elapsed = time.perf_counter() - t0
        if a.trace or elapsed + elapsed / len(rounds) > a.seconds:
            break
    all_ops = [op for ops in rounds for op in ops]
    repeatable(rounds)
    e2e = e2e_metrics(rounds, setups, slowness)
    with open(os.path.join(wl.work, "fingerprint.json"), "w") as f:
        json.dump(fingerprint(wl, rounds[0]), f, indent=1, sort_keys=True)

    extra_failed = 0
    if a.trace:
        pass_cpu = sum(op.cpu for op in rounds[0] if op.role == "pass")
        metrics, extra_failed = traced(wl, r, rounds[0], pass_cpu)
        metrics = metrics or {}
        units = dict(PER_LAYER)
        print(f"# {wl.name} seed={wl.seed} traced run; the pass took {pass_cpu:.4f} s CPU")
        for k, unit in PER_LAYER:
            if k in metrics:
                print(f"  {k:<38} {metrics[k]:.6g} {unit}")
    else:
        metrics = {k: reported(k, e2e[k]) for k, _ in END_TO_END}
        units = dict(END_TO_END)
        print(f"# {wl.name} seed={wl.seed}: {len(rounds)} rounds in "
              f"{time.perf_counter() - t0:.1f} s")
        for k, unit in END_TO_END:
            mean, med, q1, q3, n = e2e[k]
            print(f"  {k:<18} mean {mean:<10.4f} median {med:<10.4f} q1 {q1:<10.4f} "
                  f"q3 {q3:<10.4f} n={n} {unit}")
        print("  host slowness per round (reference s / REF_NOMINAL_S): "
              + " ".join(f"{k:.3f}" for k in slowness))

    failed_ops = [op for op in all_ops if op.failed]
    for op in failed_ops:
        print(f"  FAILED {op.kind} {op.inst}: {op.why}")
    failed = len(failed_ops) + extra_failed
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": len(all_ops) + (len(wl.insts) if a.trace else 0),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


if __name__ == "__main__":
    main()
