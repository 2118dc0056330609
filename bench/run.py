#!/usr/bin/env python3
"""Benchmark of logeq: end-to-end metrics per workload, or one traced run.

    python3 bench/run.py --workload verify --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Workloads (see README.md): `verify`, `phase_sweep` and `cli_cold`; `all`
runs each in turn in a child process.  The benchmark runs logeq from the
source tree: `src/` goes on the path of this process and of every child.

A run is a fixed number of whole rounds of operations (workloads.py), so
it does the same work however fast the program is; --seconds is accepted
but does not change the work.  The run's operations are dealt out to
worker processes, started one after the other, because the speed of small
numpy operations differs by up to 2x from one process to the next on the
same machine.  Each worker checks every kept output against mpmath
references (refs.py) after its timed loop.  With --trace 0 the run reports
the end-to-end metrics over all workers; with --trace 1 it runs one
untraced and one traced round in this process and reports the per-layer
metrics (tracing.py) and the tracing overhead.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and metrics.
"""

import os

# BLAS pinned to one thread, here and in every child, before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ast
import glob
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("verify", "phase_sweep", "cli_cold")
TAIL_BEYOND = 10
# Rounds per run.  A run attempts 65 verify, 1024 phase_sweep or 42
# cli_cold operations, so the tail percentile has at least 10 beyond it,
# and measures about 20-40 s on the machine in README.md.
ROUNDS = {"verify": 5, "phase_sweep": 32, "cli_cold": 6}
# Worker processes per run; worker j of W runs operations j, j + W, ... of
# the run.  Each new process draws its own memory layout, and the median
# latency of phase_sweep differs by up to 2x from one process to the next,
# so the in-process workloads spread their operations over many workers.
# Each W is prime to the round length (13, 32, 7), so that every worker
# gets every slot of a round.  setup_s is the median of the workers' set-up
# times.
WORKERS = {"verify": 10, "phase_sweep": 15, "cli_cold": 3}
PROBE_REPEATS = 3     # cli.import_ms and cli.dep_import_ms are medians of 3
CHILD_TIMEOUT = 120.0

CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p))

END_TO_END_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MiB"}


@dataclass
class Record:
    item: object
    output: object
    error: str | None
    seconds: float
    failed: bool


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def run_child(argv):
    """Run one child to completion (killed and reaped on timeout)."""
    return subprocess.run(argv, cwd=ROOT, env=CHILD_ENV, capture_output=True,
                          timeout=CHILD_TIMEOUT)


def make_workload(name, logeq):
    """(round inputs, operation, failure test) for one workload."""
    import workloads as w
    if name == "verify":
        return w.verify_round, lambda item: w.verify_op(logeq, item), w.verify_failed
    if name == "phase_sweep":
        return w.phase_round, lambda item: w.phase_op(logeq, item), w.phase_failed

    def cli_op(cmd):
        proc = run_child([sys.executable, "-m", "logeq", *cmd])
        return proc.returncode, proc.stdout, proc.stderr

    return w.cli_round, cli_op, lambda out: out[0] != 0


def run_items(items, op, failed, records, tracer=None):
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.current_op[0] = i
        t0 = time.perf_counter()
        try:
            out, err = op(item), None
        except Exception as exc:  # a failed operation is counted, not fatal
            out, err = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        records.append(Record(item, out, err, dt, err is not None or failed(out)))


def worker_items(workload, rounds, seed, worker):
    """Worker `worker`'s share of the run's operations, in run order."""
    items = [item for r in range(ROUNDS[workload]) for item in rounds(seed, r)]
    return items[worker::WORKERS[workload]]


# ---------------------------------------------------------------------------
# Child processes: workers and import probes
# ---------------------------------------------------------------------------

def run_workers(args):
    """Start the workers one after the other; pool what they report."""
    count = WORKERS[args.workload]
    reports, setup = [], []
    for j in range(count):
        argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                "--seed", str(args.seed), "--worker", str(j)]
        t0 = time.perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, env=CHILD_ENV, stdout=subprocess.PIPE) as proc:
            try:
                line = proc.stdout.readline()
                setup.append(time.perf_counter() - t0)
                rest, _ = proc.communicate(timeout=CHILD_TIMEOUT)
            except BaseException:
                proc.kill()
                raise
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"worker {j} failed: exit {proc.returncode}")
        reports.append(json.loads(rest.splitlines()[-1]))
    return reports, setup


def logeq_dependencies():
    """Third-party modules that logeq's files import at module level."""
    deps = set()
    for path in sorted(glob.glob(os.path.join(SRC, "logeq", "*.py"))):
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        for node in tree.body:
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            deps.update(n for n in names if n.split(".")[0] not in sys.stdlib_module_names
                        and n.split(".")[0] != "logeq")
    return sorted(deps)


def measure_import(modules):
    """Median time, in ms, for a fresh interpreter to import `modules`."""
    code = ("import time; t = time.perf_counter()\n"
            + "".join(f"import {m}\n" for m in modules)
            + "print(time.perf_counter() - t)")
    times = []
    for _ in range(PROBE_REPEATS):
        proc = run_child([sys.executable, "-c", code])
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed: {proc.stderr.decode()[-500:]}")
        times.append(float(proc.stdout))
    return 1e3 * statistics.median(times)


# ---------------------------------------------------------------------------
# Checks (after the timed loop, on the kept outputs)
# ---------------------------------------------------------------------------

def check(workload, records, logeq):
    import refs
    import workloads as w
    problems = []
    if workload == "verify":
        for rec in records:
            tau = rec.item.tau
            if rec.error is not None:
                problems.append(f"verify({tau!r}) raised {rec.error}")
                continue
            rep = rec.output
            fields = {k: getattr(rep, k) for k in (
                "mass_error", "flatness_error", "inequality_margin", "sp_error",
                "cross_route_omega_spread")}
            two_cut = refs.regime_ref(tau) == "repulsive"
            if rep.tau != tau:
                problems.append(f"report for tau={rep.tau!r}, asked {tau!r}")
            if not rec.failed:
                problems += refs.check_verify_report(tau, fields, rep.passes, two_cut)
            elif rec.item.fault != w.SP_DENSITY_FAULT:
                problems.append(f"verify({tau!r}).passes is False: {fields}")
            else:
                # The known fault: sp_error alone is over its bound.
                problems += refs.check_verify_report(tau, dict(fields, sp_error=0.0), True, two_cut)
                if not fields["sp_error"] > refs.SP_ERROR_BOUND:
                    problems.append(f"verify({tau!r}) failed, but not on sp_error: {fields}")
    elif workload == "phase_sweep":
        for rec in records:
            tau, ans = rec.item.tau, rec.output
            if rec.failed:
                # The known fault: omega refuses a tau just above TAU_CRITICAL.
                if rec.item.fault != w.NEAR_CRITICAL_FAULT or not (rec.error or "").startswith("DomainError"):
                    problems.append(f"phase_sweep at tau={tau!r} failed: {rec.error}")
                continue
            beta = refs.beta_ref(tau)
            omega = refs.omega_ref(tau, beta)
            problems += refs.check_regime(tau, ans.regime)
            problems += refs.check_beta(tau, ans.beta, beta)
            problems += refs.check_omega(tau, ans.omega, omega)
            problems += refs.check_density(tau, ans.density.tolist())
            z = rec.item.z
            problems += refs.check_conjugate(tau, z, ans.cauchy, logeq.cauchy(tau, z.conjugate()))
            problems += refs.check_flatness(tau, ans.potential_x, ans.potential, omega)
    else:
        by_cmd = {}
        for rec in records:
            code, out, err = rec.output
            if code != 0:
                problems.append(f"{' '.join(rec.item)}: exit {code}: {err.decode()[-300:]}")
            by_cmd.setdefault(rec.item, set()).add(out)
        for cmd, outs in by_cmd.items():
            if len(outs) != 1:
                problems.append(f"{' '.join(cmd)}: {len(outs)} different outputs over repeats")
            problems += refs.check_cli(cmd, next(iter(outs)))
    return problems


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def worker(args, logeq, items, op, failed):
    """One worker's share of an end-to-end run, reported as one JSON line."""
    records = []
    t0 = time.perf_counter()
    run_items(items, op, failed, records)
    wall = time.perf_counter() - t0
    who = resource.RUSAGE_CHILDREN if args.workload == "cli_cold" else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024.0
    print(json.dumps({
        "seconds": [r.seconds for r in records], "failed": [r.failed for r in records],
        "wall": wall, "peak_rss_mb": peak_mb,
        "problems": check(args.workload, records, logeq),
        "failures": [f"{r.item} {r.error or 'failed its own check'}"
                     for r in records if r.failed][:1]}))


def end_to_end_run(args):
    reports, setup = run_workers(args)
    lat = sorted(s for rep in reports for s, f in zip(rep["seconds"], rep["failed"]) if not f)
    if len(lat) <= TAIL_BEYOND:
        raise RuntimeError(f"only {len(lat)} operations completed")
    tail_at = len(lat) - TAIL_BEYOND - 1
    wall = sum(rep["wall"] for rep in reports)
    values = {"ops_per_s": len(lat) / wall,
              "op_p50_ms": 1e3 * statistics.median(lat),
              "op_tail_ms": 1e3 * lat[tail_at],
              "setup_s": statistics.median(setup),
              "peak_rss_mb": max(rep["peak_rss_mb"] for rep in reports)}
    attempted = sum(len(rep["seconds"]) for rep in reports)
    print(f"# {args.workload}: {attempted} operations in {len(reports)} workers, "
          f"{wall:.1f} s timed; op_tail_ms is the p{100.0 * (tail_at + 1) / len(lat):.1f} "
          f"latency of the {len(lat)} completed")
    for rep in reports:
        for text in rep["failures"]:
            print(f"# failed: {text}")
    metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    failed = sum(sum(rep["failed"]) for rep in reports)
    return attempted, failed, [p for rep in reports for p in rep["problems"]], metrics


def traced_run(args, logeq):
    import tracing
    rounds, op, failed = make_workload(args.workload, logeq)
    records = []
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}")

    # Round 1 untraced, then round 0 traced: different taus, so the per-tau
    # caches filled by the first pass never answer in the second.
    t0 = time.perf_counter()
    run_items(rounds(args.seed, 1), op, failed, records)
    untraced = time.perf_counter() - t0
    untraced_records = list(records)
    traced_items = rounds(args.seed, 0)
    if args.workload == "cli_cold":
        child = os.path.join(HERE, "cli_child.py")
        paths = [f"{stem}-op{i}.json" for i in range(len(traced_items))]
        it = iter(paths)

        def traced_op(cmd):
            proc = run_child([sys.executable, child, next(it), *cmd])
            return proc.returncode, proc.stdout, proc.stderr

        t0 = time.perf_counter()
        run_items(traced_items, traced_op, failed, records)
        traced = time.perf_counter() - t0
        summaries = []
        for path in paths:
            with open(path, encoding="utf-8") as handle:
                summaries.append(json.load(handle))
        summary = tracing.merge(summaries)
    else:
        tracer = tracing.Tracer()
        tracer.install()
        t0 = time.perf_counter()
        try:
            run_items(traced_items, op, failed, records, tracer)
        finally:
            traced = time.perf_counter() - t0
            tracer.uninstall()
        tracer.save(stem + ".npz")
        summary = tracer.summary()
        if tracer.missing:
            print(f"# not traced (not found): {', '.join(tracer.missing)}", file=sys.stderr)

    metrics = tracing.layer_metrics(summary, len(traced_items))
    import_ms = measure_import(["logeq"])
    metrics["cli.import_ms"] = {"value": import_ms, "unit": "ms"}
    metrics["cli.dep_import_ms"] = {"value": measure_import(logeq_dependencies()), "unit": "ms"}
    command_ms = 0.0
    if args.workload == "cli_cold":
        command_ms = 1e3 * statistics.median(r.seconds for r in untraced_records) - import_ms
    metrics["cli.command_ms"] = {"value": command_ms, "unit": "ms"}
    metrics["trace.overhead_ratio"] = {"value": traced / untraced, "unit": "ratio"}
    print(f"# {args.workload}: traced round of {len(traced_items)} operations, "
          f"{traced:.2f} s traced vs {untraced:.2f} s untraced; spans in {stem}*")
    return records, metrics


def run_all(args):
    """Each workload in its own child process, one after the other."""
    results = {}
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps({"workloads": results}))
    return 0


def report(workload, attempted, failed, problems, metrics):
    for text in problems[:20]:
        print(f"# WRONG: {text}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{workload:12s} {name:42s} {m['value']:14.6g} {m['unit']}")
    print(f"{workload:12s} attempted {attempted}, failed {failed}, correct {not problems}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="accepted; a run does a fixed amount of work (ROUNDS)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "logeq", "__init__.py")):
        print(f"error: no logeq source tree under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.worker is None and not args.trace:
        report(args.workload, *end_to_end_run(args))
        return 0

    # Set-up: everything up to the first timed operation.
    sys.path.insert(0, SRC)
    import logeq
    rounds, op, failed = make_workload(args.workload, logeq)
    if args.worker is not None:
        items = worker_items(args.workload, rounds, args.seed, args.worker)
        print("ready", flush=True)
        worker(args, logeq, items, op, failed)
        return 0

    records, metrics = traced_run(args, logeq)
    for rec in [r for r in records if r.failed][:3]:
        print(f"# failed: {rec.item} {rec.error or 'failed its own check'}")
    report(args.workload, len(records), sum(r.failed for r in records),
           check(args.workload, records, logeq), metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
