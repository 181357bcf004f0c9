"""esbacktest benchmark: CLI batch jobs end to end, and their layers.

    python3 bench/run.py --workload desk-panel --seed 1 --seconds 20 --trace 0

Workloads (see bench/README.md for why each was chosen):

* ``desk-panel``   backtest and compare over a Student-t panel, workers 1;
* ``mc-null``      Monte Carlo null tables for normal, t3, skew-t, GARCH, workers 2;
* ``fit-simulate`` skew-t and GARCH-skew-t fits that feed simulation, workers 2.

Each is a closed loop with one client: the next ``esbacktest.cli.main`` call
starts when the previous one returns.

``--trace 0`` sets the workload up several times (each in a fresh
interpreter, so the import is paid), then repeats its command sequence for
``--seconds``, checks the first pass's outputs against independent
references, requires every later pass to write the same bytes, and reports
medians of the end-to-end metrics.

``--trace 1`` runs the sequence untraced at the workload's worker count,
untraced at ``--workers 1`` and traced at ``--workers 1``; checks the first
and requires all three to write the same bytes; then times each module's
public functions, and reports self time per span and layer, time in no
layer and tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Everything the run
writes goes to ``.bench_work/<workload>/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import layers
import workloads
from spans import Tracer, instrument

ROOT = workloads.ROOT
SETUP_REPS = 3
MIN_PASSES = 3
SETUP_TIMEOUT_S = 120


def machine_info(seed: int, loadavg) -> dict:
    import numpy
    import scipy

    import esbacktest

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "loadavg": loadavg,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "esbacktest": esbacktest.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def set_up(workload: str, seed: int, work: Path, reps: int) -> list[float]:
    """Seconds of each fresh-interpreter set-up; the last one's inputs are used."""
    times = []
    for _ in range(reps):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("workloads.py")),
             "--workload", workload, "--seed", str(seed), "--work", str(work)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr.strip()}")
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return times


def run_pass(cli_main, plan, out: Path, workers=None, tracer=None) -> dict:
    """One closed-loop pass over the plan; returns per-command seconds and outputs."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    commands = []
    t_pass = time.perf_counter()
    for cmd in plan["commands"]:
        argv = [a.replace("{out}", str(out)) for a in cmd["argv"]]
        argv += ["--workers", str(workers or cmd["workers"])]
        log = io.StringIO()
        span = tracer.span("cli.main") if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            try:
                with span:
                    code = cli_main(argv)
            except Exception:  # an uncaught error is a failed invocation, not a crash
                traceback.print_exc()
                code = 1
        seconds = time.perf_counter() - t0
        if code != 0:
            print(f"{cmd['name']}: exit {code}\n{log.getvalue()}", file=sys.stderr)
        commands.append({"name": cmd["name"], "group": cmd["group"], "seconds": seconds,
                         "code": code})
    wall = time.perf_counter() - t_pass
    outputs = {p.name: p.read_bytes() for p in out.iterdir()}
    return {"commands": commands, "wall": wall, "outputs": outputs}


def check_outputs(workload: str, plan, outputs, reference) -> set[str]:
    """Names of the commands whose outputs fail the workload's check."""
    bad = set()
    for cmd in plan["commands"]:
        try:
            fails = checks.CHECKS[workload](cmd, outputs, reference)
        except checks.UNREADABLE as exc:
            fails = [f"unreadable output: {exc!r}"]
        if fails:
            bad.add(cmd["name"])
            print(f"{cmd['name']}: check failed: " + "; ".join(fails[:5]), file=sys.stderr)
    return bad


def differing(plan, outputs, ref) -> set[str]:
    """Commands whose output bytes differ from the reference pass."""
    return {cmd["name"] for cmd in plan["commands"]
            if any(outputs.get(f) != ref.get(f) for f in cmd["outputs"])}


def failed_count(passes, bad: set[str]) -> int:
    return sum(c["code"] != 0 or c["name"] in bad for p in passes for c in p["commands"])


def timed_run(workload, plan, cli_main, work, seconds, reference):
    """Repeat the sequence for ``seconds``; check pass 1, byte-compare the rest."""
    passes, failed, measured = [], 0, 0.0
    while len(passes) < MIN_PASSES or measured + passes[-1]["wall"] <= seconds:
        p = run_pass(cli_main, plan, work / "out")
        if not passes:
            ref = p["outputs"]
            first_bad = check_outputs(workload, plan, ref, reference)
            selftest_ok = checks.self_test(workload, plan, ref, reference)
        bad = first_bad | differing(plan, p["outputs"], ref)
        failed += failed_count([p], bad)
        p.pop("outputs")
        passes.append(p)
        measured += sum(c["seconds"] for c in p["commands"])
    return passes, failed, selftest_ok


def group_seconds(p, group=None) -> float:
    return sum(c["seconds"] for c in p["commands"] if group in (None, c["group"]))


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children are the set-up interpreters and
    # the CLI's worker processes, all waited for by now
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def end_to_end(workload, plan, cli_main, work, seconds, reference, setup_times):
    passes, failed, selftest_ok = timed_run(workload, plan, cli_main, work, seconds, reference)
    wall = statistics.median(group_seconds(p) for p in passes)
    work_units = sum(c["work"] for c in plan["commands"])
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (wall, "s"),
        "work_per_s": (work_units / wall, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "light_s": (statistics.median(group_seconds(p, "light") for p in passes), "s"),
        "heavy_s": (statistics.median(group_seconds(p, "heavy") for p in passes), "s"),
    }
    attempted = sum(len(p["commands"]) for p in passes)
    print(f"{workload}: {len(passes)} passes of {len(plan['commands'])} commands, "
          f"{work_units} work units per pass, set-up x{len(setup_times)}")
    for cmd in plan["commands"]:
        times = [c["seconds"] for p in passes for c in p["commands"] if c["name"] == cmd["name"]]
        print(f"  {cmd['name']:<24} {cmd['group']:<6} median {statistics.median(times):9.4f} s"
              f"  min {min(times):9.4f}  max {max(times):9.4f}")
    print(f"  ops_failed_frac {failed / attempted:.4f} ({failed}/{attempted}); "
          f"check self-test {'rejects' if selftest_ok else 'ACCEPTS'} the corrupted output")
    return metrics, attempted, failed, selftest_ok, {"passes": passes}


def traced(workload, plan, cli_main, work, seed, reference):
    plain = run_pass(cli_main, plan, work / "out_plan")
    w1 = run_pass(cli_main, plan, work / "out_w1", workers=1)
    tracer = Tracer()
    instrument(tracer)
    try:
        trace_pass = run_pass(cli_main, plan, work / "out_traced", workers=1, tracer=tracer)
    finally:
        tracer.restore()
    tracer.dump(work / "spans.json")

    first_bad = check_outputs(workload, plan, plain["outputs"], reference)
    selftest_ok = checks.self_test(workload, plan, plain["outputs"], reference)
    # worker-count determinism, and tracing must not change an output
    not_determ = differing(plan, w1["outputs"], plain["outputs"])
    not_same = differing(plan, trace_pass["outputs"], w1["outputs"])
    failed = (failed_count([plain], first_bad) + failed_count([w1], first_bad | not_determ)
              + failed_count([trace_pass], first_bad | not_same))
    attempted = 3 * len(plan["commands"])

    summary = tracer.summary()
    invocations = summary["spans"]["cli.main"]["calls"]
    no_layer = trace_pass["wall"] - summary["top_s"]
    overhead = trace_pass["wall"] - w1["wall"]
    rows = layers.measure(work, seed)
    rows += [
        ("cli.self_ms", summary["spans"]["cli.main"]["self_s"] / invocations * 1e3, "ms",
         f"per invocation, {invocations} traced; bytes written "
         f"{sum(len(b) for b in w1['outputs'].values())}"),
        ("trace.traced_wall_s", trace_pass["wall"], "s", "traced pass at w1"),
        ("trace.no_layer_ms", no_layer * 1e3, "ms", "traced wall outside every span"),
        ("workers.w1_s", w1["wall"], "s", "untraced pass at w1"),
        ("workers.plan_s", plain["wall"], "s", "untraced pass at the plan's workers"),
    ]
    print(f"{workload}: per-layer timings (median of repeats)")
    for name, value, unit, note in rows:
        print(f"  {name:<36} {value:12.4f} {unit:<5} {note}")
    print(f"traced pass at w1: wall {trace_pass['wall']:.3f} s, untraced w1 {w1['wall']:.3f} s, "
          f"untraced at plan workers {plain['wall']:.3f} s")
    print(f"  tracing overhead {overhead:+.3f} s; time in no layer {no_layer * 1e3:.2f} ms; "
          f"{len(tracer.spans)} spans")
    print("  self time per layer:")
    for layer, s in sorted(summary["layers"].items(), key=lambda kv: -kv[1]):
        print(f"    {layer:<12} {s:10.4f} s  {100 * s / trace_pass['wall']:5.1f}%")
    print("  span                                calls        units   raised    self s   total s")
    for name, r in sorted(summary["spans"].items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"    {name:<32} {r['calls']:8d} {r['units']:12d} {r['raised']:8d}"
              f" {r['self_s']:9.4f} {r['total_s']:9.4f}")
    print(f"  worker determinism: {'ok' if not not_determ else sorted(not_determ)}; "
          f"traced outputs identical: {'ok' if not not_same else sorted(not_same)}")
    metrics = {name: (value, unit) for name, value, unit, _ in rows}
    extra = {"trace": summary, "overhead_s": overhead, "no_layer_s": no_layer,
             "layers": [list(r) for r in rows]}
    return metrics, attempted, failed, selftest_ok, extra


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    loadavg = os.getloadavg()
    try:
        # the traced run reports no set-up time, so it sets up once
        setup_times = set_up(args.workload, args.seed, work, 1 if args.trace else SETUP_REPS)
        workloads.import_esbacktest()
    except (RuntimeError, ImportError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark cannot start: {exc}", file=sys.stderr)
        return 2
    from esbacktest.cli import main as cli_main

    machine = machine_info(args.seed, loadavg)
    print("machine: " + json.dumps(machine))
    plan = json.loads((work / "plan.json").read_text())
    reference = checks.reference_desk(plan) if args.workload == "desk-panel" else None
    if args.trace:
        metrics, attempted, failed, selftest_ok, extra = traced(
            args.workload, plan, cli_main, work, args.seed, reference)
    else:
        metrics, attempted, failed, selftest_ok, extra = end_to_end(
            args.workload, plan, cli_main, work, args.seconds, reference, setup_times)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": failed == 0 and selftest_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (work / "result.json").write_text(json.dumps(
        {**result, "machine": machine, "setup_s": setup_times, "args": vars(args), **extra},
        indent=1, default=str) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
