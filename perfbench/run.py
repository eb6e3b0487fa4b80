"""faceflow benchmark: one workload, one closed loop, exact output checks.

Usage (from the repository root):

    python3 perfbench/run.py --workload gap-corpus --seed 1 --seconds 20 --trace 0

One client in one process runs the workload's tasks back to back through
the public ``faceflow`` API.  A pass is the whole task list; passes repeat
while the next one is expected to end within ``--seconds`` (at least one
pass runs).  Every output is checked exactly after its pass, outside the
timed region.

Timings are reported in units of a fixed pure-Python reference loop timed
between the tasks of the same pass (``reference_loop``), because the
shared host's speed drifts by tens of percent over minutes; the same
timings in seconds are printed and stored next to them.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates an
untraced pass with a traced one and reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record
(environment, per-task times, per-layer shares, output quality) is
written to ``.perfbench_out/`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Per-workload dominant-layer expectations: printed and stored, never
# failed on, so that a change of workload meaning shows without blocking.
EXPECT = {
    "gap-corpus": [("polyflow.brute_sparsest_edge_cut.busy_frac", ">=", 0.5)],
    "gap-pipeline": [
        ("retraction_treeembed_thinround.busy_frac", ">=", 0.5),
        ("polyflow.brute_sparsest_edge_cut.calls", "==", 0),
    ],
    "embed-slack": [
        ("treeembed.random_extension.calls", ">", 0),
        ("simplex.solve_lp.calls", "==", 0),
    ],
}
# The reference loop runs REFERENCE_REPS times before every task and after
# the last; the median of a pass's loop times is that pass's time unit.
REFERENCE_ITERS = 100_000
REFERENCE_REPS = 3
COVERAGE = ("treeembed.random_extension.calls", "polyflow.brute_sparsest_edge_cut.calls")


def import_program():
    """Import faceflow from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import faceflow

    if not Path(faceflow.__file__).resolve().is_relative_to(src):
        raise ImportError(f"faceflow imported from {faceflow.__file__}, not {src}")


def parse_args(argv):
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the benchmark's own tests")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def build_workload(args):
    import workloads

    return workloads.build(args.workload, args.seed, args.smoke, workloads.load_golden())


def probe_setup(args) -> float:
    """Seconds from spawning a fresh interpreter to the workload's inputs
    being ready (imports, golden values, input generation)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    if args.smoke:
        cmd.append("--smoke")
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1]) - t0


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python integer loop (about 10 ms).

    It uses no ``faceflow`` code, allocates no tracked objects and fits in
    the first-level cache, so its time follows only the speed the shared
    host gives this process at that moment."""
    t0 = perf_counter()
    acc = 0
    for i in range(REFERENCE_ITERS):
        acc += i * i % 7
    return perf_counter() - t0


def run_pass(tasks):
    """Run every task once.  Returns the pass's wall time (reference loops
    excluded), per-task times, outputs, errors, and the times of the
    reference loops run before every task and after the last one."""
    times, outs, errs, refs = [], [], [], []
    wall = 0.0
    for task in tasks:
        refs += [reference_loop() for _ in range(REFERENCE_REPS)]
        ts = perf_counter()
        try:
            out, err = task.run(), None
        except Exception as e:  # a raising task is a failed task
            out, err = None, f"{type(e).__name__}: {e}"
        times.append(perf_counter() - ts)
        wall += times[-1]
        outs.append(out)
        errs.append(err)
    refs += [reference_loop() for _ in range(REFERENCE_REPS)]
    return wall, times, outs, errs, refs


def check_pass(tasks, outs, errs) -> tuple[int, list[str]]:
    """Number of failed tasks and their failure messages."""
    failed, msgs = 0, []
    for task, out, err in zip(tasks, outs, errs):
        bad = [f"raised {err}"] if err is not None else task.check(out)
        if bad:
            failed += 1
            msgs += [f"{task.name}: {m}" for m in bad]
    return failed, msgs


def layer_metrics(agg: dict, wall: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass; times are shares of the
    traced pass's wall time."""
    from tracer import SAMPLING_NAME

    out: dict[str, tuple[float, str]] = {}
    for name, f in agg["functions"].items():
        out[f"{name}.calls"] = (f["calls"], "count")
        out[f"{name}.self_frac"] = (f["self_s"] / wall, "frac")
        out[f"{name}.busy_frac"] = (f["busy_s"] / wall, "frac")
    for mod, m in agg["modules"].items():
        out[f"{mod}.busy_frac"] = (m["busy_s"] / wall, "frac")
        out[f"{mod}.errors"] = (m["errors"], "count")
    out[f"{SAMPLING_NAME}.busy_frac"] = (agg[SAMPLING_NAME]["busy_s"] / wall, "frac")
    out["simplex.solve_lp.rows"] = (agg["solve_lp_rows"], "count")
    out["simplex.solve_lp.cols"] = (agg["solve_lp_cols"], "count")
    rt = agg["functions"]["thinround.round_thin"]
    useful = (rt["calls"] - rt["errors"]) / rt["calls"] if rt["calls"] else 0.0
    out["thinround.round_thin.useful_frac"] = (useful, "frac")
    return out


def environment(args, wl, passes: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "os": f"{platform.system()} {platform.release()} {platform.machine()}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "tasks_per_pass": len(wl.tasks),
        "passes": passes,
        **wl.info,
    }


def _holds(value, op, bound) -> bool:
    return {">=": value >= bound, ">": value > bound, "==": value == bound}[op]


def main(argv=None) -> int:
    try:
        import_program()
    except ImportError as e:
        print(f"cannot import faceflow from this checkout: {e}", file=sys.stderr)
        return 2
    args = parse_args(argv)
    if args.setup_probe:
        build_workload(args)
        print(time.monotonic())
        return 0

    wl = build_workload(args)
    tasks = wl.tasks
    setup = [probe_setup(args) for _ in range(1 if args.smoke else 5)]

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    walls, traced_walls, task_times, layer_runs, units = [], [], [], [], []
    attempted = failed = 0
    failures: list[str] = []
    quality = None
    t_loop = perf_counter()
    while True:
        t_cycle = perf_counter()
        wall, times, outs, errs, refs = run_pass(tasks)
        walls.append(wall)
        task_times.append(times)
        units.append(statistics.median(refs))
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                twall, _, touts, terrs, _ = run_pass(tasks)
            finally:
                tracer.uninstall()
            traced_walls.append(twall)
            layer_runs.append(layer_metrics(tracer.aggregate(), twall))
            tracer.reset()
            outs, errs = outs + touts, errs + terrs
        ran = tasks * (2 if tracer is not None else 1)
        attempted += len(ran)
        n_bad, msgs = check_pass(ran, outs, errs)
        failed += n_bad
        failures += msgs
        if quality is None and all(e is None for e in errs[: len(tasks)]):
            quality = wl.quality(outs[: len(tasks)])
        cycle = perf_counter() - t_cycle
        if perf_counter() - t_loop + cycle > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    per_task = [statistics.median(col) for col in zip(*task_times)]
    wall_s = statistics.median(walls)
    # The same times in units of the pass's reference loop.
    per_task_ref = [statistics.median(t / u for t, u in zip(col, units))
                    for col in zip(*task_times)]
    wall_ref = statistics.median(w / u for w, u in zip(walls, units))
    e2e = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_ref": (wall_ref, "ref"),
        "task_max_ref": (max(per_task_ref), "ref"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    # Printed and stored, not bounded metrics: in seconds they follow the
    # shared host's drift, and the median task is one short task.
    seconds = {"wall_s": wall_s, "task_max_s": max(per_task),
               "task_p50_s": statistics.median(per_task)}
    record = {
        "environment": environment(args, wl, len(walls)),
        "end_to_end": {k: v for k, (v, _) in e2e.items()},
        "seconds": seconds,
        "reference_units_s": units,
        "setup_probes_s": setup,
        "pass_walls_s": walls,
        "tasks": {t.name: s for t, s in zip(tasks, per_task)},
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failures": failures[:50],
        "quality": quality or {},
    }
    print(f"workload {args.workload}  seed {args.seed}  tasks/pass {len(tasks)}"
          f"  passes {len(walls)}  closed loop, 1 client")
    for k, (v, unit) in e2e.items():
        print(f"  {k:<12} {v:.6g} {unit}")
    for k, v in seconds.items():
        print(f"  {k:<12} {v:.6g} s")
    print(f"  reference loop {statistics.median(units) * 1e3:.4g} ms (median of pass medians),"
          f" {len(tasks)} tasks/pass")
    print(f"  failed_frac  {failed}/{attempted} = {failed / attempted:.6g}")
    for k, v in (quality or {}).items():
        print(f"  {k} {v:.6g}")
    for msg in failures[:20]:
        print(f"FAILED {msg}", file=sys.stderr)

    metrics = e2e
    if tracer is not None:
        layer = {k: (statistics.median(r[k][0] for r in layer_runs), u)
                 for k, (_, u) in layer_runs[0].items()}
        overhead = statistics.median(traced_walls) / wall_s - 1
        layer["trace_overhead_frac"] = (overhead, "frac")
        twall = statistics.median(traced_walls)
        record["traced_wall_s"] = twall
        record["per_layer"] = {k: v for k, (v, _) in layer.items()}
        record["coverage"] = {k: layer[k][0] for k in COVERAGE}
        record["expectations"] = []
        print(f"  traced wall {twall:.6g} s, trace_overhead_frac {overhead:.4f}")
        busy = sorted(((v, k) for k, (v, _) in layer.items()
                       if k.endswith(".busy_frac") and k.count(".") == 2), reverse=True)
        for v, k in busy[:8]:
            print(f"  busy {k[:-len('.busy_frac')]:<45} {v * twall:9.4f} s  {v:7.2%}")
        for k in COVERAGE:
            print(f"  coverage {k} = {layer[k][0]:g}")
        for (k, op, bound) in EXPECT[args.workload]:
            ok = _holds(layer[k][0], op, bound)
            record["expectations"].append({"metric": k, "op": op, "bound": bound,
                                           "value": layer[k][0], "holds": ok})
            print(f"  expect {k} {op} {bound}: {layer[k][0]:.4g} {'holds' if ok else 'DOES NOT HOLD'}")
        metrics = layer

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"environment: {json.dumps(record['environment'], sort_keys=True)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
