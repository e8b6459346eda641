"""cocontact benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every repetition is a fresh interpreter
(bench/child.py) that imports the checkout's src/cocontact, so each one pays
the import and the fill of the Taylor degree cache as a CLI user does.

--trace 0 repeats the workload for S seconds (at least MIN_REPS times; no
repetition starts that would, at the median length so far, end after S)
and reports the medians of the end-to-end metrics.
--trace 1 runs UNTRACED_REPS untraced repetitions and TRACED_REPS traced
ones with the same inputs, reports the per-layer metrics and the tracing
overhead, and checks that the counts repeat exactly and obey the
integrator's invariants.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The lines before it are a readable report.  Exits 2 without a
result when the checkout has no importable cocontact.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import PARTS, WORKLOADS

BENCH = Path(__file__).resolve().parent
MIN_REPS = 3
UNTRACED_REPS = 3
TRACED_REPS = 2
CHILD_TIMEOUT = 150.0
RUN_LIMIT = 120.0  # no new repetition starts after this many seconds

END_TO_END = {
    "cpu_s": "s",
    "ms_per_item": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "error_rel": "1",
}
ORDERS = range(1, 7)


class Rep:
    """One child process: its result file, or why it has none."""

    def __init__(self, data: dict | None, error: str = ""):
        self.data = data
        self.error = error

    @property
    def ok(self) -> bool:
        return self.data is not None


def run_child(workload, inputs, rundir: Path, index: int, trace: bool, env) -> Rep:
    repdir = rundir / f"rep{index}"
    repdir.mkdir()
    spec = repdir / "spec.json"
    result = repdir / "result.json"
    spec.write_text(json.dumps({"workload": workload.name, "inputs": inputs,
                                "workdir": str(repdir), "trace": trace}))
    env = dict(env, COCONTACT_OUT_DIR=str(repdir))
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "child.py"), str(spec), str(result)],
                              env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        return Rep(None, f"repetition {index} timed out after {CHILD_TIMEOUT:.0f} s")
    if proc.returncode != 0 or not result.is_file():
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return Rep(None, f"repetition {index} exited {proc.returncode}: {tail[0]}")
    data = json.loads(result.read_text())
    shutil.rmtree(repdir)
    return Rep(data)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def tally(workload, inputs, reps, root: Path):
    """attempted, failed and the problems found, over all repetitions."""
    attempted = failed = 0
    problems = []
    src = str(root / "src")
    for rep in reps:
        attempted += workload.operations(inputs)
        if not rep.ok:
            failed += workload.operations(inputs)
            problems.append(rep.error)
            continue
        out = rep.data["outcome"]
        failed += out["failed"]
        problems += out["problems"]
        if not rep.data["package"].startswith(src):
            problems.append(f"imported cocontact from {rep.data['package']}, not {src}")
    return attempted, failed, problems


def end_to_end(reps):
    ok = [r.data for r in reps if r.ok]
    values = {
        "cpu_s": [d["cpu_s"] for d in ok],
        "ms_per_item": [1e3 * d["cpu_s"] / max(d["outcome"]["items"], 1) for d in ok],
        "setup_s": [d["setup_s"] for d in ok],
        "peak_rss_mb": [d["peak_rss_mb"] for d in ok],
    }
    metrics = {k: statistics.median(v) if v else 0.0 for k, v in values.items()}
    # deterministic for a seed: every repetition computes the same value
    metrics["error_rel"] = max((d["outcome"]["error_max"] for d in ok), default=0.0)
    return metrics, values


def report_parts(reps):
    """Readable per-part medians: CPU time, items and error."""
    ok = [r.data["outcome"]["parts"] for r in reps if r.ok]
    for name in ok[0] if ok else ():
        cpus = [p[name]["cpu_s"] for p in ok]
        cpu = statistics.median(cpus)
        items = ok[0][name]["items"]
        print(f"  part {name:20s} cpu_s {cpu:.4f}  ms_per_item "
              f"{1e3 * cpu / max(items, 1):.4f} ({items} items)  "
              f"error_max {ok[0][name]['error_max']:.4g}")
        print("    cpu_s per repetition: " + " ".join(f"{v:.3f}" for v in cpus))


def layer_metrics(traced, untraced, parts):
    """Per-layer metrics from the traced repetitions (counts from the first,
    times averaged over all).  Each part's CPU time and error come from the
    untraced repetitions."""
    first = traced[0]["trace"]
    untraced_cpu = statistics.median(d["cpu_s"] for d in untraced)

    def layer(name, field, default=0.0):
        vals = [t["trace"]["layers"].get(name, {}).get(field, default) for t in traced]
        return statistics.mean(vals)

    def calls(name):
        return first["layers"].get(name, {}).get("calls", 0)

    m = {}
    for k in ORDERS:
        m[f"mechanics.taylor_on.calls.o{k}"] = (calls(f"mechanics.taylor_on.o{k}"), "count")
    for k in ORDERS:
        m[f"mechanics.taylor_on.busy_s.o{k}"] = (layer(f"mechanics.taylor_on.o{k}", "busy_s"), "s")
    m["jets.taylor_mul.calls"] = (first["counts"].get("jets.taylor_mul", 0), "count")
    for name in ("pontryagin.run_constraint_algorithm", "pontryagin.assemble_Z",
                 "pontryagin.constraint_values", "pontryagin.project_onto",
                 "numpy.linalg.svd", "numpy.linalg.lstsq", "numpy.linalg.solve"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.busy_s"] = (layer(name, "busy_s"), "s")
    steps = first["sizes"].get("dynamics.integrate.steps", 0)
    m["dynamics.integrate.calls"] = (calls("dynamics.integrate"), "count")
    m["dynamics.integrate.steps"] = (steps, "count")
    m["dynamics.integrate.busy_s"] = (layer("dynamics.integrate", "busy_s"), "s")
    m["dynamics.integrate.wait_s"] = (layer("dynamics.integrate", "wait_s"), "s")
    m["dynamics.integrate.ms_per_step"] = (
        1e3 * layer("dynamics.integrate", "wall_s") / steps if steps else 0.0, "ms")
    for name in ("dynamics.field_eval", "dynamics.drift", "dynamics.legendre_invert",
                 "mechanics.herglotz_residual"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.busy_s"] = (layer(name, "busy_s"), "s")
    for name in ("dynamics.field_eval", "dynamics.drift"):  # inclusive, per call
        n = calls(name)
        m[f"{name}.ms_per_call"] = (1e3 * layer(name, "wall_s") / n if n else 0.0, "ms")
    samples = first["sizes"].get("dynamics.residual_channels.samples", 0)
    m["dynamics.residual_channels.samples"] = (samples, "count")
    m["dynamics.residual_channels.busy_s"] = (layer("dynamics.residual_channels", "busy_s"), "s")
    m["dynamics.residual_channels.us_per_sample"] = (
        1e6 * layer("dynamics.residual_channels", "wall_s") / samples if samples else 0.0, "us")
    rows = first["sizes"].get("dynamics.trajectory_to_csv.rows", 0)
    m["dynamics.trajectory_to_csv.rows"] = (rows, "count")
    m["dynamics.trajectory_to_csv.busy_s"] = (layer("dynamics.trajectory_to_csv", "busy_s"), "s")
    m["dynamics.trajectory_to_csv.us_per_row"] = (
        1e6 * layer("dynamics.trajectory_to_csv", "wall_s") / rows if rows else 0.0, "us")
    m["dynamics.trajectory_to_json.busy_s"] = (layer("dynamics.trajectory_to_json", "busy_s"), "s")
    for name in ("checks.check_ad_vs_fd", "checks.check_ladder", "cli.main", "dsl.parse",
                 "systems.preset"):
        m[f"{name}.busy_s"] = (layer(name, "busy_s"), "s")
    m["systems.sample_feasible.calls"] = (first["counts"].get("systems.sample_feasible", 0), "count")
    for name in parts:  # zero for the parts of the other workload
        ran = [d["outcome"]["parts"][name] for d in untraced if name in d["outcome"]["parts"]]
        m[f"part.{name}.cpu_s"] = (
            statistics.median(p["cpu_s"] for p in ran) if ran else 0.0, "s")
        m[f"part.{name}.error_max"] = (ran[0]["error_max"] if ran else 0.0, "1")
    traced_cpu = statistics.mean(t["cpu_s"] for t in traced)
    m["trace.spans"] = (first["spans"], "count")
    m["trace.busy_s"] = (sum(layer(n, "busy_s") for n in first["layers"]), "s")
    m["trace.wait_s"] = (sum(layer(n, "wait_s") for n in first["layers"]), "s")
    m["trace.cpu_s"] = (traced_cpu, "s")
    m["trace.untraced_cpu_s"] = (untraced_cpu, "s")
    m["trace.overhead_s"] = (traced_cpu - untraced_cpu, "s")
    m["trace.overhead_ratio"] = (traced_cpu / untraced_cpu if untraced_cpu else 0.0, "1")
    return m


def trace_invariants(workload, traced):
    """Problems with the traced counts: they must repeat exactly across the
    traced repetitions and obey the fixed-step integrator's bookkeeping."""
    problems = []
    first = traced[0]["trace"]

    def exact(t):
        return ({k: v["calls"] for k, v in t["layers"].items()}, t["sizes"], t["counts"])

    for i, t in enumerate(traced[1:], 2):
        if exact(t["trace"]) != exact(first):
            problems.append(f"traced repetition {i} counted differently from the first")
    calls = {k: v["calls"] for k, v in first["layers"].items()}
    sizes = first["sizes"]
    runs = calls.get("dynamics.integrate", 0)
    steps = sizes.get("dynamics.integrate.steps", 0)
    samples = sizes.get("dynamics.residual_channels.samples", 0)
    # rk4: one evaluation at the start, then four per accepted step
    if calls.get("dynamics.field_eval", 0) != 4 * steps + runs:
        problems.append(f"field_eval.calls {calls.get('dynamics.field_eval', 0)} "
                        f"!= 4*{steps} + {runs}")
    if calls.get("dynamics.drift", 0) != steps:
        problems.append(f"drift.calls {calls.get('dynamics.drift', 0)} != steps {steps}")
    if samples != steps + runs:
        problems.append(f"residual samples {samples} != steps + runs {steps + runs}")
    if workload.exports_csv:
        rows = sizes.get("dynamics.trajectory_to_csv.rows", 0)
        read = traced[0]["outcome"]["csv_rows"]
        if not rows == read == samples:
            problems.append(f"CSV rows written {rows}, read back {read}, samples {samples}")
    return problems


def report_layers(traced, cpu):
    """Readable table: the layers with the most self time, as shares of the
    traced CPU time."""
    layers = traced[0]["trace"]["layers"]
    rows = sorted(layers.items(), key=lambda kv: -kv[1]["busy_s"])
    print(f"  {'layer':44s} {'calls':>8s} {'busy_s':>9s} {'wait_s':>9s} {'busy %':>7s}")
    for name, st in rows[:16]:
        print(f"  {name:44s} {st['calls']:8d} {st['busy_s']:9.4f} {st['wait_s']:9.4f} "
              f"{100 * st['busy_s'] / cpu:6.1f}%")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "cocontact" / "__init__.py").is_file():
        print(f"error: no src/cocontact under {root}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"  # the same dict and set layouts in every repetition

    # compile the package's bytecode once, as an installed package has it
    warm = subprocess.run([sys.executable, "-c", "import cocontact, cocontact.cli"],
                          env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    if warm.returncode != 0:
        print(f"error: cannot import cocontact from {root / 'src'}:\n{warm.stderr}",
              file=sys.stderr)
        return 2

    (root / ".bench_work").mkdir(exist_ok=True)
    rundir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=root / ".bench_work"))
    start = time.perf_counter()
    try:
        if args.trace:
            untraced = [run_child(workload, inputs, rundir, i, False, env)
                        for i in range(UNTRACED_REPS)]
            traced = [run_child(workload, inputs, rundir, UNTRACED_REPS + i, True, env)
                      for i in range(TRACED_REPS)]
            reps = untraced + traced
        else:
            reps, lengths = [], []
            while len(reps) < MIN_REPS or (
                    time.perf_counter() - start + statistics.median(lengths) <= args.seconds
                    and time.perf_counter() - start < RUN_LIMIT):
                t = time.perf_counter()
                reps.append(run_child(workload, inputs, rundir, len(reps), False, env))
                lengths.append(time.perf_counter() - t)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        try:
            (root / ".bench_work").rmdir()
        except OSError:  # another run is still using it
            pass
    elapsed = time.perf_counter() - start

    attempted, failed, problems = tally(workload, inputs, reps, root)
    versions = next((r.data["versions"] for r in reps if r.ok), {})
    print(f"machine: nproc {os.cpu_count()}, python {versions.get('python', '?')}, "
          f"numpy {versions.get('numpy', '?')}")
    print(f"workload {workload.name}, seed {args.seed}, inputs {json.dumps(inputs)}")
    print(f"{len(reps)} repetitions in {elapsed:.1f} s, each a fresh interpreter")

    if args.trace:
        ok_untraced = [r.data for r in untraced if r.ok]
        ok_traced = [r.data for r in traced if r.ok]
        if len(ok_traced) == TRACED_REPS and ok_untraced:
            metrics = layer_metrics(ok_traced, ok_untraced, PARTS)
            problems += trace_invariants(workload, ok_traced)
            report_layers(ok_traced, metrics["trace.cpu_s"][0])
        else:
            problems.append("no complete traced run")
            metrics = {}
    else:
        values, samples = end_to_end(reps)
        metrics = {k: (values[k], END_TO_END[k]) for k in END_TO_END}
        for k, unit in END_TO_END.items():
            spread = ""
            if samples.get(k):
                lo, hi = quartiles(samples[k])
                spread = f"  (median of {len(samples[k])}; quartiles {lo:.6g} .. {hi:.6g})"
            print(f"  {k:14s} {values[k]:.6g} {unit}{spread}")
        print("  cpu_s per repetition:  " + " ".join(f"{v:.3f}" for v in samples["cpu_s"]))
        walls = [r.data["wall_s"] for r in reps if r.ok]
        print("  wall_s per repetition: " + " ".join(f"{v:.3f}" for v in walls))
        report_parts(reps)
        residual = max((r.data["outcome"]["residual_max"] for r in reps if r.ok), default=0.0)
        print(f"  {'residual_max':14s} {residual:.6g} 1  (worst residual channel; a gate, not a metric)")
    print(f"  {'fail_rate':14s} {failed / attempted:.6g}  ({failed} of {attempted} operations failed)")
    for p in problems:
        print(f"  problem: {p}")

    correct = failed == 0 and not problems and all(r.ok for r in reps) and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
