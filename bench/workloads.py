"""The benchmark's four parts and the two workloads that run them in pairs.

Each part, and each workload built from parts, has four methods:

  inputs(seed)           the generated inputs, from the seed alone (stdlib only)
  setup(inputs, workdir) everything up to the first timed call: systems,
                         config files, argument lists
  timed(state)           the call a user waits for
  check(state, result)   the correctness gates, run after the clock stops

This module imports nothing outside the standard library at import time, so
a child process can start its set-up clock before `cocontact` (and numpy)
are imported.  The reference solutions below are plain-float RK4 on the
closed-form equations of motion, at a step eight times finer than the
program's, so `error_max` measures the program's integration error rather
than the reference's.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

# Part sizes.  Each part takes 1.5-2 s of CPU on a 2-vCPU Xeon VM, so a run
# of --seconds 55 gets a dozen or more fresh-process repetitions.
DUFFING_T = 1.0
DUFFING_STEP = 1e-3
CHARGED_T = 0.5
CHARGED_STEP = 1e-2
SWEEP_T = 0.8
SWEEP_STEP = 2e-3  # at 1e-3 the error is at the rounding floor and spreads 13%
SWEEP_VALUES = 2  # the sweep starts one thread per value: two, as many as nproc
POINTS = 80

REF_REFINE = 8  # reference RK4 substeps per program step

# Gate bounds, about 100x the largest value seen on a 2-vCPU Xeon VM (README.md).
DUFFING_ERROR_BOUND = 2e-9
CHARGED_ERROR_BOUND = 3e-10
SWEEP_ERROR_BOUND = 1e-10
RESIDUAL_BOUNDS = {
    "duffing-simulate": 2e-6,
    "charged-trajectory": 3e-6,
    "drag-sweep": 5e-7,
}
CHARGED_LADDER = [4, 1, 1, 1, 1]
SOURCE_CHARGE = -2e-4  # the charged_particle preset's point charge Q
CHANNELS = ("holonomy", "sdot", "herglotz", "constraint")


@dataclass
class Outcome:
    """What one repetition did and whether it was right."""

    items: int = 0  # accepted steps, or evaluated points
    failed: int = 0  # of Workload.operations(inputs)
    error_max: float = 0.0
    residual_max: float = 0.0  # worst of the four residual channels
    csv_rows: int = 0
    problems: list[str] = field(default_factory=list)
    parts: dict[str, dict] = field(default_factory=dict)  # per part, in a Sequence

    def fail(self, message: str, ops: int = 1) -> None:
        self.failed += ops
        self.problems.append(message)


def _rk4(f, y, t, h):
    k1 = f(t, y)
    k2 = f(t + 0.5 * h, [a + 0.5 * h * b for a, b in zip(y, k1)])
    k3 = f(t + 0.5 * h, [a + 0.5 * h * b for a, b in zip(y, k2)])
    k4 = f(t + h, [a + h * b for a, b in zip(y, k3)])
    return [a + (h / 6.0) * (b + 2.0 * c + 2.0 * d + e)
            for a, b, c, d, e in zip(y, k1, k2, k3, k4)]


def _reference(f, y0, t0, h, steps):
    """States at t0 + k*h, k = 0..steps, by RK4 at step h / REF_REFINE."""
    out = [list(y0)]
    y = list(y0)
    sub = h / REF_REFINE
    for k in range(steps):
        for j in range(REF_REFINE):
            y = _rk4(f, y, t0 + k * h + j * sub, sub)
        out.append(y)
    return out


def _steps(t_end, step):
    return int(math.floor(t_end / step + 1e-12))


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return header, [[float(x) for x in row] for row in body]


def _call_cli(argv):
    """Run the CLI in-process; returns (exit code, captured stdout)."""
    from cocontact import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


class Workload:
    name = ""
    modules = ("cocontact",)
    exports_csv = False  # writes one CSV row per sample of every trajectory
    error_bound = 1.0  # the gate on Outcome.error_max

    def operations(self, inputs: dict) -> int:
        """Operations one repetition attempts, each counted into fail_rate."""
        return 1

    def inputs(self, seed: int) -> dict:
        raise NotImplementedError

    def setup(self, inputs: dict, workdir: Path):
        raise NotImplementedError

    def timed(self, state):
        raise NotImplementedError

    def check(self, state, result) -> Outcome:
        raise NotImplementedError

    def rng(self, seed: int) -> random.Random:
        # string seeds hash with SHA-512, independent of PYTHONHASHSEED
        return random.Random(f"{self.name}:{seed}")


class DuffingSimulate(Workload):
    """Inline expression-language Duffing oscillator through `simulate`."""

    name = "duffing-simulate"
    modules = ("cocontact", "cocontact.cli")
    exports_csv = True
    error_bound = DUFFING_ERROR_BOUND

    def inputs(self, seed):
        # RK4's error on this orbit changes sign near q0 = 1.13; over
        # [1.6, 1.7] it varies by 7%, so error_max compares across seeds
        return {"q0": self.rng(seed).uniform(1.6, 1.7)}

    def setup(self, inputs, workdir):
        from cocontact import dsl, duffing

        pre = duffing()
        params = dict(pre.params)
        dsl.as_field(dsl.parse(pre.dsl_text, 1), params)  # the config must parse
        config = {
            "system": {"n": 1, "lagrangian": pre.dsl_text, "params": params},
            "initial": {"t0": 0.0, "q": [inputs["q0"]], "v": [0.0], "s": 0.0},
            "integrator": {"method": "rk4", "step": DUFFING_STEP, "t_end": DUFFING_T},
            "outputs": {"csv": "duffing.csv", "json": "duffing.json"},
        }
        path = workdir / "duffing_config.json"
        path.write_text(json.dumps(config))
        return {"argv": ["simulate", "--config", str(path)], "config": config,
                "workdir": workdir}

    def timed(self, state):
        return _call_cli(state["argv"])

    def check(self, state, result):
        code, stdout = result
        out = Outcome()
        if code != 0:
            out.fail(f"simulate exited {code}")
            return out
        summary = json.loads(stdout)
        samples = summary["samples"]
        out.items = samples - 1
        header, rows = _read_csv(state["workdir"] / "duffing.csv")
        out.csv_rows = len(rows)
        doc = json.loads((state["workdir"] / "duffing.json").read_text())
        if len(rows) != samples or len(doc["times"]) != samples:
            out.fail(f"{len(rows)} CSV rows, {len(doc['times'])} JSON samples, "
                     f"{samples} reported")
            return out
        if samples != _steps(DUFFING_T, DUFFING_STEP) + 1:
            out.fail(f"{samples} samples for T={DUFFING_T}, step={DUFFING_STEP}")
        p = state["config"]["system"]["params"]

        def f(t, y):
            x, v = y
            return [v, -p["delta"] * v - p["alpha"] * x - p["beta"] * x ** 3
                    + p["gamma"] * math.cos(p["omega"] * t)]

        ref = _reference(f, [state["config"]["initial"]["q"][0], 0.0], 0.0,
                         DUFFING_STEP, samples - 1)
        iq, iv = header.index("q1"), header.index("v1")
        out.error_max = max(max(abs(r[iq] - y[0]), abs(r[iv] - y[1]))
                            for r, y in zip(rows, ref))
        if not out.error_max < DUFFING_ERROR_BOUND:
            out.fail(f"error_max {out.error_max:.3e} >= {DUFFING_ERROR_BOUND:.0e}")
        out.residual_max = max(summary["residuals"][ch]["max"] for ch in CHANNELS)
        if not out.residual_max < RESIDUAL_BOUNDS[self.name]:
            out.fail(f"residual channel max {out.residual_max:.3e}")
        return out


class ChargedTrajectory(Workload):
    """Five-generation ladder discovery, then a unified-description run."""

    name = "charged-trajectory"
    error_bound = CHARGED_ERROR_BOUND

    def inputs(self, seed):
        rng = self.rng(seed)
        return {"x0": rng.uniform(1.95, 2.05), "vy0": rng.uniform(9.75, 10.25)}

    def setup(self, inputs, workdir):
        import numpy as np
        from cocontact import AlgorithmOptions, IntegratorConfig, charged_particle

        pre = charged_particle()
        w0 = np.zeros(3 * pre.n + 2)
        w0[1] = inputs["x0"]  # q = (x0, 0, 0, 0)
        w0[1 + pre.n + 1] = inputs["vy0"]  # v = (0, vy0, 0, 0)
        cfg = IntegratorConfig(method="rk4", step=CHARGED_STEP, t_end=CHARGED_T)
        return {"pre": pre, "w0": w0, "cfg": cfg, "opts": AlgorithmOptions()}

    def timed(self, state):
        from cocontact import integrate, run_constraint_algorithm, unified_field

        pre, opts = state["pre"], state["opts"]
        ladder, _ = run_constraint_algorithm(pre.system, state["w0"], opts)
        traj = integrate(unified_field(pre.system, ladder, opts), ladder.probe,
                         state["cfg"])
        return ladder, traj

    def check(self, state, result):
        ladder, traj = result
        out = Outcome(items=len(traj) - 1)
        sizes = [len(g) for g in ladder.generations]
        if ladder.status != "Closed" or sizes != CHARGED_LADDER:
            out.fail(f"ladder {ladder.status} {sizes}, expected Closed {CHARGED_LADDER}")
            return out
        if len(traj) != _steps(CHARGED_T, CHARGED_STEP) + 1:
            out.fail(f"{len(traj)} samples for T={CHARGED_T}")
        pre = state["pre"]
        drift = max(max(abs(w[3] - w[0]), *(abs(c(w)) for c in pre.ladder_closures))
                    for w in traj.lifted)
        # On the plane z = t with p = m v, the motion reduces to
        # m x'' = -k dphi/dx - gamma m x' (same for y), phi = Q / r.
        kq_m = pre.params["k"] * SOURCE_CHARGE / pre.params["m"]
        gam = pre.params["gamma"]

        def f(t, y):
            x, yy, vx, vy = y
            r3 = (x * x + yy * yy + t * t) ** 1.5
            return [vx, vy, kq_m * x / r3 - gam * vx, kq_m * yy / r3 - gam * vy]

        w0 = traj.lifted[0]  # the projected start: (t, x, y, z, lambda, vx, vy, ...)
        ref = _reference(f, [w0[1], w0[2], w0[5], w0[6]], w0[0], CHARGED_STEP, len(traj) - 1)
        dev = max(max(abs(w[1] - r[0]), abs(w[2] - r[1]), abs(w[5] - r[2]), abs(w[6] - r[3]))
                  for w, r in zip(traj.lifted, ref))
        out.error_max = max(drift, dev)
        if not out.error_max < CHARGED_ERROR_BOUND:
            out.fail(f"error_max {out.error_max:.3e} >= {CHARGED_ERROR_BOUND:.0e}")
        out.residual_max = max(traj.channel_max(ch) for ch in CHANNELS)
        if not out.residual_max < RESIDUAL_BOUNDS[self.name]:
            out.fail(f"residual channel max {out.residual_max:.3e}")
        return out


class DragSweep(Workload):
    """Two-value `sweep` of the drag preset in the momentum description."""

    name = "drag-sweep"
    modules = ("cocontact", "cocontact.cli")
    exports_csv = True
    error_bound = SWEEP_ERROR_BOUND

    def operations(self, inputs):
        return len(inputs["values"])

    def inputs(self, seed):
        rng = self.rng(seed)
        values: list[float] = []
        # distinct under %g, or two runs would share one CSV path
        while len(values) < SWEEP_VALUES:
            v = round(rng.uniform(0.195, 0.205), 4)
            if f"{v:g}" not in {f"{u:g}" for u in values}:
                values.append(v)
        return {"values": values}

    def setup(self, inputs, workdir):
        from cocontact import preset_by_name

        params = dict(preset_by_name("variable_mass_drag").params)
        argv = ["sweep", "--preset", "variable_mass_drag", "--space", "hamiltonian",
                "--param", "gamma", "--values", ",".join(map(repr, inputs["values"])),
                "--step", repr(SWEEP_STEP), "--t-end", repr(SWEEP_T)]
        return {"argv": argv, "params": params, "values": inputs["values"],
                "workdir": workdir}

    def timed(self, state):
        return _call_cli(state["argv"])

    def check(self, state, result):
        code, stdout = result
        out = Outcome()
        if code != 0:
            out.fail(f"sweep exited {code}", ops=len(state["values"]))
            return out
        runs = {run["value"]: run for run in json.loads(stdout)["runs"]}
        steps = _steps(SWEEP_T, SWEEP_STEP)
        F, g = state["params"]["F"], state["params"]["g"]
        for value in state["values"]:
            run = runs.get(value)
            if run is None:
                out.fail(f"gamma={value}: no run reported")
                continue
            header, rows = _read_csv(state["workdir"] / Path(run["file"]).name)
            out.csv_rows += len(rows)
            out.items += len(rows) - 1
            if len(rows) != steps + 1:
                out.fail(f"gamma={value}: {len(rows)} CSV rows, expected {steps + 1}")
                continue

            def f(t, y, gam=value):
                # m v' + m' v = F - m g - gamma m v^2, with the action s' = L
                yy, v, s = y
                m = 0.5 * (1.0 + math.exp(-t))
                mdot = -0.5 * math.exp(-t)
                L = (0.5 * m * v * v + (m * g / (2 * gam)) * (math.exp(-2 * gam * yy) - 1)
                     - 2 * gam * v * s + F / (2 * gam))
                return [v, (F - m * g - gam * m * v * v - mdot * v) / m, L]

            ref = _reference(f, [0.0, 0.0, 0.0], 0.0, SWEEP_STEP, steps)
            iq, iv = header.index("q1"), header.index("v1")
            err = max(max(abs(r[iq] - y[0]), abs(r[iv] - y[1])) for r, y in zip(rows, ref))
            out.error_max = max(out.error_max, err)
            worst = max(run["residual_max"][ch] for ch in CHANNELS)
            out.residual_max = max(out.residual_max, worst)
            if not err < SWEEP_ERROR_BOUND:
                out.fail(f"gamma={value}: error {err:.3e} >= {SWEEP_ERROR_BOUND:.0e}")
            elif not worst < RESIDUAL_BOUNDS[self.name]:
                out.fail(f"gamma={value}: residual channel max {worst:.3e}")
        return out


class ChargedPoints(Workload):
    """Both pointwise checks on the charged particle: no integrator."""

    name = "charged-points"

    def operations(self, inputs):
        return 2

    def inputs(self, seed):
        return {"check_seed": self.rng(seed).randrange(2 ** 31)}

    def setup(self, inputs, workdir):
        from cocontact import charged_particle

        return {"pre": charged_particle(), "seed": inputs["check_seed"]}

    def timed(self, state):
        from cocontact import checks

        pre, seed = state["pre"], state["seed"]
        return (checks.check_ad_vs_fd(pre, seed, points=POINTS),
                checks.check_ladder(pre, seed, points=POINTS))

    def check(self, state, result):
        out = Outcome(items=POINTS * len(result))
        # Both checks' worst ratios are finite-difference and rounding noise
        # (order-1 differences at step 1e-5), which spreads by +-35% between
        # seeds; only the power of ten is resolvable, so that is reported.
        worst = max(r.worst / r.tol for r in result)
        out.error_max = 10.0 ** math.ceil(math.log10(worst)) if worst > 0 else 0.0
        for r in result:
            if not r.passed:
                out.fail(r.line())
        return out


class Sequence(Workload):
    """Parts run one after another in one interpreter, each timed.

    `timed` returns each part's result and CPU time.  `check` sums the
    parts' items, failures and CSV rows, and sets `error_max` to the
    geometric mean of each part's error_max over its gate bound, so a loss
    of accuracy in any part moves it by the same factor.
    """

    def __init__(self, name: str, parts: tuple[Workload, ...]):
        self.name = name
        self.parts = parts
        self.modules = tuple(dict.fromkeys(m for p in parts for m in p.modules))
        self.exports_csv = any(p.exports_csv for p in parts)

    def operations(self, inputs):
        return sum(p.operations(inputs[p.name]) for p in self.parts)

    def inputs(self, seed):
        return {p.name: p.inputs(seed) for p in self.parts}

    def setup(self, inputs, workdir):
        return [p.setup(inputs[p.name], workdir) for p in self.parts]

    def timed(self, state):
        results, cpus = [], []
        for part, s in zip(self.parts, state):
            t0 = time.process_time()
            results.append(part.timed(s))
            cpus.append(time.process_time() - t0)
        return results, cpus

    def check(self, state, result):
        results, cpus = result
        out = Outcome()
        log_share = 0.0
        for part, s, r, cpu in zip(self.parts, state, results, cpus):
            o = part.check(s, r)
            out.items += o.items
            out.failed += o.failed
            out.csv_rows += o.csv_rows
            out.residual_max = max(out.residual_max, o.residual_max)
            out.problems += [f"{part.name}: {msg}" for msg in o.problems]
            out.parts[part.name] = {"cpu_s": cpu, "items": o.items,
                                    "error_max": o.error_max}
            log_share += math.log(max(o.error_max, 1e-300) / part.error_bound)
        out.error_max = math.exp(log_share / len(self.parts))
        return out


PARTS = {p.name: p for p in (DuffingSimulate(), ChargedTrajectory(), DragSweep(),
                             ChargedPoints())}
WORKLOADS = {w.name: w for w in (
    Sequence("charged-library", (PARTS["charged-trajectory"], PARTS["charged-points"])),
    Sequence("cli-simulate-sweep", (PARTS["duffing-simulate"], PARTS["drag-sweep"])),
)}
