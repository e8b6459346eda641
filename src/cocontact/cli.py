"""Command-line front end.

Subcommands:
  constraints  run the constraint algorithm, print the ladder report
  simulate     integrate a trajectory, write CSV/JSON, print residuals
  verify       run the named identity checks, print a pass/fail table
  sweep        integrate one preset at each parameter value in turn

Configuration is a JSON document (--config), or --preset NAME for a
built-in system with its default initial data:

  {
    "system": "duffing" | {"n": 1, "lagrangian": "<expression>", "params": {...}},
    "params": {...},                     # preset overrides (preset systems only)
    "initial": {"t0": 0.0, "q": [...], "v": [...], "s": 0.0},
    "integrator": {"method": "rk4", "step": 1e-3, "t_end": 10.0,
                    "abs_tol": 1e-9, "rel_tol": 1e-9, "reproject": false},
    "outputs": {"csv": "run.csv", "json": "run.json",
                 "channels": ["holonomy", "sdot", "herglotz", "constraint"]},
    "sweep": {"param": "alpha", "values": [0.5, 1.0, 2.0]}
  }

Momenta are never part of the input; initial states are projected onto
the constraint set.  Relative output paths resolve inside $COCONTACT_OUT_DIR
(default: current directory).

Exit codes: 0 success; 1 configuration error, unwritable output or failed
verification; 2 incompatible constraint ladder; 3 constraint algorithm hit
its generation cap; 4 integrator failure.  Errors print one line (EXIT_CODES).
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import json
import numbers
import os
import sys
from pathlib import Path

import numpy as np

from . import dsl
from .dynamics import (
    FIELDS,
    RESIDUAL_CHANNELS,
    IntegratorConfig,
    LadderLost,
    NonInvertibleLegendre,
    StepFailure,
    integrate,
    residual_report,
    trajectory_to_csv,
    trajectory_to_json,
)
from .checks import run_all_checks
from .jets import JetDomainError
from .mechanics import LagrangianSystem
from .pontryagin import InfeasiblePoint, NumericalBreakdown, run_constraint_algorithm
from .systems import PRESET_NAMES, preset_by_name

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INCOMPATIBLE = 2
EXIT_MAX_GENERATIONS = 3
EXIT_INTEGRATOR = 4


class ConfigError(ValueError):
    pass


# first match wins: ConfigError and InfeasiblePoint are ValueErrors
EXIT_CODES = (
    (ConfigError, EXIT_CONFIG),
    (InfeasiblePoint, EXIT_INTEGRATOR),
    (ValueError, EXIT_CONFIG),
    (StepFailure, EXIT_INTEGRATOR),
    (LadderLost, EXIT_INTEGRATOR),
    (NonInvertibleLegendre, EXIT_INTEGRATOR),
    (JetDomainError, EXIT_INTEGRATOR),
    (NumericalBreakdown, EXIT_INTEGRATOR),
    (OverflowError, EXIT_INTEGRATOR),
    (FloatingPointError, EXIT_INTEGRATOR),  # numpy's, raised by main's errstate
    (OSError, EXIT_CONFIG),  # an output path that cannot be written
)


def _load_config(args) -> dict:
    if getattr(args, "preset", None):
        if args.config:
            raise ConfigError("give either --config or --preset, not both")
        return {"system": args.preset}
    if not args.config:
        raise ConfigError("a --config file or --preset name is required")
    try:
        with open(args.config) as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"config must be a JSON object, got {type(config).__name__}")
    return config


def _block(config: dict, key: str) -> dict:
    """The object under key; {} when the key is absent or null."""
    block = config.get(key)
    if block is None:
        return {}
    if not isinstance(block, dict):
        raise ConfigError(f"{key} must be a JSON object, got {type(block).__name__}")
    return block


def _build_system(config: dict):
    """(system, preset-or-None) from the config's system block."""
    spec = config.get("system")
    if isinstance(spec, str):
        try:
            pre = preset_by_name(spec, _block(config, "params"))
        except (KeyError, TypeError) as exc:
            raise ConfigError(exc.args[0]) from exc  # str() would quote a KeyError's
        return pre.system, pre
    if isinstance(spec, dict):
        if _block(config, "params"):
            raise ConfigError("inline systems take params inside the system block")
        try:
            n = spec["n"]
            text = spec["lagrangian"]
        except KeyError as exc:
            raise ConfigError(f"inline system needs {exc} field") from exc
        # bool is an int subclass: "n": true would run as n = 1
        if isinstance(n, bool) or not isinstance(n, int):
            raise ConfigError(f"bad inline system n: expected an integer, got {n!r}")
        if not isinstance(text, str):
            raise ConfigError("inline system lagrangian must be a string")
        try:
            L = LagrangianSystem.from_expr(dsl.parse(text, n), _block(spec, "params"), "inline")
        except (dsl.DslError, dsl.UnknownParameterError) as exc:
            raise ConfigError(f"bad inline Lagrangian: {exc}") from exc
        return L, None
    raise ConfigError("config needs a system: preset name or inline definition")


def _initial_state(config: dict, L, pre) -> np.ndarray:
    """Unified-space start vector; momenta zeroed (projected later)."""
    if config.get("initial") is None:
        if pre is None:
            raise ConfigError("inline systems need an initial block")
        return pre.initial.copy()
    init = _block(config, "initial")
    try:
        t0, q, v, s0 = init.get("t0", 0.0), init["q"], init["v"], init.get("s", 0.0)
    except KeyError as exc:
        raise ConfigError(f"bad initial block: {exc}") from exc
    if not (isinstance(q, list) and isinstance(v, list) and len(q) == len(v) == L.n):
        raise ConfigError(f"initial q and v must have length n = {L.n}")
    entries = {"t0": t0, **{f"q[{i}]": x for i, x in enumerate(q)},
               **{f"v[{i}]": x for i, x in enumerate(v)}, "s": s0}
    for name, x in entries.items():
        # bool is an int subclass and float() reads "0.5": true would start at 1
        if isinstance(x, bool) or not isinstance(x, numbers.Real):
            raise ConfigError(f"bad initial block: {name} must be a number, got {x!r}")
    w0 = np.array([t0, *q, *v, *[0.0] * L.n, s0], dtype=float)
    if not np.isfinite(w0).all():
        raise ConfigError("initial t0, q, v and s must be finite")
    return w0


def _integrator_config(config: dict, args) -> IntegratorConfig:
    block = dict(_block(config, "integrator"))
    if getattr(args, "step", None) is not None:
        block["step"] = args.step
    if getattr(args, "t_end", None) is not None:
        block["t_end"] = args.t_end
    unknown = set(block) - {f.name for f in dataclasses.fields(IntegratorConfig)}
    if unknown:
        raise ConfigError(f"unknown integrator fields: {sorted(unknown)}")
    try:
        return IntegratorConfig(**block)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad integrator block: {exc}") from exc


def _output(path: str | Path) -> Path:
    """An output path, resolved, once a file can be written there: checked
    before any run, an unwritable one fails at once (OSError, exit 1)."""
    path = Path(os.environ.get("COCONTACT_OUT_DIR", "."), path)  # an absolute path stays
    error = (errno.ENOENT if not path.parent.is_dir() else errno.EISDIR if path.is_dir()
             else 0 if os.access(path.parent, os.W_OK) else errno.EACCES)
    if error:  # OSError picks the subclass: FileNotFoundError for ENOENT
        raise OSError(error, os.strerror(error), str(path))
    return path


def _ladder_exit(status: str) -> int:
    return {"Closed": EXIT_OK, "Incompatible": EXIT_INCOMPATIBLE,
            "MaxIterations": EXIT_MAX_GENERATIONS}[status]


def cmd_constraints(args) -> int:
    config = _load_config(args)
    L, pre = _build_system(config)
    w0 = _initial_state(config, L, pre)
    out = _output(args.out) if args.out else None
    ladder, _ = run_constraint_algorithm(L, w0)
    report = ladder.report()
    report["system"] = L.label
    text = json.dumps(report, indent=1)
    if out:
        out.write_text(text + "\n")
    else:
        print(text)
    return _ladder_exit(ladder.status)


def cmd_simulate(args) -> int:
    config = _load_config(args)
    L, pre = _build_system(config)
    w0 = _initial_state(config, L, pre)
    cfg = _integrator_config(config, args)
    outputs = _block(config, "outputs")
    channels = outputs.get("channels", list(RESIDUAL_CHANNELS))
    if not (isinstance(channels, list) and all(isinstance(c, str) for c in channels)):
        raise ConfigError("outputs channels must be a list of channel names")
    bad = set(channels) - set(RESIDUAL_CHANNELS)
    if bad:
        raise ConfigError(f"unknown residual channels: {sorted(bad)}")
    paths = [_output(args.out or outputs.get("csv") or f"{L.label}_{args.space}.csv")]
    if outputs.get("json"):
        paths.append(_output(outputs["json"]))

    ladder, _ = run_constraint_algorithm(L, w0)
    if ladder.status != "Closed":
        print(f"error: constraint algorithm ended {ladder.status}", file=sys.stderr)
        return _ladder_exit(ladder.status)

    field = FIELDS[args.space](L, ladder)
    traj = integrate(field, field.drop(ladder.probe), cfg)
    trajectory_to_csv(traj, paths[0])
    if len(paths) > 1:
        trajectory_to_json(traj, paths[1])

    rep = residual_report(L, traj)
    summary = {
        "system": L.label,
        "space": args.space,
        "samples": len(traj),
        "t_final": traj.times[-1],
        "files": list(map(str, paths)),
        "residuals": {k: rep[k] for k in channels},
    }
    print(json.dumps(summary, indent=1))
    return EXIT_OK


def cmd_verify(args) -> int:
    config = _load_config(args)
    L, pre = _build_system(config)
    if pre is None:
        raise ConfigError("verify needs a preset system (its closed forms are the oracle)")
    if args.seed < 0:
        raise ConfigError(f"--seed must be a non-negative integer, got {args.seed}")
    results = run_all_checks(pre, seed=args.seed, tol=args.tol)
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return EXIT_OK if not failed else EXIT_CONFIG


def cmd_sweep(args) -> int:
    config = _load_config(args)
    name = config.get("system")
    if not isinstance(name, str):
        raise ConfigError("sweep needs a preset system")
    block = _block(config, "sweep")
    param = args.param or block.get("param")
    values = args.values or block.get("values")
    if not (param and isinstance(param, str) and values):
        raise ConfigError("sweep needs a parameter name and a value list")
    try:
        values = [float(x) for x in (values.split(",") if isinstance(values, str) else values)]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad sweep values: {exc}") from exc
    # one output file per value, named by the value's %g form
    tags = [f"{v:g}" for v in values]
    clashes = sorted({t for t in tags if tags.count(t) > 1})
    if clashes:
        raise ConfigError(f"sweep values share output file names: {', '.join(clashes)}")
    cfg = _integrator_config(config, args)
    try:
        presets = [preset_by_name(name, {**_block(config, "params"), param: x}) for x in values]
    except (KeyError, TypeError) as exc:
        raise ConfigError(exc.args[0]) from exc
    paths = [_output(f"{pre.system.label}_{param}_{tag}.csv") for pre, tag in zip(presets, tags)]

    rows = []
    for value, tag, pre, path in zip(values, tags, presets, paths):
        L = pre.system
        ladder, _ = run_constraint_algorithm(L, _initial_state(config, L, pre))
        if ladder.status != "Closed":
            print(f"error: {param}={tag}: constraint algorithm ended {ladder.status}",
                  file=sys.stderr)
            return _ladder_exit(ladder.status)
        field = FIELDS[args.space](L, ladder)
        traj = integrate(field, field.drop(ladder.probe), cfg)
        trajectory_to_csv(traj, path)
        rep = residual_report(L, traj)
        rows.append({
            "value": value,
            "file": str(path),
            "t_final": traj.times[-1],
            "final_state": traj.states[-1].tolist(),
            "residual_max": {k: rep[k]["max"] for k in RESIDUAL_CHANNELS},
        })
    print(json.dumps({"param": param, "runs": rows}, indent=1))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse, reading as a value any negative number float() accepts:
    its own pattern has no exponent, inf or nan ("--t-end -1e+300")."""

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
            return None
        except ValueError:
            return super()._parse_optional(arg_string)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cocontact",
        description="Constraint algorithm, trajectories, and identity checks "
                    "for time-dependent contact Lagrangian systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand gets only the flags it reads
    def common(p, integrator=False):
        p.add_argument("--config", help="JSON run configuration")
        p.add_argument("--preset", choices=PRESET_NAMES,
                       help="built-in system with default initial data")
        if integrator:
            p.add_argument("--space", choices=tuple(FIELDS),
                           default="unified", help="description to integrate")
            p.add_argument("--step", type=float, help="integrator step override")
            p.add_argument("--t-end", dest="t_end", type=float, help="end time override")

    p = sub.add_parser("constraints", help="run the constraint algorithm, report the ladder")
    common(p)
    p.add_argument("--out", help="output path (resolved in $COCONTACT_OUT_DIR)")
    p.set_defaults(fn=cmd_constraints)

    p = sub.add_parser("simulate", help="integrate a trajectory and export it")
    common(p, integrator=True)
    p.add_argument("--out", help="output path (resolved in $COCONTACT_OUT_DIR)")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("verify", help="run the identity checks for a preset")
    common(p)
    p.add_argument("--seed", type=int, default=42, help="random probe seed")
    p.add_argument("--tol", type=float, default=None,
                   help="override every value-comparison tolerance")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("sweep", help="integrate one preset across parameter values")
    common(p, integrator=True)
    p.add_argument("--param", help="parameter to sweep")
    p.add_argument("--values", help="comma-separated parameter values")
    p.set_defaults(fn=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a numpy floating-point warning would print lines of its own: raised, it is exit 4
        with np.errstate(all="raise", under="ignore"):
            return args.fn(args)
    except Exception as exc:
        for kind, code in EXIT_CODES:
            if isinstance(exc, kind):
                print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
