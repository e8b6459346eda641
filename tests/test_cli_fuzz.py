"""cli.main under drawn configs and flags: every run ends in a documented
exit code and at most one line on stderr, never a traceback.

Hypothesis draws a system block (a preset, an inline Lagrangian, or
something that is neither), parameter overrides, initial data,
integrator, output and sweep blocks, and the flags of one subcommand.
Numbers come from sets that mix ordinary values with extreme and
non-finite ones (NaN and Infinity reach json.load as its own tokens).
A drawn run that would take more than MAX_RUN_STEPS steps is skipped, so
the whole file stays a few seconds.
"""

import contextlib
import io
import json
import math
import os
import tempfile
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, given, settings, strategies as st  # noqa: E402

from cocontact import cli  # noqa: E402
from cocontact.dynamics import MAX_STEPS, RESIDUAL_CHANNELS  # noqa: E402

EXIT_CODES = {0, 1, 2, 3, 4}
MAX_RUN_STEPS = 400


def _mostly(good: list, bad: list):
    """One of `good` seven times in eight, else one of `bad`: a config
    with a dozen drawn values still gets past its checks often, and a run
    is where the library's errors show."""
    return st.integers(0, 7).flatmap(lambda k: st.sampled_from(bad if k == 7 else good))


NAN, INF = math.nan, math.inf
# what a number in a config or a flag may be: ordinary, extreme, non-finite,
# or not a number at all (None leaves the key or flag out)
EXTREME = [0.0, -1.0, 1e300, -1e300, 1e-300, NAN, INF, -INF]
STEPS = _mostly([0.05, 0.1, 0.25, None], [*EXTREME, "0.1"])
T_ENDS = _mostly([0.2, 0.5, None], [*EXTREME, True])
TOLS = _mostly([None, 1e-9, 1e-6, 1e-3], [1.0, 1e300, 0.0, -1.0, NAN, INF, "x"])
NUMBERS = _mostly([0.5, 1.0, 2.0, 1e-4, 3], EXTREME)
NUMBERS_OR_TEXT = st.integers(0, 7).flatmap(lambda k: st.just("x") if k == 7 else NUMBERS)
# a float flag takes what float() reads
FLAG_STEPS = _mostly([None, 0.05, 0.1], EXTREME)
FLAG_T_ENDS = _mostly([None, 0.2, 0.5], EXTREME)

PRESET_N = {"duffing": 1, "variable_mass_drag": 1, "drag": 1, "charged_particle": 4, "charged": 4}
PRESET_PARAMS = {
    "duffing": ("alpha", "beta", "gamma", "delta", "omega"),
    "variable_mass_drag": ("gamma", "F", "g", "m_expr"),
    "drag": ("gamma", "F", "g", "m_expr"),
    "charged_particle": ("m", "k", "gamma", "phi_expr", "f_expr"),
    "charged": ("m", "k", "gamma", "phi_expr", "f_expr"),
}
# expression-valued parameters, and inline Lagrangians: regular, singular,
# incompatible, outside their domain at the start, unparsable, too deep
EXPRESSIONS = ["0.5 - t", "1 + t", "-1", "q1^2 + q2^2", "z", "(", "0",
               "(" * 150 + "t" + ")" * 150]
INLINE = [
    (1, "v1^2/2 - q1^2/2"),
    (1, "v1^2/2 - alpha*q1^2/2"),
    (1, "v1^2/2 - sqrt(q1)"),
    (1, "0.5*q1*v1^2"),
    (1, "v1^2/2 - ln(q1)"),
    (1, "v1^2/2 + 1/q1"),
    (1, "v1 + q1"),
    (2, "q2*(v1 - q1) + v2^2/2"),
    (2, "0.5*v1^2 + 0.5*v2^2 + q1*v1*v2"),
    (3, "q1*(v1 - q2) + q3*(v2 - t) + v3^2/2"),
    (1, "q1 q1"),
    (1, "p1^2"),
    (1, "(" * 3000 + "v1" + ")" * 3000),
    (1, "v1" + " + q1" * 150),
]


def _maybe(strategy):
    """A value, or the key left out (None is dropped by _clean)."""
    return st.one_of(st.none(), strategy)


def _clean(block: dict) -> dict:
    return {key: value for key, value in block.items() if value is not None}


@st.composite
def systems(draw):
    kind = draw(_mostly(["preset", "preset", "inline"], ["bad"]))
    if kind == "preset":
        name = draw(st.sampled_from(sorted(PRESET_PARAMS)))
        keys = draw(st.lists(st.sampled_from(PRESET_PARAMS[name] + ("nope",)), max_size=2,
                             unique=True))
        params = {key: draw(_mostly(EXPRESSIONS, [3]) if key.endswith("_expr") else NUMBERS_OR_TEXT)
                  for key in keys}
        return name, params
    if kind == "inline":
        n, text = draw(st.sampled_from(INLINE))
        n = draw(_mostly([n], [0, -1, 1.5, True, "1"]))
        params = draw(_mostly([None, {}, {"alpha": 2.0}], [{"alpha": NAN}, {"alpha": "x"}, [1.0]]))
        return _clean({"n": n, "lagrangian": text, "params": params}), None
    return draw(st.sampled_from([None, 3, "nope", [], {"n": 1}, {"lagrangian": "v1^2/2"}])), None


@st.composite
def initial_blocks(draw, n: int):
    def vector():
        size = draw(st.sampled_from([n, n, n, n + 1, 0]))
        return draw(st.lists(NUMBERS, min_size=size, max_size=size))

    return draw(st.one_of(st.none(), st.sampled_from([[], "q"]), st.builds(
        lambda t0, q, v, s: _clean({"t0": t0, "q": q, "v": v, "s": s}),
        _maybe(NUMBERS), st.builds(vector), st.builds(vector), _maybe(NUMBERS))))


@st.composite
def integrator_blocks(draw):
    return _clean({
        "method": draw(_mostly([None, "rk4", "rk45"], ["euler"])),
        "step": draw(STEPS),
        "t_end": draw(T_ENDS),
        "abs_tol": draw(TOLS),
        "rel_tol": draw(TOLS),
        "reproject": draw(_mostly([None, True, False], ["no"])),
        "order": draw(_mostly([None], [4])),
    })


@st.composite
def outputs_blocks(draw):
    return _clean({
        "csv": draw(_mostly([None, "run.csv", ""], ["nodir/run.csv", "."])),
        "json": draw(_mostly([None, "run.json"], ["nodir/run.json", "."])),
        "channels": draw(_mostly([None, list(RESIDUAL_CHANNELS), ["holonomy"]],
                                 [["bogus"], "sdot", [1]])),
    })


def _flag(name: str, value, spaced: bool) -> list:
    # "--name value" or "--name=value": a negative number such as -1e+300
    # is a value in either form
    if value is None:
        return []
    return [name, str(value)] if spaced else [f"{name}={value}"]


def _flags(argv: list) -> dict:
    """argv's flags and their values, given in either form."""
    out, args = {}, iter(argv[1:])
    for arg in args:
        name, eq, value = arg.partition("=")
        out[name] = value if eq else next(args, None)
    return out


@st.composite
def invocations(draw):
    """(argv, config document or None)."""
    command = draw(st.sampled_from(["constraints", "simulate", "simulate", "sweep", "verify"]))
    system, params = draw(systems())
    name = system if isinstance(system, str) else None
    n = system.get("n", 1) if isinstance(system, dict) else PRESET_N.get(name, 1)
    n = n if type(n) is int and 0 < n < 5 else 1
    doc = _clean({
        "system": system,
        "params": params or None,
        "initial": draw(_maybe(initial_blocks(n))),
        "integrator": draw(_maybe(integrator_blocks())),
        "outputs": draw(_maybe(outputs_blocks())),
    })
    argv = [command]
    spaced = draw(st.booleans())

    def flag(name, value):
        return _flag(name, value, spaced)

    if name in cli.PRESET_NAMES and draw(st.booleans()):
        argv += ["--preset", system]
        doc = None
    if command in ("simulate", "sweep"):
        argv += flag("--space", draw(_maybe(st.sampled_from(["unified", "lagrangian",
                                                             "hamiltonian"]))))
        argv += flag("--step", draw(FLAG_STEPS))
        argv += flag("--t-end", draw(FLAG_T_ENDS))
    if command in ("constraints", "simulate"):
        argv += flag("--out", draw(_mostly([None, "out.csv"], ["nodir/out.csv", "."])))
    if command == "sweep":
        names = list(PRESET_PARAMS.get(name, ("alpha",)))
        param = draw(_mostly([name for name in names if not name.endswith("_expr")],
                             [None, "nope", "m_expr"]))
        values = draw(_mostly(["1,2", "0.5", "0.25,3"], [None, "1,1.0", "nan,inf", "x", "0,-1"]))
        argv += flag("--param", param) + flag("--values", values)
        if doc is not None and draw(st.booleans()):
            doc["sweep"] = {"param": param, "values": values}
    if command == "verify":
        argv += flag("--seed", draw(_maybe(st.sampled_from([0, 7, -3]))))
        argv += flag("--tol", draw(_mostly([None, 1e-18, 1.0], EXTREME)))
    return argv, doc


def _float(value, default: float) -> float:
    if value is None:
        return default
    try:
        return float(value)
    except (TypeError, ValueError):
        return math.nan


def _run_steps(argv: list, doc: dict | None) -> float:
    """An upper estimate of the steps the run would take; 0 if it would be
    refused before stepping or does not step."""
    if argv[0] not in ("simulate", "sweep", "verify"):
        return 0.0
    if argv[0] == "verify":
        return 0.0  # the checks' runs have their own fixed sizes
    block = (doc or {}).get("integrator") or {}
    block = block if isinstance(block, dict) else {}
    initial = (doc or {}).get("initial") or {}
    step = _float(block.get("step"), 1e-3)
    t_end = _float(block.get("t_end"), 10.0)
    t0 = _float(initial.get("t0") if isinstance(initial, dict) else None, 0.0)
    flags = _flags(argv)
    step = _float(flags.get("--step"), step)
    t_end = _float(flags.get("--t-end"), t_end)
    if not (math.isfinite(step) and step > 0 and math.isfinite(t_end) and math.isfinite(t0)):
        return 0.0
    steps = (t_end - t0) / step
    # rk4 refuses more than MAX_STEPS before stepping; rk45 has no cap
    if steps > MAX_STEPS and block.get("method") != "rk45":
        return 0.0
    return max(steps, 0.0)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(invocations())
def test_every_cli_failure_is_one_line_and_a_documented_exit_code(invocation):
    argv, doc = invocation
    assume(_run_steps(argv, doc) <= MAX_RUN_STEPS)
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ,
                                                               {"COCONTACT_OUT_DIR": tmp}):
        if doc is not None:
            path = os.path.join(tmp, "config.json")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            argv = [argv[0], "--config", path, *argv[1:]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    err = err.getvalue()
    assert code in EXIT_CODES, (argv, doc, code)
    assert "Traceback" not in err
    assert err.count("\n") <= 1 and err == err.strip() + "\n" * bool(err), (argv, doc, err)
    if code == 0:
        assert err == ""
    assert not err or err.startswith("error: "), err
