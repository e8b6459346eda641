"""Named verification checks, shared by the CLI and the test suite.

Each check runs one family of identities for one system preset and
returns a CheckResult; the CLI `verify` subcommand prints one line per
result and exits nonzero if any failed.  Checks take the preset object
(not just a name) so tests can inject deliberately broken oracles and
watch the right check fail.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .dynamics import IntegratorConfig, cross_check_equivalence, integrate, unified_field
from .pontryagin import AlgorithmOptions, assemble_Z, run_constraint_algorithm
from .systems import SystemPreset, preset_by_name

__all__ = [
    "CheckResult",
    "check_ad_vs_fd",
    "check_ladder",
    "check_equivalence",
    "check_residual_order",
    "run_all_checks",
    "CHECK_NAMES",
]

# first/second/third partials vs central differences: step and relative
# tolerance per derivative order
FD_STEPS = {1: 1e-5, 2: 1e-4, 3: 1e-3}
FD_TOLS = {1: 1e-6, 2: 1e-5, 3: 1e-4}


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst: float
    tol: float
    detail: str = ""

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        out = f"{verdict}  {self.name}  worst {self.worst:.3e} (tol {self.tol:.1e})"
        if self.detail:
            out += f"  [{self.detail}]"
        return out


# -- the checks' points -------------------------------------------------
#
# np.random.default_rng(seed)'s draws, in Python: SeedSequence hashes the
# seed into PCG64's 128-bit state and increment, and each draw is the
# XSL-RR output of one LCG step (O'Neill, "PCG: A Family of Simple Fast
# Space-Efficient Statistically Good Algorithms for Random Number
# Generation", HMC-CS-2014-0905).  Drawn here, a check's points do not
# depend on the numpy installed (numpy gives its Generator streams no
# guarantee across versions), and a check never imports numpy.random,
# whose import loads secrets, hmac and OpenSSL's _hashlib.

_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(seed: int) -> list[int]:
    """SeedSequence(seed).generate_state(4, np.uint64): the seed's 32-bit
    words hashed into a pool of 4, the pool hashed out into 8 words."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    entropy = [seed & _M32]
    while seed >> 32:
        seed >>= 32
        entropy.append(seed & _M32)
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = 0x8B51F9DD
    state = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _M32
        value = value * hash_const & _M32
        state.append(value ^ value >> 16)
    return [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]


class PCG64:
    """The draws of np.random.default_rng(seed), bit for bit: `uniform`,
    and `choice` of two items (with replacement, equal weights), as a
    numpy Generator makes them.  A negative seed raises ValueError, as
    numpy's does."""

    def __init__(self, seed: int):
        s_hi, s_lo, i_hi, i_lo = _seed_words(seed)
        # pcg_setseq_128_srandom_r
        self._inc = ((i_hi << 64 | i_lo) << 1 | 1) & _M128
        self._state = 0
        self._next64()
        self._state = (self._state + (s_hi << 64 | s_lo)) & _M128
        self._next64()
        self._half: int | None = None  # the high half of a u64 drawn for 32 bits

    def _next64(self) -> int:
        s = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        x, r = (s >> 64 ^ s) & _M64, s >> 122
        return (x >> r | x << (64 - r)) & _M64

    def _next32(self) -> int:
        if self._half is not None:
            out, self._half = self._half, None
            return out
        u = self._next64()
        self._half = u >> 32
        return u & _M32

    def _double(self) -> float:
        return (self._next64() >> 11) * 2.0**-53

    def uniform(self, low: float, high: float, size: int | None = None):
        span = high - low
        if size is None:
            return low + span * self._double()
        return np.array([low + span * self._double() for _ in range(size)])

    def choice(self, seq, size: int) -> np.ndarray:
        """Of two items: Lemire's bounded draw on a 32-bit word, for a
        range of 2 its top bit."""
        if len(seq) != 2:
            raise ValueError(f"choice draws from two items, got {len(seq)}")
        return np.asarray(seq)[[self._next32() >> 31 for _ in range(size)]]


def _domain_point(pre: SystemPreset, rng: PCG64) -> np.ndarray:
    """A random smooth-domain point of the Lagrangian's (t, q, v, s) space."""
    n = pre.n
    x = rng.uniform(-1.5, 1.5, 2 * n + 2)
    x[0] = rng.uniform(0.0, 2.0)
    if pre.label == "charged_particle":
        # keep clear of the potential's singularity at the origin
        x[1] = rng.uniform(1.2, 2.2)
    return x


def check_ad_vs_fd(
    pre: SystemPreset,
    seed: int = 42,
    points: int = 100,
    tol: float | None = None,
) -> CheckResult:
    """All partials to order 3 against central finite differences.

    Each order-k block of the jet is differenced against the order-(k-1)
    block, per-order steps and tolerances as above.  `worst` is the
    largest deviation/tolerance ratio, so the pass condition is worst <= 1
    regardless of the per-order tolerances (a `tol` override replaces all
    three per-order tolerances).
    """
    L = pre.system
    rng = PCG64(seed)
    dim = 2 * pre.n + 2
    tols = {k: (tol if tol is not None else FD_TOLS[k]) for k in (1, 2, 3)}
    X = np.array([_domain_point(pre, rng) for _ in range(points)]).reshape(points, dim)

    def differences(k: int, evaluate) -> list[np.ndarray]:
        """Per coordinate i, the central difference quotient of evaluate at
        step FD_STEPS[k] along i, from one call on a stack of all the
        shifted points: X + e_i, then X - e_i, for each i in turn."""
        shifts = FD_STEPS[k] * np.eye(dim)
        rows = np.split(evaluate(np.concatenate([Y for e in shifts for Y in (X + e, X - e)])), 2 * dim)
        return [(rows[2 * i] - rows[2 * i + 1]) / (2 * FD_STEPS[k]) for i in range(dim)]

    # each order's differences from one batched call, the largest (order
    # 3's, Hessians at 2 dim points points) while nothing else is held.
    # Order 1's come from L's float evaluations (a replay of fn, bit for
    # bit L.value's): a replayed expansion's value may differ from them in
    # the last bit, and at this step the difference quotient would show it
    fd3 = differences(3, lambda S: L.jet(S, 2).hess)
    fd2 = differences(2, lambda S: L.jet(S, 1).grad)
    fd1 = differences(1, L.value)
    j3 = L.jet(X, 3)
    info = {1: 0.0, 2: 0.0, 3: 0.0}
    for i in range(dim):
        _fold(info, 1, np.abs(j3.grad[:, i] - fd1[i]) / (1 + np.abs(fd1[i])))
        _fold(info, 2, _deviation(j3.hess[:, i], fd2[i]))
        _fold(info, 3, _deviation(j3.third[:, i], fd3[i]))
    worst = max(info[k] / tols[k] for k in (1, 2, 3))
    detail = ", ".join(f"order {k}: {info[k]:.1e} vs {tols[k]:.0e}" for k in (1, 2, 3))
    return CheckResult(f"ad-vs-fd[{pre.label}]", worst <= 1.0, worst, 1.0, detail)


def _deviation(exact: np.ndarray, fd: np.ndarray) -> np.ndarray:
    """Per point (leading axis): max |exact - fd| / (1 + max |fd|)."""
    axes = tuple(range(1, fd.ndim))
    return np.max(np.abs(exact - fd), axis=axes) / (1 + np.max(np.abs(fd), axis=axes))


def _fold(info: dict, k: int, d: np.ndarray) -> None:
    """info[k] = max(info[k], *d), skipping NaN as a running max() does."""
    info[k] = float(np.fmax.reduce(d, initial=info[k]))


def check_ladder(
    pre: SystemPreset,
    seed: int = 42,
    points: int = 100,
    tol: float | None = None,
) -> CheckResult:
    """Constraint-algorithm regression against the preset's closed forms.

    Checks closure status, generation sizes, constraint values at random
    feasible points, and the assembled field coefficients against
    expected_C / expected_D.
    """
    tol = 1e-10 if tol is None else tol
    name = f"ladder[{pre.label}]"
    opts = AlgorithmOptions()
    ladder, Z = run_constraint_algorithm(pre.system, pre.initial, opts)
    if ladder.status != "Closed":
        return CheckResult(name, False, float("inf"), tol, f"status {ladder.status}")
    sizes = [len(g) for g in ladder.generations]
    want_sizes = [pre.n] + [1] * len(pre.ladder_closures)
    if sizes != want_sizes:
        return CheckResult(
            name, False, float("inf"), tol, f"generations {sizes}, expected {want_sizes}"
        )

    rng = PCG64(seed)
    # each point's closed forms right after it is drawn, while the
    # preset's memo of its last point's work (the charged particle's phi
    # jet) still holds it
    W, closed = [], []
    for _ in range(points):
        w = pre.sample_feasible(rng)
        W.append(w)
        closed.append(([want(w) for want in pre.ladder_closures],
                       None if pre.expected_C is None else pre.expected_C(w),
                       None if pre.expected_D is None else pre.expected_D(w)))
    W = np.array(W).reshape(points, 3 * pre.n + 2)
    worst = 0.0
    for Zw, (closures, C, D) in zip(assemble_Z(pre.system, W, ladder, opts), closed):
        vals = Zw.constraint_values
        worst = max(worst, float(np.max(np.abs(vals))))
        for got, want in zip(vals[pre.n :], closures):
            worst = max(worst, abs(got - want))
        if C is not None:
            worst = max(worst, float(np.max(np.abs(Zw.C - C))))
        if D is not None:
            worst = max(worst, float(np.max(np.abs(Zw.D - D))))
    detail = f"{len(sizes)} generations, {points} feasible points"
    return CheckResult(name, worst <= tol, worst, tol, detail)


def check_equivalence(
    pre: SystemPreset,
    step: float = 1e-2,
    t_end: float = 1.0,
    tol: float | None = None,
) -> CheckResult:
    """Short cross-description run; all projections must agree.

    For singular systems the momentum description is undefined, so only
    the mixed-vs-velocity comparison runs.
    """
    tol = 1e-6 if tol is None else tol
    name = f"equivalence[{pre.label}]"
    cfg = IntegratorConfig(method="rk4", step=step, t_end=t_end)
    eq = cross_check_equivalence(pre.system, pre.initial, cfg, AlgorithmOptions())
    if eq.hamiltonian is None:
        detail = ("momentum description undefined (singular fibre map); "
                  f"mixed-vs-velocity only, T={t_end}")
    else:
        detail = f"three descriptions, T={t_end}"
    return CheckResult(name, eq.max_deviation <= tol, eq.max_deviation, tol, detail)


RESIDUAL_ORDER_T_END = 2.5
RESIDUAL_ORDER_BAND = (12.0, 20.0)


def check_residual_order(pre: SystemPreset) -> CheckResult:
    """Halving the step must cut every residual channel by about 2^4
    (a ratio within RESIDUAL_ORDER_BAND over RESIDUAL_ORDER_T_END).

    Channels that are exactly zero at both steps (structurally preserved
    quantities) are vacuous and skipped.  Deep singular ladders are
    skipped outright: their per-step cost at these step sizes is out of
    scale for a verify run.
    """
    name = f"residual-order[{pre.label}]"
    opts = AlgorithmOptions()
    ladder, _ = run_constraint_algorithm(pre.system, pre.initial, opts)
    if ladder.n_generations > 1:
        return CheckResult(name, True, 0.0, 0.0,
                           "skipped: deep ladder, cost out of scale for verify")
    maxima = {}
    for h in (1e-2, 5e-3):
        cfg = IntegratorConfig(method="rk4", step=h, t_end=RESIDUAL_ORDER_T_END)
        traj = integrate(unified_field(pre.system, ladder, opts), ladder.probe, cfg)
        maxima[h] = {k: traj.channel_max(k) for k in traj.residuals}
    ratios = {}
    for ch in maxima[1e-2]:
        hi, lo = maxima[1e-2][ch], maxima[5e-3][ch]
        if hi == 0.0 and lo == 0.0:
            continue
        ratios[ch] = hi / lo if lo else float("inf")
    low, high = RESIDUAL_ORDER_BAND
    ok = all(low <= r <= high for r in ratios.values())
    worst = max((max(low / r, r / high) for r in ratios.values()), default=0.0)
    detail = ", ".join(f"{ch} x{r:.1f}" for ch, r in sorted(ratios.items()))
    return CheckResult(name, ok, worst, 1.0, detail or "all channels vacuous")


CHECK_NAMES = ("ad-vs-fd", "ladder", "equivalence", "residual-order")


def run_all_checks(
    pre: SystemPreset | str,
    seed: int = 42,
    tol: float | None = None,
    subset: tuple[str, ...] | None = None,
) -> list[CheckResult]:
    if tol is not None and not 0 < tol < math.inf:
        raise ValueError(f"a tolerance override must be finite and positive, got {tol}")
    if isinstance(pre, str):
        pre = preset_by_name(pre)
    subset = subset or CHECK_NAMES
    out = []
    if "ad-vs-fd" in subset:
        out.append(check_ad_vs_fd(pre, seed=seed, tol=tol))
    if "ladder" in subset:
        out.append(check_ladder(pre, seed=seed, tol=tol))
    if "equivalence" in subset:
        out.append(check_equivalence(pre, tol=tol))
    if "residual-order" in subset:
        out.append(check_residual_order(pre))
    return out
