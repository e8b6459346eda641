"""One repetition of one workload, in a fresh interpreter.

    python3 bench/child.py SPEC.json RESULT.json

SPEC holds the workload name, its generated inputs, a scratch directory and
whether to trace.  The result file gets set-up time, the timed section's CPU
and wall time, peak RSS, the correctness outcome and, when traced, the
per-layer aggregates.  `cocontact` must be importable (run.py puts the
checkout's src/ on PYTHONPATH).

The process pins itself to one CPU first.  Its threads (the sweep's pool)
then hand the GIL over on that CPU, not between CPUs, and its CPU time is
its wall time less what the hypervisor gave that CPU to other guests.
"""

import dataclasses
import importlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

from workloads import WORKLOADS


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    wl = WORKLOADS[spec["workload"]]
    workdir = Path(spec["workdir"])
    tracer = None

    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    c0 = time.process_time()
    for name in wl.modules:
        importlib.import_module(name)
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    state = wl.setup(spec["inputs"], workdir)
    c1, t1 = time.process_time(), time.perf_counter()
    result = wl.timed(state)
    c2, t2 = time.process_time(), time.perf_counter()
    if tracer is not None:
        tracer.uninstall()

    outcome = wl.check(state, result)
    import cocontact
    import numpy

    out = {
        "setup_s": c1 - c0,
        "cpu_s": c2 - c1,
        "wall_s": t2 - t1,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outcome": dataclasses.asdict(outcome),
        "package": cocontact.__file__,
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__},
    }
    if tracer is not None:
        out["trace"] = {
            "layers": {k: dataclasses.asdict(v) for k, v in tracer.layers().items()},
            "sizes": dict(tracer.sizes),
            "counts": tracer.counts(),
            "spans": len(tracer.spans),
        }
    Path(result_path).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
