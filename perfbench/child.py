"""Run one op in a fresh interpreter; print its measurements as one JSON line.

Usage (from ``run.py``): ``python3 perfbench/child.py '<spec json>'``.
Set-up is measured from the parent's spawn time (``time.monotonic`` is
CLOCK_MONOTONIC on Linux, one clock for every process) to the end of
``import numpy`` and ``import dispgeo.cli``.  The op is timed from the
call of ``dispgeo.cli.main(argv)`` or the library function to its return;
CPU is this process's user + sys time over the same span, all threads.
Untraced children run a ``hostspeed.Sampler`` from their start; its
probes are reported per phase and the time its ticks took is subtracted
from set-up, op and CPU time.
"""

import contextlib
import io
import json
import resource
import sys
import time

import hostspeed


def _render_vector(values) -> str:
    return "[" + ", ".join(format(float(x), ".12g") for x in values) + "]\n"


def main() -> int:
    spec = json.loads(sys.argv[1])
    sampler = None if spec["trace"] else hostspeed.Sampler()
    if sampler is not None:
        sampler.start()
    sys.path.insert(0, spec["src"])
    import numpy as np
    from dispgeo import (cli, experiments, hyperbolic, lattice, matgeo,
                         serialize, words)

    ready = time.monotonic()
    at_ready = sampler.mark() if sampler else (0, 0.0)
    mpmath_at_setup = "mpmath" in sys.modules
    modules = {"cli": cli, "experiments": experiments,
               "serialize": serialize, "words": words,
               "hyperbolic": hyperbolic, "lattice": lattice,
               "matgeo": matgeo}
    recorder = None
    if spec["trace"]:
        import tracer
        recorder = tracer.install(modules, spec["op_id"])

    out = io.StringIO()
    code, error = 0, None
    if spec["argv"]:
        argv = [spec["file"] if a == "{file}" else a for a in spec["argv"]]

        def call():
            return modules["cli"].main(argv)
    elif spec["call"] == "translation_length_upper":
        m = tuple(tuple(row) for row in spec["matrix"])
        lat = modules["lattice"]

        def call():
            return lat.translation_length_upper(
                m, lat.elementary_generators(3), 3, 4)
    else:
        g = np.array(spec["matrix"], dtype=float)

        def call():
            return modules["matgeo"].renormalized_cartan_average(g, 12)

    at_start = sampler.mark() if sampler else (0, 0.0)
    cpu0 = time.process_time()
    t0 = time.monotonic()
    try:
        with contextlib.redirect_stdout(out):
            result = call()
    except SystemExit as exc:
        t1 = time.monotonic()
        code = (0 if exc.code is None
                else exc.code if isinstance(exc.code, int) else 1)
    except Exception as exc:  # the op's failure is the measurement
        t1 = time.monotonic()
        code, error = 1, f"{type(exc).__name__}: {exc}"
    else:
        t1 = time.monotonic()
        if spec["argv"]:
            code = result
        elif spec["call"] == "translation_length_upper":
            out.write(f"{result}\n")
        else:
            out.write(_render_vector(result))
    cpu = time.process_time() - cpu0
    at_end = sampler.mark() if sampler else (0, 0.0)
    if sampler is not None:
        sampler.stop()
    ticks_s = at_end[1] - at_start[1]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if recorder is not None:
        recorder.save(spec["spans"])
    sys.stdout.write(json.dumps({
        "setup_s": ready - spec["t_spawn"] - at_ready[1],
        "op_s": t1 - t0 - ticks_s, "cpu_s": cpu - ticks_s,
        "probes_setup": sampler.probes[:at_ready[0]] if sampler else [],
        "probes_op": (sampler.probes[at_start[0]:at_end[0]]
                      if sampler else []),
        "rss_mb": rss_kb / 1024.0, "code": code, "error": error,
        "report": out.getvalue(),
        "mpmath_lazy": not mpmath_at_setup and "mpmath" in sys.modules,
    }) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
