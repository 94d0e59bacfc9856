"""One timed call of the ``w2gauss`` command in a fresh interpreter.

``run.py`` starts this file as ``python3 perfbench/child.py '<spec json>'``
with ``PYTHONPATH`` set to the checkout's ``src``.  It imports the package
the way the console script does, notes the monotonic clock (the parent
noted it just before starting the interpreter, which gives the set-up
time), checks that the package caches are cold, then times
``w2gauss.cli.main`` — parse, ``run_experiment``, ``write_outputs`` — and
prints one ``PERFBENCH_REPORT {...}`` line.  With ``"trace": true`` the
layer boundaries are wrapped first (see ``tracer.py``).
"""

import sys
import time


def main() -> int:
    import json

    spec = json.loads(sys.argv[1])
    stats_timer = None
    if spec["trace"]:
        from tracer import ImportTimer
        stats_timer = ImportTimer("scipy.stats")
        sys.meta_path.insert(0, stats_timer)

    import w2gauss.cli as cli

    setup_end = time.clock_gettime(time.CLOCK_MONOTONIC)

    import contextlib
    import os
    import resource
    import threading
    import warnings

    from w2gauss import limitlaw, wasserstein

    if not os.path.realpath(cli.__file__).startswith(spec["src"] + os.sep):
        print(f"w2gauss imported from {cli.__file__}, not {spec['src']}",
              file=sys.stderr)
        return 3
    fault = spec.get("fault")
    if fault == "warm":
        limitlaw._cholesky_factor(limitlaw.build_grid(16, 0.1), 0.5)
    elif fault == "raise":
        def broken(cfg):
            raise RuntimeError("injected failure")
        cli.run_experiment = broken
    cold = {"factor_cache": len(limitlaw._factor_cache),
            "tables_cache": wasserstein._boundary_tables.cache_info().currsize}

    tracer = None
    if spec["trace"]:
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)
    # the traced run records warnings to count jitter; the timed run leaves
    # them to the command, as a user's call would
    recording = warnings.catch_warnings(record=True) if tracer is not None \
        else contextlib.nullcontext([])
    with recording as caught:
        if tracer is not None:
            warnings.simplefilter("always")
        t0 = time.perf_counter()
        rc = cli.main(spec["argv"])
        wall = time.perf_counter() - t0

    report = {
        "setup_end": setup_end, "wall_s": wall, "rc": rc, "cold": cold,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        report["trace"] = tracer.summary(threading.main_thread().ident)
        report["scipy_stats_import_s"] = stats_timer.seconds
        report["jitter_warnings"] = sum("jitter" in str(w.message)
                                        for w in caught)
    print("PERFBENCH_REPORT " + json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
