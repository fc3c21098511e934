"""One benchmark sample, run by run.py in a fresh interpreter.

Usage: sample.py WORKLOAD SEED TRACE SPAWNED

SPAWNED is the parent's ``time.monotonic()`` just before it started
this interpreter.  The sample imports ``knotslopes`` from ``src/`` of
the current directory and loads the bundled knot and slope tables (the
set-up every CLI call pays), builds the workload's inputs from SEED,
times the calls, checks every result, and prints one JSON object.  With
TRACE 1 the layer entry points are wrapped first and the object also
carries per-layer metrics and spans.  WORKLOAD ``setup`` stops after
set-up.
"""

import json
import os
import sys
import time


def main(argv):
    workload, seed, traced, spawned = (argv[0], int(argv[1]),
                                       argv[2] == "1", float(argv[3]))
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    tracer = None
    if traced:
        from tracer import Tracer
        tracer = Tracer()

    import knotslopes
    import knotslopes.cli
    if not os.path.abspath(knotslopes.__file__).startswith(src + os.sep):
        raise SystemExit("knotslopes was imported from %s, not from %s"
                         % (knotslopes.__file__, src))
    if tracer is not None:
        tracer.install(knotslopes)
    knotslopes.knots.bundled_knot_table()
    knotslopes.knots.bundled_slope_db()
    ready = time.monotonic()
    doc = {"setup_s": ready - spawned}
    if workload != "setup":
        doc.update(_run(workload, seed, knotslopes, tracer))
    print(json.dumps(doc))


def _run(workload, seed, ks, tracer):
    import random
    import resource

    import workloads

    ops = workloads.build(workload, random.Random(seed), ks)
    outcomes = []
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    for op in ops:
        try:
            outcomes.append((op.call(), None))
        except Exception as exc:   # recorded and reported as a failed op
            outcomes.append((None, exc))
    t1 = time.perf_counter()
    cpu1 = time.process_time()

    verdicts = []
    for op, (value, error) in zip(ops, outcomes):
        verdicts.extend(op.check(value, error))
    kinds = [v for v, _ in verdicts]
    doc = {
        "wall_s": t1 - t0,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": len(verdicts),
        "failed": kinds.count("failed"),
        "wrong": kinds.count("wrong") + kinds.count("known-defect"),
        "known_defect": kinds.count("known-defect"),
        "verdicts": kinds,
        "notes": [note for _, note in verdicts if note],
    }
    if tracer is not None:
        doc["layers"] = tracer.summary()
        doc["absent"] = tracer.absent
        doc["spans"] = [(sid, name, start - t0, end - t0, parent)
                        for sid, name, start, end, parent in tracer.spans]
    return doc


if __name__ == "__main__":
    main(sys.argv[1:])
