"""Benchmark of knotslopes: three workloads, end-to-end and per-layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each sample runs in a fresh interpreter (sample.py), because every layer
keeps module caches (the bracket memo, the pretzel seeds, the bundled
tables, cyclotomic polynomials, powers of the loop value): in one
process a second sample would mostly be cache lookups.  Samples run one
after another (a closed loop with one client) until S seconds have
passed, and every sample must produce the same verdicts.  Between
samples the run times a fixed reference computation (reference.py) and
reports every end-to-end time scaled to the reference speed, because
this host's speed drifts by up to a factor of two over minutes.

With --trace 0 the last line of output is a JSON object with the
end-to-end metrics of BENCHMARK.json, each the median over the samples.
With --trace 1 the run alternates untraced and traced samples and
reports the per-layer metrics instead, each layer's self time as the
median over the traced samples; every counter must repeat exactly in
every traced sample.  Spans, per-sample figures and the host are written
to .perfbench/ in the checkout.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

import reference
from workloads import NAMES

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PLAIN = 3
MIN_TRACED = 2
SETUPS_PER_SAMPLE = 3
DEADLINE_S = 170.0      # a run must end within 180 s


class SampleError(RuntimeError):
    pass


def spawn(workload, seed, traced, timeout):
    """Run one sample in a fresh interpreter and return its JSON."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    # a fixed hash seed makes two samples of one seed iterate sets alike
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, "-S", os.path.join(HERE, "sample.py"), workload,
           str(seed), "1" if traced else "0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise SampleError("%s sample did not finish within %.0f s"
                          % (workload, timeout))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SampleError("%s sample exited with %d:\n%s"
                          % (workload, proc.returncode, proc.stderr[-2000:]))
    return json.loads(lines[-1])


def collect(args, start):
    """Samples until --seconds have passed and the minimum counts are
    met; with tracing, untraced and traced samples alternate.  After
    each sample come SETUPS_PER_SAMPLE set-up-only interpreters, so the
    set-up median rests on many starts spread over the whole run.  The
    reference is timed before the first sample and after each group;
    a group's ``reference_s`` is the geometric mean of the two timings
    around it.  ``setups`` holds (set-up time, reference_s) pairs."""
    plan = (False, True) if args.trace else (False,)
    plain, traced, setups, durations = [], [], [], []
    ref = reference.measure()
    i = 0
    while True:
        is_traced = plan[i % len(plan)]
        i += 1
        before = time.monotonic()
        doc = spawn(args.workload, args.seed, is_traced,
                    DEADLINE_S - (before - start))
        group = [] if is_traced else [doc["setup_s"]]
        for _ in range(SETUPS_PER_SAMPLE):
            group.append(spawn("setup", args.seed, False,
                               DEADLINE_S - (time.monotonic() - start))
                         ["setup_s"])
        ref_after = reference.measure()
        doc["reference_s"] = math.sqrt(ref * ref_after)
        ref = ref_after
        (traced if is_traced else plain).append(doc)
        setups.extend((s, doc["reference_s"]) for s in group)
        now = time.monotonic()
        durations.append(now - before)
        enough = (len(plain) >= MIN_PLAIN
                  and (not args.trace or len(traced) >= MIN_TRACED))
        # start another sample only if it ends nearer --seconds than
        # stopping now does, so a run lasts about --seconds on average
        typical = statistics.median(durations)
        if enough and now - start + typical / 2 >= args.seconds:
            return plain, traced, setups
        if now - start + 1.5 * typical > DEADLINE_S:
            if enough:
                return plain, traced, setups
            raise SampleError("too slow: %d untraced and %d traced samples "
                              "in %.0f s" % (len(plain), len(traced),
                                             now - start))


def consistency(samples, traced, counters):
    """Problems that make the run incorrect: samples of one seed that
    disagree, counters that do not repeat, and wrong answers or failures
    other than the documented fitter defect."""
    problems = []
    first = samples[0]
    for doc in samples[1:]:
        if doc["verdicts"] != first["verdicts"]:
            problems.append("samples of one seed gave different verdicts")
            break
    for name in counters:
        values = [doc["layers"][name] for doc in traced
                  if name in doc["layers"]]
        if len(set(values)) > 1:
            problems.append("counter %s differs between samples: %s"
                            % (name, values))
    unexpected = first["failed"] + first["wrong"] - first["known_defect"]
    if unexpected:
        problems.append("%d operations failed or gave an unexpected wrong "
                        "answer" % unexpected)
    return problems


def scaled(seconds, reference_s):
    """A time measured next to a reference time of ``reference_s``, as
    it would read at the reference speed."""
    return seconds * reference.REFERENCE_S / reference_s


def per_layer(plain, traced, setups, spec):
    """Per-layer metric values from the traced and untraced samples.
    Times are as measured, not scaled; ``run.reference_s`` gives the
    reference time they were measured at."""
    first = traced[0]
    run_wall = statistics.median(d["wall_s"] for d in plain)
    trace_wall = statistics.median(d["wall_s"] for d in traced)
    derived = {
        "wrong_answers": first["wrong"],
        "known_defect": first["known_defect"],
        "ops": first["ops"],
        "ops_failed": first["failed"],
        "run.wall_s": run_wall,
        "run.cpu_s": statistics.median(d["cpu_s"] for d in plain),
        "run.setup_s": statistics.median(s for s, _ in setups),
        "run.reference_s": statistics.median(d["reference_s"]
                                             for d in plain + traced),
        "trace.wall_s": trace_wall,
        "trace.cpu_s": statistics.median(d["cpu_s"] for d in traced),
        "trace.overhead_s": trace_wall - run_wall,
    }
    metrics = {}
    for m in spec:
        name = m["name"]
        if name in derived:
            value = derived[name]
        elif name in first["absent"]:
            metrics[name] = {"value": None, "unit": m["unit"],
                             "absent": first["absent"][name]}
            continue
        elif name.endswith("_s"):
            value = statistics.median(d["layers"][name] for d in traced)
        else:
            value = first["layers"][name]
        metrics[name] = {"value": value, "unit": m["unit"]}
    return metrics


def end_to_end(plain, setups, spec):
    """Medians over the run; times scaled to the reference speed."""
    values = {
        "wall_s": [scaled(d["wall_s"], d["reference_s"]) for d in plain],
        "setup_s": [scaled(s, r) for s, r in setups],
        "peak_rss_mb": [d["peak_rss_mb"] for d in plain],
    }
    return {m["name"]: {"value": statistics.median(values[m["name"]]),
                        "unit": m["unit"]}
            for m in spec}


def host_info(root):
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "implementation": sys.implementation.name,
        "nproc": nproc,
        "cpu": cpu,
        "commit": git_head(root),
        "source_sha256": source_digest(os.path.join(root, "src")),
    }


def git_head(root):
    """The checked-out commit, read from .git without running git; None
    outside a git working tree."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src):
    """SHA-256 over the package sources, which names the code measured
    when the checkout is not a git repository."""
    paths = []
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        paths.extend(os.path.join(dirpath, name) for name in filenames)
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(os.path.relpath(path, src).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "knotslopes",
                                       "__init__.py")):
        print("error: %s has no src/knotslopes; run from the root of a "
              "knotslopes checkout" % root, file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        config = json.load(fh)

    start = time.monotonic()
    try:
        spawn("setup", args.seed, False, DEADLINE_S)   # warm the caches
        plain, traced, setups = collect(args, start)
    except SampleError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1

    samples = plain + traced
    first = samples[0]
    counters = [m["name"] for m in config["per_layer"]
                if m["unit"] == "count"]
    problems = consistency(samples, traced, counters)
    if args.trace:
        metrics = per_layer(plain, traced, setups, config["per_layer"])
    else:
        metrics = end_to_end(plain, setups, config["end_to_end"])
    host = host_info(root)

    out_dir = os.path.join(root, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    record = os.path.join(out_dir, "%s-seed%d-trace%d.json"
                          % (args.workload, args.seed, args.trace))
    with open(record, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "host": host,
                   "problems": problems, "metrics": metrics,
                   "reference_s_nominal": reference.REFERENCE_S,
                   "setups": setups,
                   "samples": [{k: v for k, v in d.items()
                                if k not in ("spans", "verdicts")}
                               for d in samples],
                   "spans": traced[0]["spans"] if traced else []}, fh)

    print("host: %s" % json.dumps(host))
    print("samples: %d untraced, %d traced; per sample: %d ops, %d failed, "
          "%d wrong (%d of them the known fitter defect)"
          % (len(plain), len(traced), first["ops"], first["failed"],
             first["wrong"], first["known_defect"]))
    print("measured: median wall %.3f s, set-up %.4f s, reference pass "
          "%.4f s (scaled to %.3f s)"
          % (statistics.median(d["wall_s"] for d in plain),
             statistics.median(s for s, _ in setups),
             statistics.median(d["reference_s"] for d in samples),
             reference.REFERENCE_S))
    for note in first["notes"][:5]:
        print("  %s" % note)
    for problem in problems:
        print("problem: %s" % problem)
    print("record: %s" % os.path.relpath(record, root))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(d["ops"] for d in samples),
        "failed": sum(d["failed"] for d in samples),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
