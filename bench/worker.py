"""One workload in one single-threaded process.

Runs ``planarblocks.cli.run([...])`` in-process on the generated input
files: first one checked pass over both tiers (untimed; every output goes
through the independent checks in ``checks.py``), then whole rounds of
``SMALL_PASSES`` small-tier passes and one large-tier pass until the
requested seconds are used.  Later outputs must be byte-identical to the
checked ones.  With ``--trace 1`` every round is run twice, untraced and
traced, and the traced half feeds the per-layer metrics.  After each
round the worker waits for one set-up probe (``probe.py``): a fresh
interpreter that imports the package and runs the first small command.
Probes are bracketed and normalised like segments.

Speed normalisation: the sandbox's speed for a fixed pure-Python loop
swings by up to 1.8x within seconds, so every timed segment (one whole
small pass, or one large-tier operation) is bracketed by a reference
loop and its time is scaled by NOMINAL_LOOP_S / (mean of the two loop
times).  A large operation's brackets run the loop LARGE_LOOP_REPEATS
times each.  The loop creates no container objects, so garbage the program
left behind cannot trigger a collection inside it.  Normalised times
read as seconds on a machine where the loop takes exactly
NOMINAL_LOOP_S.

Prints one JSON object on its last line of standard output.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

import checks
import probe
from spans import TIME_METRICS, Tracer

SMALL_PASSES = 5           # small-tier passes per round
NOMINAL_LOOP_S = 0.015     # the reference loop's nominal time
LOOP_ITERATIONS = 12_000
LARGE_LOOP_REPEATS = 5     # reference loops per bracket of a large operation
PROBE_LOOP_REPEATS = 3     # reference loops per bracket of a set-up probe
MIN_PROBES = 9             # set-up probes per run, at least
PROBE_TIMEOUT_S = 60

_KEYS = tuple(range(1 << 16))
_TABLE = {i: (i * 7919) & 0xFFFF for i in range(1 << 16)}
_MARKS = frozenset(range(0, 1 << 17, 3))


def _step(x, k):
    return (x + k) & 0xFFFF


def reference_loop():
    """Seconds taken by the fixed reference loop.

    Table lookups, a call and a short string per step: the strings keep
    the allocator busy the way the program does, and strings are not
    containers, so they cannot start a garbage collection.
    """
    start = time.perf_counter()
    x = 0
    keys, table, marks, step = _KEYS, _TABLE, _MARKS, _step
    for i in range(LOOP_ITERATIONS):
        k = table[keys[(x * 33 + i) & 0xFFFF]]
        s = "%d:%d" % (k, i)
        x = step(x, k + (k in marks) + len(s) + (hash(s) & 7))
    return time.perf_counter() - start


def _loop_time(repeats):
    return sum(reference_loop() for _ in range(repeats)) / repeats


class Segment:
    """Times one bracketed segment: raw seconds and the scale factor.

    Each bracket runs the reference loop `repeats` times and takes the
    mean.  One loop is enough next to a segment of tens of milliseconds;
    next to a segment of a second, one loop is hit by bursts the segment
    averages out.  On the 5-page book (1.4 s) one loop per bracket
    spread the normalised times wider than the raw ones (quartile
    distance 26 % against 17 % of the median), ten loops narrowed it to
    10 %.
    """

    def __init__(self, repeats=1):
        self.repeats = repeats

    def __enter__(self):
        gc.collect()
        self.before = _loop_time(self.repeats)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.raw = time.perf_counter() - self.start
        after = _loop_time(self.repeats)
        self.scale = NOMINAL_LOOP_S / ((self.before + after) / 2)
        return False


class Workload:
    def __init__(self, manifest_path):
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        self.directory = os.path.dirname(manifest_path)
        self.name = manifest["workload"]
        self.ops = manifest["ops"]
        for op in self.ops:
            op["path"] = os.path.join(self.directory, op["file"])
            op["argv"] = [op["path"] if a == op["file"] else a
                          for a in op["argv"]]
        self.small = [op for op in self.ops if op["tier"] == "small"]
        self.large = [op for op in self.ops if op["tier"] == "large"]
        self.expected = {}     # op name -> checked (exit code, output)
        self.attempted = 0
        self.failed = 0
        self.wrong = {}        # op name -> problems with its output

    # -------------------------------------------------------------- running

    @staticmethod
    def call(argv):
        # looked up on every call, so that the tracer's wrapper is used
        from planarblocks import cli
        try:
            return cli.run(argv)
        except Exception as exc:  # a traceback is a failed operation
            return None, "%s: %s" % (type(exc).__name__, exc)

    def check_first(self, op, code, text):
        """Independent checks on the first output of an operation.  A
        failed operation is not checked; the timed rounds count it."""
        if code not in (0, 1):
            return []
        out = json.loads(text)
        if self.name == "cayley":
            walks = None
            if code == 0 and out["planar"]:
                walks = self.facial_walks(op, out["graph"])
            return checks.check_cayley(code, out, op["expect"], walks)
        with open(op["path"], encoding="utf-8") as fh:
            graph = checks.parse_edge_list(fh.read())
        check = (checks.check_blocks if self.name == "blocks"
                 else checks.check_triblocks)
        return check(graph, code, out, op["expect"])

    def facial_walks(self, op, graph):
        """Facial walks of a Cayley graph from the `faces` command; the
        checks verify them as an embedding on their own."""
        target = os.path.join(self.directory, op["name"] + ".cayley.edges")
        with open(target, "w", encoding="utf-8") as fh:
            fh.write("vertices: %d\n" % len(graph["vertices"]))
            fh.writelines("%d %d\n" % tuple(e) for e in graph["edges"])
        code, text = self.call(["faces", target, "--format", "json"])
        return json.loads(text)["walks"] if code == 0 else None

    def checked_pass(self):
        for op in self.ops:
            code, text = self.call(op["argv"])
            problems = self.check_first(op, code, text)
            if problems:
                self.wrong[op["name"]] = problems
            self.expected[op["name"]] = (code, text)

    def settle(self, op, result):
        """Count one timed operation against its checked output."""
        self.attempted += 1
        code, text = result
        want_code, want_text = self.expected[op["name"]]
        if code not in (0, 1) or want_code not in (0, 1):
            self.failed += 1
        elif (code, text) != (want_code, want_text):
            self.wrong[op["name"]] = ["output differs between passes"]

    def small_pass(self, tracer=None):
        """One bracketed segment over the whole small tier."""
        results = []
        with Segment() as seg:
            for i, op in enumerate(self.small):
                if tracer is not None:
                    tracer.op = i
                results.append(self.call(op["argv"]))
        for op, result in zip(self.small, results):
            self.settle(op, result)
        return seg

    def large_pass(self, tracer=None, layers=None):
        """One bracketed segment per large-tier operation; returns the raw
        and the normalised seconds of each operation."""
        raw, norm = [], []
        for i, op in enumerate(self.large):
            if tracer is not None:
                tracer.op = len(self.small) + i
            with Segment(LARGE_LOOP_REPEATS) as seg:
                result = self.call(op["argv"])
            self.settle(op, result)
            raw.append(seg.raw)
            norm.append(seg.raw * seg.scale)
            if tracer is not None:
                _add_scaled(layers, tracer.take_totals(), seg.scale)
        return raw, norm


def _add_scaled(into, totals, scale, share=1.0):
    """Add layer totals, times normalised by `scale`, all times `share`."""
    for metric, value in totals.items():
        if metric in TIME_METRICS:
            value *= scale
        into[metric] = into.get(metric, 0.0) + value * share


def _median(values):
    return statistics.median(values) if values else 0.0


def pass_time(passes):
    """Time of one large-tier pass from the per-operation times of many:
    each operation at its median.  A run holds few large passes, and one
    slow spell in one operation moves the median of the pass sums more
    than the sum of the operations' medians (quartile distance 8.2 %
    against 5.7 % of the median, over six-pass windows of triblocks)."""
    return sum(_median(list(times)) for times in zip(*passes))


def measure(work, seconds, src, tracer=None):
    """Whole rounds until `seconds` have passed, with one set-up probe
    after each round (and more at the end, up to MIN_PROBES), so that the
    probes sample the whole run; returns the samples."""
    samples = {"small": [], "large": [], "small_raw": [], "large_raw": [],
               "small_traced": [], "large_traced": [], "layers": [],
               "probes": []}
    first = work.small[0]["argv"]
    probe.spawn(src, first, PROBE_TIMEOUT_S)  # warms bytecode, file caches

    def timed_probe():
        """(normalised set-up seconds, raw ones, import seconds, modules)."""
        before = _loop_time(PROBE_LOOP_REPEATS)
        took, imported, modules = probe.spawn(src, first, PROBE_TIMEOUT_S)
        after = _loop_time(PROBE_LOOP_REPEATS)
        scale = NOMINAL_LOOP_S / ((before + after) / 2)
        return took * scale, took, imported, modules

    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        for _ in range(SMALL_PASSES):
            seg = work.small_pass()
            samples["small"].append(seg.raw * seg.scale)
            samples["small_raw"].append(seg.raw)
        raw, norm = work.large_pass()
        samples["large"].append(norm)
        samples["large_raw"].append(raw)
        if tracer is not None:
            traced_round(work, tracer, samples)
        samples["probes"].append(timed_probe())
    while len(samples["probes"]) < MIN_PROBES:
        samples["probes"].append(timed_probe())
    return samples


def traced_round(work, tracer, samples):
    """The same round again with the tracer installed."""
    tracer.install()
    try:
        layers = {}
        for _ in range(SMALL_PASSES):
            seg = work.small_pass(tracer)
            samples["small_traced"].append(seg.raw * seg.scale)
            _add_scaled(layers, tracer.take_totals(), seg.scale,
                        1.0 / SMALL_PASSES)
        _, norm = work.large_pass(tracer, layers)
        samples["large_traced"].append(norm)
        samples["layers"].append(layers)
    finally:
        tracer.uninstall()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True)
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    sys.path.insert(0, args.src)
    import planarblocks.cli  # noqa: F401  (import before timing)

    work = Workload(args.manifest)
    work.checked_pass()
    tracer = None
    if args.trace:
        tracer = Tracer()
    samples = measure(work, args.seconds, args.src, tracer)
    probes = samples["probes"]
    result = {
        "setup_s": _median([p[0] for p in probes]),
        "setup_raw_s": _median([p[1] for p in probes]),
        "import_s": _median([p[2] for p in probes]),
        "modules_loaded": _median([p[3] for p in probes]),
        "attempted": work.attempted,
        "failed": work.failed,
        "wrong": work.wrong,
        "rounds": len(samples["large"]),
        "small_ms": 1e3 * _median(samples["small"]),
        "large_s": pass_time(samples["large"]),
        "small_raw_ms": 1e3 * _median(samples["small_raw"]),
        "large_raw_s": pass_time(samples["large_raw"]),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        layers = {}
        for metric in samples["layers"][0]:
            layers[metric] = _median([r[metric] for r in samples["layers"]])
        result["layers"] = layers
        result["overhead_small_ms"] = 1e3 * (
            _median(samples["small_traced"]) - _median(samples["small"]))
        result["overhead_large_s"] = (pass_time(samples["large_traced"])
                                      - pass_time(samples["large"]))
        result["spans_per_round"] = len(tracer.spans) / len(samples["layers"])
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
