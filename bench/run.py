"""Benchmark of the `blocks`, `triblocks` and `cayley` commands.

    python3 bench/run.py --workload blocks --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Writes the seeded input files under
``bench/.work``, then runs the workload in one worker process
(``worker.py``), which also times set-up in fresh interpreters
(``probe.py``).  Prints every metric by name and unit, raw wall times for
reference, and as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` gives the
end-to-end metrics, ``--trace 1`` the per-layer ones.  See README.md for
what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

sys.path.insert(0, HERE)
import inputs  # noqa: E402
from spans import LAYER_METRICS  # noqa: E402

RUN_LIMIT_S = 170      # the worker is killed by then


def run_worker(manifest, seconds, trace, spans_path):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PLANAR_BLOCKS_LIMIT", None)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--src", SRC,
           "--manifest", manifest, "--seconds", str(seconds),
           "--trace", str(trace)]
    if spans_path:
        cmd += ["--spans", spans_path]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=env,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_LIMIT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError("worker exited with %d" % proc.returncode)
    return json.loads(out.strip().splitlines()[-1])


def _unit(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "planarblocks", "cli.py")):
        sys.stderr.write("no planarblocks sources under %s\n" % SRC)
        return 2

    label = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    inputs_dir = os.path.join(WORK, "%s-%d" % (label, os.getpid()))
    spans_path = (os.path.join(WORK, "spans-%s.jsonl" % label)
                  if args.trace else None)
    try:
        manifest = inputs.write_corpus(args.workload, args.seed, inputs_dir)
        result = run_worker(manifest, args.seconds, args.trace, spans_path)
    finally:
        shutil.rmtree(inputs_dir, ignore_errors=True)

    print("workload %s, seed %d, %d rounds, %d operations, %d failed"
          % (args.workload, args.seed, result["rounds"], result["attempted"],
             result["failed"]))
    for name, problems in sorted(result["wrong"].items()):
        print("WRONG %s: %s" % (name, "; ".join(problems)))
    if args.trace:
        values = dict(result["layers"])
        for name in LAYER_METRICS:
            if name.endswith("_ms"):
                values[name] *= 1e3
        values["cli.import_s"] = result["import_s"]
        values["cli.modules_loaded"] = result["modules_loaded"]
        values["trace.overhead_small_ms"] = result["overhead_small_ms"]
        values["trace.overhead_large_s"] = result["overhead_large_s"]
        values["trace.spans"] = result["spans_per_round"]
        units = {name: _unit(name) for name in values}
        print("spans written to %s" % os.path.relpath(spans_path, ROOT))
    else:
        units = {"setup_s": "s", "small_ms": "ms", "large_s": "s",
                 "peak_rss_mb": "MB"}
        values = {name: result[name] for name in units}
        print("raw (not normalised): set-up %.4f s, small pass %.3f ms, "
              "large pass %.4f s" % (result["setup_raw_s"],
                                     result["small_raw_ms"],
                                     result["large_raw_s"]))
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in sorted(values)}
    for name, m in metrics.items():
        print("%-28s %14.6f %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": not result["wrong"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
