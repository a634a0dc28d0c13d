"""stratkit benchmark: one workload, one seed, one JSON result.

Usage (from the root of a source checkout):

    python3 bench/run.py --workload rewrite|query|check --seed N \\
        --seconds S --trace 0|1

Generates the workload's inputs from the seed under bench/out/, then
runs, one process at a time:

  1. set-up probes: fresh interpreters that import stratkit and load and
     compile the workload's programs (setup_s);
  2. the real CLI, `python3 -m stratkit run|query|lint`, on the
     workload's own files, after one untimed warm-up (cli_s);
  3. the worker, which runs whole passes over the workload's operations
     for S seconds and checks every output (wall_s, peak_rss_mb).

Times are in reference seconds (see meter.py and README.md). The last
line of stdout is the result; with --trace 0 it holds the end-to-end
metrics, with --trace 1 the per-layer ones from a traced run. The line
before it gives the Python version, the CPU count and per-run details.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time

import gen
from meter import REF_NOMINAL_S, Meter, median

SETUP_PROBES = 15
CLI_RUNS = 15
SPAWN_TIMEOUT = 60

# Metric names and units, as BENCHMARK.json at the root of the checkout
# lists them.
with open(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "BENCHMARK.json"), encoding="utf-8") as _fh:
    _SPEC = json.load(_fh)
END_TO_END = {x["name"]: x["unit"] for x in _SPEC["end_to_end"]}
# Per-layer metrics of the traced run. A workload that never calls a
# layer reports 0 for it.
PER_LAYER = {x["name"]: x["unit"] for x in _SPEC["per_layer"]}
# Per-layer metrics that are the worker's per-workload figures, and
# those that the set-up probes time (metric: probe stamp).
WORKLOAD_LAYERS = ("nodes_per_s", "deep_s", "lint_s", "steps_per_s", "law_cases_per_s")
PROBE_LAYERS = {"import.s": "import", "files.parse_signature.s": "parse_signature",
                "dsl.parse_program.s": "parse_program",
                "dsl.parse_query_program.s": "parse_query_program"}


def spawn(meter, cmd, env, cwd=None):
    """Run cmd to completion while the meter samples this process, which
    shares the child's CPU. Returns the completed process, its start on
    perf_counter, the share of its wall time the child had (the rest
    went to samples), its time on the meter's clock, and the mean
    reference sample taken meanwhile (None if too few)."""
    meter.active = True
    a = meter.now()
    p0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=cwd,
                              timeout=SPAWN_TIMEOUT)
    finally:
        p1 = time.perf_counter()
        b = meter.now()
        meter.active = False
    speed, n = meter.speed([(a, b)])
    return proc, p0, (b - a) / (p1 - p0), b - a, (speed if n >= 3 else None)


def cli_ok(cli, code, out):
    """The CLI exits and prints what the generator expects."""
    return code == cli["exit"] and out == cli["expected"]


def scaled(raw, speed, fallback):
    return raw * REF_NOMINAL_S / (speed or fallback)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("rewrite", "query", "check"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "stratkit", "__init__.py")):
        print(f"bench: no stratkit source under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    # Every process of the run shares one CPU, so that the samples this
    # process takes while a child runs measure the child's CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    outdir = os.path.join(here, "out", f"{args.workload}-{args.seed}-{args.trace}")
    shutil.rmtree(outdir, ignore_errors=True)
    m = gen.generate(args.workload, args.seed, outdir)
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    py = sys.executable
    failures = []

    meter = Meter()
    try:
        # 1. set-up probes, after one untimed warm-up
        probes = []
        for i in range(SETUP_PROBES + 1):
            proc, p0, share, _, speed = spawn(meter, [py, os.path.join(here, "probe.py"), outdir], env)
            try:
                stamps = json.loads(proc.stdout.strip().splitlines()[-1])
            except (ValueError, IndexError):
                stamps = None
            ok = (proc.returncode == 0 and stamps is not None
                  and os.path.abspath(stamps["module"]).startswith(src + os.sep))
            if not ok:
                failures.append(f"set-up probe: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                if proc.returncode != 0 or stamps is None:
                    print(proc.stderr, file=sys.stderr)
                    return 1
            if i:
                probes.append((stamps, (stamps["ready"] - p0) * share, speed))
        # 2. the CLI, after one untimed warm-up
        cli = m["cli"]
        cli_runs = []
        cli_outputs = []
        for i in range(CLI_RUNS + 1):
            proc, _, _, wall, speed = spawn(meter, [py, "-m", "stratkit", *cli["args"]], env, cwd=outdir)
            if i:
                cli_runs.append((wall, speed))
                cli_outputs.append((proc.returncode, proc.stdout, proc.stderr))
        fallback = meter.mean_sample()
    finally:
        meter.close()

    # 3. the worker
    proc = subprocess.run(
        [py, os.path.join(here, "worker.py"), outdir, "--seconds", str(args.seconds),
         "--trace", str(args.trace)],
        capture_output=True, text=True, env=env, timeout=args.seconds + 90)
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        return 1
    w = json.loads(proc.stdout.strip().splitlines()[-1])

    for code, out, err in cli_outputs:
        if not cli_ok(cli, code, out):
            failures.append(f"cli: exit {code}, stdout {out[:80]!r}, stderr {err.strip()[-200:]!r}")

    setup_s = median([scaled(raw, sp, fallback) for _, raw, sp in probes])
    cli_s = median([scaled(raw, sp, fallback) for raw, sp in cli_runs])
    attempted = w["attempted"] + SETUP_PROBES + CLI_RUNS
    failed = w["failed"] + len(failures)
    if args.trace:
        layers = dict(w["layers"])
        for key in WORKLOAD_LAYERS:
            layers[key] = w["end_to_end"].get(key, 0.0)
        for key, probe_key in PROBE_LAYERS.items():
            layers[key] = median([scaled(st[probe_key], sp, fallback) for st, _, sp in probes])
        layers["cli.overhead_s"] = cli_s - w["cli_inprocess_s"]
        layers["host.ref_s"] = w["ref_s"]
        metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        values = {"setup_s": setup_s, "wall_s": w["end_to_end"]["wall_s"], "cli_s": cli_s,
                  "peak_rss_mb": w["peak_rss_mb"]}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}

    detail = {
        "python": platform.python_version(), "cpus": os.cpu_count(), "workload": args.workload,
        "seed": args.seed, "trace": args.trace, "passes": w["passes"], "attempted": attempted,
        "failed": failed, "errors": (w["errors"] + failures)[:5], "ref_s": w["ref_s"],
        "workload_metrics": w["end_to_end"],
    }
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
