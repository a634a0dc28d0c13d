"""Set-up probe: one fresh interpreter from start to ready.

Usage: python3 bench/probe.py DIR

Imports stratkit, loads the workload's signatures and programs (or
query programs) listed in DIR/manifest.json, compiles the strategy
programs, and prints one JSON object of perf_counter stamps. On Linux
perf_counter is CLOCK_MONOTONIC, shared with the parent process, so
the parent can time this process from its own start to `ready`.
"""

import json
import os
import sys
import time

perf = time.perf_counter


def main(d):
    t0 = perf()
    import stratkit  # noqa: F401  (the import is what is timed)
    from stratkit.dsl import parse_program, parse_query_program
    from stratkit.files import load_signature
    from stratkit.interp import CompiledStrategy

    t_import = perf()
    with open(os.path.join(d, "manifest.json"), encoding="utf-8") as fh:
        programs = json.load(fh)["programs"]
    times = {"parse_signature": 0.0, "parse_program": 0.0, "parse_query_program": 0.0, "compile": 0.0}
    sigs = {}
    for sig_file, prog_file in programs:
        a = perf()
        if sig_file not in sigs:
            sigs[sig_file] = load_signature(os.path.join(d, sig_file))
        b = perf()
        with open(os.path.join(d, prog_file), encoding="utf-8") as fh:
            text = fh.read()
        if prog_file.endswith(".query"):
            parse_query_program(text, sigs[sig_file], origin=prog_file)
            c = d_ = perf()
            times["parse_query_program"] += c - b
        else:
            prog = parse_program(text, sigs[sig_file], origin=prog_file)
            c = perf()
            CompiledStrategy(prog.main, prog.signature)
            d_ = perf()
            times["parse_program"] += c - b
            times["compile"] += d_ - c
        times["parse_signature"] += b - a
    ready = perf()
    print(json.dumps({"start": t0, "import": t_import - t0, **times, "ready": ready,
                      "module": stratkit.__file__}))


if __name__ == "__main__":
    main(sys.argv[1])
