"""One timed ``hwvqe`` invocation in a fresh process (started by run.py).

Usage: child.py SRC RECORD TRACE -- <hwvqe arguments>

Imports ``hwvqe.cli`` from SRC and loads the config, then runs the command
through ``cli.main``. RECORD receives a JSON object with the clock readings
at the end of set-up and at the end of the command (``time.perf_counter``,
which is system-wide, so the parent can subtract its spawn time), the exit
code, peak RSS, and with TRACE=1 the per-layer spans' summary.
"""

import json
import resource
import sys
import time


def main() -> int:
    src, record, trace = sys.argv[1:4]
    argv = sys.argv[5:]
    sys.path.insert(0, src)
    from hwvqe import cli

    cli.load_config(argv[argv.index("--config") + 1])
    setup_done = time.perf_counter()
    command = cli.main
    if trace == "1":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        command = tracer.wrap("cli", cli.main)
        setup_done = time.perf_counter()
    rc = command(argv)
    end = time.perf_counter()
    doc = {
        "setup_done": setup_done,
        "end": end,
        "rc": rc,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if trace == "1":
        doc["layers"] = tracer.summary()
        doc["missing"] = tracer.missing
    with open(record, "w") as fh:
        json.dump(doc, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
