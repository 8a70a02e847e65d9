"""Run one rankmetric CLI command for the census workload, metered and optionally traced.

    python3 bench/cli_child.py SPAWN_TIME REPORT_PATH TRACE_PATH CLI-ARGS...

The command runs through ``rankmetric.cli.run``, the function behind the
``rankmetric`` entry point, with the reference meter of ``refblock``
running from the start of this script to the end of the command.
SPAWN_TIME is the parent's time.perf_counter() just before it started
this process; both read the same monotonic clock. Timings go to
REPORT_PATH as JSON. TRACE_PATH is "-" for an untraced run, otherwise
the layer wrappers are installed after import and the spans are saved
there. The exit status is the command's.
"""

import json
import sys
import time

import refblock  # this script's directory is sys.path[0]

meter = refblock.Meter()
meter.start()

spawned = float(sys.argv[1])
report_path, trace_path = sys.argv[2], sys.argv[3]
cli_args = sys.argv[4:]

import rankmetric  # noqa: E402
import rankmetric.cli  # noqa: E402

imported = time.perf_counter()
tracer = None
if trace_path != "-":
    import tracing  # noqa: E402
    tracer = tracing.Tracer()
    tracing.install(tracer)
t0 = time.perf_counter()
status = rankmetric.cli.run(cli_args)
t1 = time.perf_counter()
op_s, units = meter.stop()
if tracer is not None:
    tracer.stop()
    tracer.save(trace_path)
with open(report_path, "w") as fh:
    json.dump({"start_s": imported - spawned, "run_s": t1 - t0, "op_s": op_s, "units": units,
               "spent": meter.spent, "median_block": meter.median_block(), "status": status}, fh)
sys.exit(status)
