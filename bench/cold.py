"""Child interpreter for cold-start measurements.

    python [-X importtime] bench/cold.py RECORD_PATH TRACE ARGV...

Imports ``linegeo.cli`` the way a fresh CLI call does, then, when ARGV
is given, runs ``linegeo.cli.main(ARGV)``; with TRACE=1 the call runs
under the tracer.  Timestamps (``time.monotonic``), the active backend,
the exit code and any spans go to RECORD_PATH as JSON, so the CLI keeps
stdout and stderr to itself.
"""

import sys
import time

T_START = time.monotonic()


def main():
    import linegeo.cli

    t_imported = time.monotonic()
    import json

    record_path, traced, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    record = {"t_start": T_START, "t_imported": t_imported, "backend": linegeo.BACKEND}
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    rc = linegeo.cli.main(argv) if argv else 0
    if tracer is not None:
        record.update(spans=tracer.spans, counters=tracer.counters)
    record["rc"] = rc
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
