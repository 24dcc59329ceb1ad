"""Run one esdlab CLI invocation, as ``python -m esdlab`` would.

    python3 child.py STAMP_FILE TRACE_FILE|- CLI_ARG...

Writes the CLOCK_MONOTONIC reading taken right after ``esdlab.cli`` is
imported to STAMP_FILE, so the parent can split set-up from the rest. With a
TRACE_FILE, the run is traced (see spans.py) and the span totals are written
there as JSON; the patched functions are restored before exit.
"""

import json
import os
import sys
import time


def main() -> int:
    stamp_file, trace_file, *argv = sys.argv[1:]
    import esdlab.cli

    stamp = time.monotonic()
    src = os.path.realpath(os.environ["PERFBENCH_SRC"])
    if not os.path.realpath(esdlab.cli.__file__).startswith(src + os.sep):
        print(f"esdlab was imported from {esdlab.cli.__file__}, not {src}", file=sys.stderr)
        return 97
    with open(stamp_file, "w", encoding="utf-8") as fh:
        fh.write(repr(stamp))
    if trace_file == "-":
        return esdlab.cli.main(argv)

    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = esdlab.cli.main(argv)
    finally:
        tracer.close()
    with open(trace_file, "w", encoding="utf-8") as fh:
        json.dump(tracer.report(), fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
