"""Runs one lotkafit command line in a fresh process and records what it cost.

A user starts a fresh interpreter for every command, and pays first-use
costs every time: at 1e6 authors the first compare in a process spends
over a third of its time in page faults that later calls in the same
process skip. So run.py starts this script once per command. Its stdout
and stderr are the command's own; the measurements go as JSON to the
--result file: exit code, seconds spent in ``lotkafit.cli.run``, CPU
seconds, peak resident set, and with --trace 1 the span and counter
summary of tracer.py.

Usage: child.py --result FILE --trace 0|1 -- ARGV...
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import lotkafit.cli

import tracer


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    recorder = tracer.Recorder() if args.trace else None
    if recorder is not None:
        recorder.install()
    error = None
    cpu = time.process_time()
    start = time.perf_counter()
    try:
        code = lotkafit.cli.run(argv)
    except Exception:
        code = 1
        error = traceback.format_exc(limit=6)
    seconds = time.perf_counter() - start
    cpu = time.process_time() - cpu
    sys.stdout.flush()
    result = {
        "code": code,
        "traceback": error,
        "seconds": seconds,
        "cpu_s": cpu,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "module": lotkafit.cli.__file__,
    }
    if recorder is not None:
        recorder.uninstall()
        result["trace"] = recorder.report()
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
