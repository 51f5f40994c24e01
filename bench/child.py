"""One flawchain CLI command in a fresh interpreter, as a shell user runs it.

    python3 bench/child.py RECORD TRACE [flawchain arguments ...]

Imports `flawchain.cli`, calls `main(argv)` and writes a JSON record to
RECORD: monotonic timestamps (import done, main entered, main left),
the exit code, any exception, and the spans and counters of
`spans.Tracer`.  TRACE 1 spans every layer function; TRACE 0 only
counts the identity calls.  The parent takes its own timestamp before
spawning, on the same system-wide monotonic clock.
"""

import sys
import time

import flawchain.cli

T_IMPORT = time.monotonic()

import json  # noqa: E402  (after the import timestamp)
import traceback  # noqa: E402

from spans import Tracer  # noqa: E402


def main() -> int:
    record_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    tracer = Tracer()
    tracer.install(full=trace)
    error = None
    t0 = time.monotonic()
    try:
        rc = flawchain.cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
        error = f"SystemExit({exc.code!r})"
    except Exception:  # the benchmark counts it as a failed command
        rc = 1
        error = traceback.format_exc()
    t1 = time.monotonic()
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump({"t_import": T_IMPORT, "t_main0": t0, "t_main1": t1,
                   "rc": rc, "error": error, **tracer.record()}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
