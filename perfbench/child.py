"""One benchmark sample: run the kinlat CLI in this process, then record it.

Usage::

    python3 child.py RECORD TRACE SRC COMMAND --config PATH [kinlat flags...]

``SRC`` is the source tree to import ``kinlat`` from, so the code measured is
the checkout's.  ``RECORD`` receives a JSON object with the monotonic time at
which the CLI handed the parsed, validated config to the harness (the end of
set-up) and, when ``TRACE`` is ``1``, the layer spans of :mod:`tracing`.  The
exit code is the CLI's.

Only the standard library is imported before kinlat, so the set-up time seen
here is what the ``kinlat`` console script costs.
"""

import json
import sys
import time


def main() -> int:
    record_path, trace, src, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3], sys.argv[4:]
    sys.path.insert(0, src)
    from kinlat import cli

    tracer = None
    if trace:
        import tracing

        tracer = tracing.install()

    record = {"setup_end_ns": None}
    harness_run = cli.run

    def marked_run(*args, **kwargs):
        if record["setup_end_ns"] is None:
            record["setup_end_ns"] = time.monotonic_ns()
        return harness_run(*args, **kwargs)

    cli.run = marked_run
    try:
        return cli.main(argv)
    finally:
        if tracer is not None:
            record.update(tracer.dump())
        with open(record_path, "w") as fh:
            json.dump(record, fh, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main())
