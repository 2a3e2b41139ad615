"""Run the landsel command with the benchmark's trace wrappers installed.

Usage: python bench/cli_launcher.py SPANS_JSON <landsel arguments...>

Behaves like ``python -m landsel <arguments>`` (same exit code, same
outputs) and, on exit, writes its spans and counters to SPANS_JSON, with the
time of ``import landsel.cli`` counted under ``cli.import_s``.
"""

import time

_t = time.perf_counter()
import landsel.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t

import json  # noqa: E402
import sys  # noqa: E402

import tracing  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.counts["cli.import_s"] += IMPORT_S
    tracer.install()
    try:
        code = landsel.cli.main(argv)
    except SystemExit as e:  # argparse refusals exit from inside main
        code = e.code if isinstance(e.code, int) else 1
        tracing.observe_exit(tracer.counts, code)
    finally:
        tracer.uninstall()
        with open(spans_path, "w") as fh:
            json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
