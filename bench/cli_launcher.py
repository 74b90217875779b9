"""Run one `graphqcka` CLI command with tracing, like `python -m graphqcka.cli`.

    python bench/cli_launcher.py SPANS_JSON -- extract --config run.json

Times the import of `graphqcka.cli`, installs the tracer, calls
`graphqcka.cli.main(argv)` as one op and writes the import time, spans and
counts to SPANS_JSON.  The exit code is the command's.
"""

import json
import sys
import time

_T0 = time.perf_counter()

import graphqcka.cli  # noqa: E402

_IMPORT_S = time.perf_counter() - _T0

from tracer import Tracer, install  # noqa: E402


def main(argv):
    spans_path, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: cli_launcher.py SPANS_JSON -- COMMAND ARGS...")
    tracer = Tracer()
    install(tracer)
    tracer.op = 0
    try:
        code = graphqcka.cli.main(cli_argv)
    finally:
        tracer.op = None
        with open(spans_path, "w") as fh:
            json.dump({"import_s": _IMPORT_S, "spans": tracer.spans,
                       "counts": dict(tracer.counts)}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
