"""Run one phasequant CLI invocation with the tracer installed.

    python3 bench/cli_child.py TRACE_FILE <subcommand> [flags...]

Times the import of `phasequant.cli`, wraps every public function, calls
`phasequant.cli.main` with the remaining arguments, writes the spans and
aggregates to TRACE_FILE and exits with main's return code.
"""

import sys
import time


def main() -> int:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import phasequant.cli
    import_s = time.perf_counter() - start

    import tracer

    spans = tracer.Tracer()
    spans.install()
    code = spans.root(f"bench.{argv[0]}", lambda: phasequant.cli.main(argv))
    spans.uninstall()
    spans.dump(trace_file, {"import_s": import_s, "argv": argv})
    return code


if __name__ == "__main__":
    sys.exit(main())
