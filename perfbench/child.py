"""One benchmark request: a fresh interpreter running one archlab command.

    child.py [--trace FILE --command-id N] ARGV...

ARGV is an archlab CLI command line, ``custom-dist ...`` for the
benchmark's API script, or ``--env`` to print the environment stamp.  Once
``archlab.cli`` is imported the child writes ``@import_done <monotonic
clock>`` to stderr; the parent subtracts its spawn time to get the set-up
time.  When the command ends it writes ``@peak_rss_kb <VmHWM>``: the peak
resident set of this process image only (the wait4 maxrss would also count
the parent's peak, which exec inherits).  With ``--trace`` the archlab
functions are wrapped before the command runs and the spans are written
to FILE when it ends.
"""

import sys
import time


def main(argv: list[str]) -> int:
    trace_path = None
    command_id = 0
    if argv[:1] == ["--trace"]:
        trace_path, command_id, argv = argv[1], int(argv[3]), argv[4:]

    import archlab.cli

    sys.stderr.write(f"@import_done {time.monotonic()!r}\n")
    sys.stderr.flush()

    if argv == ["--env"]:
        return _print_env()

    tracer = None
    if trace_path is not None:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    try:
        if argv[:1] == ["custom-dist"]:
            import custom_dist
            return custom_dist.main(argv[1:])
        return archlab.cli.main(argv)
    finally:
        _report_peak_rss()
        if tracer is not None:
            tracer.dump(trace_path, command_id)


def _report_peak_rss() -> None:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                sys.stderr.write(f"@peak_rss_kb {line.split()[1]}\n")


def _print_env() -> int:
    import json
    import platform

    import archlab
    import numpy
    import scipy

    print(json.dumps({
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel_backend": getattr(archlab, "KERNEL_BACKEND", None),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
