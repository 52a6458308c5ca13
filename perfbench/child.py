"""Run dburnside commands in this fresh process and record their timings.

    python3 child.py RECORD TRACE -- ARGV...
        Run one command.  RECORD is a JSON file written when the command
        returns: the monotonic time at which ``dburnside.cli`` finished
        importing, the time spent in ``main``, the numpy version, and with
        TRACE=1 the layer spans.  The command's stdout, stderr and exit
        code pass through unchanged.

    python3 child.py --verify PATH...
        Run ``dburnside verify PATH --format json`` for each certificate
        file and print one JSON line per file: its exit code and report.
"""

import contextlib
import io
import json
import sys
import time


def run_command(record_path: str, trace: str, argv) -> int:
    import dburnside.cli as cli
    ready = time.monotonic()
    tracer = None
    if trace == "1":
        import tracer as tracer_mod
        tracer = tracer_mod.install()
    t0 = time.monotonic()
    code = cli.main(argv)
    main_s = time.monotonic() - t0
    sys.stdout.flush()
    numpy = sys.modules.get("numpy")
    record = {"ready": ready, "main_s": main_s, "module": cli.__file__,
              "numpy": getattr(numpy, "__version__", None),
              "trace": tracer.report() if tracer is not None else None}
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return code


def verify_all(paths) -> int:
    import dburnside.cli as cli
    for path in paths:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["verify", path, "--format", "json"])
        try:
            report = json.loads(out.getvalue())
        except json.JSONDecodeError:
            report = None
        print(json.dumps({"path": path, "code": code, "report": report}))
    return 0


def main() -> int:
    args = sys.argv[1:]
    if args[:1] == ["--verify"]:
        return verify_all(args[1:])
    if len(args) < 3 or args[2] != "--":
        raise SystemExit(__doc__)
    return run_command(args[0], args[1], args[3:])


if __name__ == "__main__":
    sys.exit(main())
