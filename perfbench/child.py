"""Child process: one CLI invocation of the program under test.

    python3 child.py TIMING_JSON TRACE_NPZ|- [kramers arguments...]

Records when ``kramers.cli`` is imported and ready to dispatch, optionally
installs the span recorder, runs ``kramers.cli.main`` and exits with its
return code.  With no kramers arguments it only imports (a set-up probe).
The program is imported from the directory named by PERFBENCH_SRC; an
installed copy elsewhere is refused with exit code 3.
"""

import json
import os
import sys
import time


def main() -> int:
    timing_path, trace_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    import_start = time.monotonic()
    import kramers.cli as cli

    ready = time.monotonic()
    src = os.path.realpath(os.environ["PERFBENCH_SRC"])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"kramers imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3
    recorder = None
    if trace_path != "-":
        import tracing

        recorder = tracing.install()
    rc = cli.main(argv) if argv else 0
    end = time.monotonic()
    if recorder is not None:
        recorder.dump(trace_path)
    with open(timing_path, "w") as fh:
        json.dump({"import_start": import_start, "ready": ready, "end": end}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
