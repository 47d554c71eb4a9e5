"""Fresh-interpreter helper for run.py.

    python child.py setup <workload> <seed> <root>
        Times the workload's imports plus its input generation and prints
        the seconds. Run under ``-X importtime`` it also yields the
        per-package import times.

    python child.py cli <uwacap arguments...>
        Runs ``uwacap.cli.main(argv)`` with spans around the package's
        public functions, then writes the spans to stderr as one line
        starting with ``#perfbench-spans``. Exits with main's code.
"""

from __future__ import annotations

import json
import sys
import time

import spans
import workloads


def main():
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        name, seed, root = rest
        sys.path.insert(0, root + "/src")
        start = time.perf_counter()
        workloads.WORKLOADS[name](root, int(seed)).prepare()
        print(repr(time.perf_counter() - start))
        return 0
    if mode == "cli":
        import uwacap.cli

        recorder = spans.Recorder()
        spans.install(recorder)
        recorder.op = 0
        try:
            return uwacap.cli.main(rest)
        finally:
            sys.stdout.flush()
            payload = json.dumps({"spans": recorder.spans, "attrs": recorder.attrs}, separators=(",", ":"))
            sys.stderr.write("\n#perfbench-spans %s\n" % payload)
    raise SystemExit("unknown mode %r" % mode)


if __name__ == "__main__":
    sys.exit(main())
