"""One percolab CLI run in a fresh process, as the benchmark times it.

Usage: child.py SPEC OUT REPORT MODE

Imports percolab, parses and validates SPEC, and notes the monotonic clock
(the end of set-up).  MODE "setup" stops there.  MODE "run" then runs
``percolab.cli.main`` on SPEC with output directory OUT, exactly as the
``percolab`` command does; MODE "trace" does the same while recording the
calls into each module as spans.  REPORT receives the set-up timestamp, the
exit code, the bytes written and the spans.
"""

import json
import os
import sys
import time


def main(argv):
    spec_path, out_dir, report_path, mode = argv[1:5]
    from percolab import cli

    with open(spec_path, encoding="utf-8") as fh:
        spec = cli.spec_from_dict(json.load(fh))
    cli.spec_errors(spec)
    cli.validate(spec)
    ready = time.monotonic()
    if mode == "setup":
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump({"ready": ready}, fh)
        return 0

    tracer = None
    if mode == "trace":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    code = cli.main(["--spec", spec_path, "--out", out_dir])
    if tracer is not None:
        tracer.uninstall()

    written = 0
    if os.path.isdir(out_dir):
        written = sum(e.stat().st_size for e in os.scandir(out_dir) if e.is_file())
    report = {
        "ready": ready,
        "exit": code,
        "bytes_written": written,
        "spans": tracer.spans if tracer is not None else [],
    }
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
