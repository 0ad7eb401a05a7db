"""One benchmark process: set delpezzo up, run one workload once, record it.

Started by ``run.py`` in a fresh interpreter whose ``PYTHONPATH`` is the
checkout's ``src``.  The single argument is a JSON spec:

    mode    "probe" stops after set-up; "rep" also runs the workload
    argv    the CLI arguments (see ``workloads.inputs``)
    trace   install the wrappers of ``tracer.py`` before running
    out     where to write the measurement (JSON)
    report  where the CLI writes its report
    src     the directory delpezzo must be imported from

Set-up ends when ``cli.parse_args`` returns: inside ``cli.main`` for a
repetition, called directly for a probe.  The end of set-up is written as a ``CLOCK_MONOTONIC`` reading, which the
parent compares with its own reading taken just before the spawn.
"""

from __future__ import annotations

import json
import os
import sys
import time


def main() -> int:
    spec = json.loads(sys.argv[1])
    doc = {}

    from delpezzo import cli

    argv = spec["argv"] + ["--out", spec["report"]]
    if spec["mode"] == "probe":
        cli.parse_args(argv)
        doc["setup_ns"] = time.monotonic_ns()

    import delpezzo
    import numpy

    doc["numpy"] = numpy.__version__
    where = os.path.dirname(os.path.abspath(delpezzo.__file__))
    if os.path.dirname(where) != os.path.abspath(spec["src"]):
        print(f"delpezzo was imported from {where}, not from {spec['src']}", file=sys.stderr)
        return 4

    code = 0
    if spec["mode"] == "rep":
        tracer = None
        if spec["trace"]:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        traced_parse = cli.parse_args

        def parse_args(argv):
            cfg = traced_parse(argv)
            doc["setup_ns"] = time.monotonic_ns()
            return cfg

        cli.parse_args = parse_args
        code = cli.main(argv)
        if tracer is not None:
            doc["trace"] = tracer.dump()

    with open(spec["out"], "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
