"""Run one ``repro`` CLI command under the span tracer.

Usage::

    python3 perfbench/traced_cli.py TRACE.json layers|simulate -- ARGS...

``layers`` puts a ``cli.import`` span around the CLI import, then wraps
every layer as in :mod:`layers`.  ``simulate`` puts one
``world.simulate`` span around the whole command, import included.
The spans are written to ``TRACE.json`` when the command returns; the
exit code is the command's own.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import Tracer, install  # noqa: E402

USAGE = "usage: traced_cli.py TRACE.json layers|simulate -- ARGS..."


def main(argv: list[str]) -> int:
    trace_path, mode, separator, *command = argv
    if separator != "--" or mode not in ("layers", "simulate"):
        raise SystemExit(USAGE)
    layers = mode == "layers"
    tracer = Tracer()
    index = tracer.open("cli.import" if layers else "world.simulate")
    from repro.api.cli import main as cli_main

    if layers:
        tracer.close(index)
        # The tracer's own imports and patching, kept out of
        # trace.unattributed_s (they are part of trace.overhead_s).
        index = tracer.open("trace.install")
        install(tracer)
        tracer.close(index)
    try:
        code = cli_main(command)
    finally:
        if not layers:
            tracer.close(index)
        tracer.dump(trace_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
