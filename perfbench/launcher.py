"""Run ``konsepta serve`` in this process, optionally with layer tracing.

Usage (started by the benchmark, one child process per server):

    python3 perfbench/launcher.py --data DIR --port N --token T [--trace FILE]

The server is the unmodified CLI entry point.  With ``--trace`` the span
wrappers are installed before the dataset loads, so loading is traced too.
SIGTERM stops the server; the launcher then writes the trace file and
prints one JSON line with its peak resident set size.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--data", required=True)
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--token", required=True)
    parser.add_argument("--trace")
    args = parser.parse_args()

    import click

    from konsepta import cli

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    signal.signal(signal.SIGTERM, _interrupt)
    try:
        cli.main(["--data", args.data, "serve", "--addr", f"127.0.0.1:{args.port}",
                  "--admin-token", args.token], prog_name="konsepta", standalone_mode=False)
    except (KeyboardInterrupt, click.exceptions.Abort):
        pass
    if tracer is not None:
        tracer.dump(args.trace)
    print(json.dumps({"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}), flush=True)


if __name__ == "__main__":
    main()
