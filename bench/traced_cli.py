"""`v2xmac` with the benchmark's tracing wrappers installed.

Usage: python3 bench/traced_cli.py STATS.json <v2xmac arguments...>

Runs `v2xmac.cli.main` on the arguments, writes the traced totals to
STATS.json and exits with the command's exit code. The cli-recipes workload
starts its traced solves through this file.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import v2xmac.cli

from tracing import Tracer


def main(argv):
    stats_path, args = Path(argv[0]), argv[1:]
    tracer = Tracer().install()
    try:
        code = v2xmac.cli.main(args)
    finally:
        tracer.uninstall()
        stats_path.write_text(json.dumps(tracer.totals()))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
