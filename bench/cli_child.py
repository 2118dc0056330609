"""Run one logeq command with the tracer installed, as `python -m logeq` would.

    python3 bench/cli_child.py SUMMARY.json <logeq arguments>

Writes the span summary to SUMMARY.json and the spans next to it (.npz);
standard output and the exit code are those of the command.
"""

import json
import sys

import logeq.cli
from tracing import Tracer


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.current_op[0] = 0
    try:
        return logeq.cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(tracer.summary(), handle)
        tracer.save(path[:-len(".json")] + ".npz")


if __name__ == "__main__":
    sys.exit(main())
