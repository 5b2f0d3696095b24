"""The set-up that `setup_s` times, run in a fresh interpreter.

Reads a JSON list of config texts on stdin, imports fragstop from the
checkout's sources, parses every config and derives its parameters (the
kappa root), then prints "ready".
"""

import json
import sys
from pathlib import Path


def main() -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from fragstop import harness

    for text in json.load(sys.stdin):
        harness.parse_config_text(text).params()
    print("ready", flush=True)


if __name__ == "__main__":
    main()
