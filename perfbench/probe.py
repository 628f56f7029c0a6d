"""Set-up probe: a fresh interpreter that runs sfmew commands in-process.

Usage: python3 probe.py SRC_DIR '[["analyze", "--config", ...], ...]'

Prints ``ready <exit codes>`` once every command has returned; the parent
times the interval from starting this process to that line.
"""

import contextlib
import io
import json
import sys

sys.path.insert(0, sys.argv[1])

from sfmew import cli  # noqa: E402

codes = []
for args in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            cli.main.main(args=args, standalone_mode=False)
            codes.append(0)
        except SystemExit as done:
            codes.append(done.code)
print("ready", *codes, flush=True)
