"""``noether`` CLI entry point for the traced ``cli`` run.

    PERFBENCH_SPANS=FILE python3 perfbench/cli_shim.py <subcommand> [args]

Does what the ``noether`` console script does (``noether.cli.main``), but
first times ``import noether`` and installs the wrappers of ``tracer.py``;
the spans of this one process go to ``$PERFBENCH_SPANS``.
"""

import os
import sys
import time

started = time.perf_counter()
import noether.cli  # noqa: E402  (the import being timed)

import_s = time.perf_counter() - started

from tracer import Tracer  # noqa: E402

tracer = Tracer()
tracer.install()
try:
    code = noether.cli.main(sys.argv[1:])
finally:
    tracer.uninstall()
    tracer.dump(os.environ["PERFBENCH_SPANS"], import_s=import_s)
sys.exit(code)
