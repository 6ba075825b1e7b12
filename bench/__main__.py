"""``python -m bench run ...`` or ``python -m bench compare PARENT CHANGE``."""

import sys

from bench import compare, run

COMMANDS = {"run": run.main, "compare": compare.main}

if len(sys.argv) < 2 or sys.argv[1] not in COMMANDS:
    print(f"usage: python -m bench {{{','.join(COMMANDS)}}} ...", file=sys.stderr)
    sys.exit(2)
sys.exit(COMMANDS[sys.argv[1]](sys.argv[2:]))
