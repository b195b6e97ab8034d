"""Process entry of ``python -m ebitflow`` and the ``ebitflow`` script.

A process runs one request and exits. ``main`` turns the cyclic garbage
collector off before the command line is imported, and freezes the heap on
every way out, so the full collections that the interpreter runs while it
finalizes skip every object the request left: a request makes no reference
cycles, so those passes would free nothing. Finalization itself still runs,
with the atexit handlers and the flush of stdout and stderr that the exit
codes rely on, which ``os._exit`` would skip.
"""

import gc
import sys


def main() -> int:
    """Run the request in ``sys.argv`` and return its exit code."""
    gc.disable()
    try:
        from .cli import main as run

        return run()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
