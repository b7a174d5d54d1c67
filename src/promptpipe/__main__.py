import gc
import sys

from . import cli


def entry() -> int:
    """``python -m promptpipe`` and the ``promptpipe`` script: :func:`cli.main`, with
    the import-time heap, which lives until exit, frozen out of the collector's reach."""
    gc.freeze()
    return cli.main()


if __name__ == "__main__":
    sys.exit(entry())
