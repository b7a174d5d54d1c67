import gc
import sys

from . import cli


def entry() -> int:
    """``python -m promptpipe`` and the ``promptpipe`` script: :func:`cli.main`, with
    the import-time heap, which lives until exit, frozen out of the collector's reach,
    and frozen again once it returns, for the modules it imported (PyYAML for a YAML
    config)."""
    gc.freeze()
    status = cli.main()
    gc.freeze()
    return status


if __name__ == "__main__":
    sys.exit(entry())
