import gc
import os
import sys

from . import cli


def entry() -> int:
    """``python -m promptpipe`` and the ``promptpipe`` script: :func:`cli.main` in a
    process that ends with it.

    The import-time heap, which lives until exit, is frozen out of the collector's
    reach, and the collector is then turned off: no command makes reference cycles
    that grow with its input. Once main returns a status, standard output and error
    are flushed, and the process ends by :func:`os._exit` with that status: no
    interpreter teardown and no ``atexit`` handler. A standard output that cannot be
    flushed (its reader closed the pipe) is reported as main reports an output it
    cannot write: one ``error:`` line and status 1, and its descriptor then points at
    :data:`os.devnull`, so no later flush fails again. Under a tracer or a profiler
    the status is returned once both streams are flushed, so the process ends the
    normal way and the tool sees the end; so does a ``SystemExit`` or any other
    exception out of main.
    """
    gc.freeze()
    gc.disable()
    status = cli.main()
    try:
        sys.stdout.flush()
    except OSError as exc:  # as main reports an output that cannot be written
        sys.stderr.write(f"error: {exc}\n")
        status = 1
        # the interpreter's teardown flushes what is left to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.stderr.flush()
    if sys.gettrace() is not None or sys.getprofile() is not None:
        return status
    os._exit(status)


if __name__ == "__main__":
    sys.exit(entry())
