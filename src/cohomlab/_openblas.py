"""The thread timeout cohomlab maps its OpenBLAS copies with.

numpy and scipy each bundle a copy of OpenBLAS.  Mapping a copy starts
a worker thread that busy-waits on another core for OpenBLAS's thread
timeout (about 0.1-0.2 s by default) before it sleeps, and nothing a
cold start runs wakes it.  A copy reads OPENBLAS_THREAD_TIMEOUT (or
GOTO_THREAD_TIMEOUT) once, when it is mapped, so the variable only has
to be set while the import that maps it runs.  This module imports no
numpy: it must run before numpy's first import.
"""

import os
from contextlib import contextmanager


@contextmanager
def quiet_threads():
    """Run the body, which may map an OpenBLAS copy, with OpenBLAS's
    shortest thread timeout (4) in the environment, so the copy's idle
    workers sleep at once, after its start and after every threaded
    call for the rest of the process.  A timeout the user set in either
    variable is left as it is.  os.environ is the same afterwards.  A
    copy mapped before the body runs keeps the timeout it read then.
    """
    if {"OPENBLAS_THREAD_TIMEOUT", "GOTO_THREAD_TIMEOUT"} & os.environ.keys():
        yield
        return
    os.environ["OPENBLAS_THREAD_TIMEOUT"] = "4"
    try:
        yield
    finally:
        del os.environ["OPENBLAS_THREAD_TIMEOUT"]
