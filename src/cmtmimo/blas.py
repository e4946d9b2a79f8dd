"""One OpenBLAS thread while the trial groups run.

OpenBLAS starts one thread per CPU unless the environment says
otherwise.  The trial groups already run on one process per CPU, so
forked workers that each kept that default would run CPUs x CPUs BLAS
threads.  And the thread count changes results: the MMSE reference
combiner's LAPACK solve rounds differently with one OpenBLAS thread
than with two, which moves the 12th digit of some ``summary.csv``
values.  So the groups run with one BLAS thread whatever the
environment sets, and the CSV bytes do not depend on it.

The OpenBLAS libraries are found among the shared objects mapped into
this process (``/proc/self/maps``, so on Linux) and set through their
``openblas_set_num_threads`` entry point, under the prefix and suffix
their build uses (numpy's wheels ship ``scipy_openblas_..._64_``).
Elsewhere, or with another BLAS, ``one_thread`` changes nothing.
"""

from __future__ import annotations

import ctypes
from collections.abc import Callable

# (prefix, suffix) of the OpenBLAS entry points in known builds
_NAMINGS = (("", ""), ("scipy_", "64_"), ("scipy_", ""), ("", "64_"))


def _openblas_libraries() -> list:
    """(get, set) thread-count functions of each OpenBLAS this process has loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {
                fields[5].strip()
                for fields in (line.split(maxsplit=5) for line in fh)
                if len(fields) == 6 and "openblas" in fields[5].rsplit("/", 1)[-1]
            }
    except OSError:
        return []
    libraries = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in _NAMINGS:
            get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                libraries.append((get, set_))
                break
    return libraries


def one_thread() -> Callable[[], None]:
    """Put every loaded OpenBLAS on one thread; returns a function that
    restores the thread counts found.  Processes forked in between
    inherit the one thread."""
    libraries = _openblas_libraries()
    before = [get() for get, _ in libraries]
    for _, set_ in libraries:
        set_(1)

    def restore() -> None:
        for (_, set_), count in zip(libraries, before):
            set_(count)

    return restore

