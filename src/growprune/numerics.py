"""The seedable random source used by every run, and a hold on OpenBLAS's
thread count.

`one_blas_thread` holds OpenBLAS at one thread while threads of our own
each run their GEMMs, so that those threads do not each start OpenBLAS's
threads on the same cores. It finds OpenBLAS's setter and getter through
ctypes in the library numpy links: `scipy_openblas_set_num_threads64_` in
the numpy 2 wheels, `openblas_set_num_threads64_` or
`openblas_set_num_threads` in other builds. Where numpy links none of them
(another BLAS, or a build that hides the symbols), it holds nothing and says
so, and the caller runs its GEMMs on one thread of its own instead, with
BLAS's threads.
"""

from __future__ import annotations

import ctypes
import functools
import importlib
import importlib.machinery
from contextlib import contextmanager

import numpy as np

_SETTERS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_", "openblas_set_num_threads")


def make_rng(seed: int) -> np.random.Generator:
    """Seedable random source; identical seed gives an identical stream.

    PCG64 is pinned explicitly so the stream does not depend on numpy's
    default_rng choice.
    """
    return np.random.Generator(np.random.PCG64(int(seed)))


def _numpy_core_library() -> str | None:
    """Path of numpy's compiled core, whose dependencies include its BLAS."""
    for name in ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath"):
        try:
            path = getattr(importlib.import_module(name), "__file__", None) or ""
        except ImportError:
            continue
        # a pure-Python module that re-exports the core is skipped
        if path.endswith(tuple(importlib.machinery.EXTENSION_SUFFIXES)):
            return path
    return None


@functools.cache
def _blas_thread_calls():
    """(setter name, getter, setter) of the OpenBLAS numpy links, looked up
    once; None where none of _SETTERS is found."""
    path = _numpy_core_library()
    try:
        lib = ctypes.CDLL(path) if path else None
    except OSError:
        lib = None
    for name in _SETTERS if lib else ():
        try:
            setter, getter = getattr(lib, name), getattr(lib, name.replace("_set_", "_get_"))
        except AttributeError:  # dlsym searches the core and the libraries it loaded
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], None
        getter.argtypes, getter.restype = [], ctypes.c_int
        return name, getter, setter
    return None


def blas_thread_setter() -> str | None:
    """Name of the OpenBLAS thread-count setter `one_blas_thread` uses, or
    None where it found none."""
    calls = _blas_thread_calls()
    return calls[0] if calls else None


@contextmanager
def one_blas_thread():
    """Hold OpenBLAS at one thread inside the block, and restore the count it
    had on exit, on error too; yields True, or False where no setter is
    found and nothing is held. The count is process-wide, so one thread at a
    time may hold it."""
    calls = _blas_thread_calls()
    if calls is None:
        yield False
        return
    _, get, set_ = calls
    before = get()
    set_(1)
    try:
        yield True
    finally:
        set_(before)
