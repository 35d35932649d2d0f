"""The machine block: what a reader needs before comparing numbers taken on
two boxes."""
import ctypes
import glob
import os
import platform

import numpy as np

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def nproc():
    return len(os.sched_getaffinity(0))


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None when
    it is not an OpenBLAS bundled with numpy."""
    base = os.path.dirname(os.path.dirname(np.__file__))
    libs = glob.glob(os.path.join(base, "numpy.libs", "*openblas*")) + \
        glob.glob(os.path.join(os.path.dirname(np.__file__), ".libs",
                               "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def machine_block():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    pages = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads()},
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "mem_total_mb": round(pages / 2 ** 20),
        "machine": platform.machine(),
        "system": f"{platform.system()} {platform.release()}",
    }
