"""numpy's OpenBLAS on one thread for the duration of a call (README, Threading)."""

import ctypes
import functools
import threading

import numpy as np

_NAMES = (("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
          ("openblas_get_num_threads", "openblas_set_num_threads"))
_GET, _SET = ctypes.CFUNCTYPE(ctypes.c_int), ctypes.CFUNCTYPE(None, ctypes.c_int)
_lock, _scope = threading.Lock(), {"depth": 0}  # process-wide, as the count is


def serial_blas(fn):
    """Run ``fn`` with numpy's BLAS on one thread; with a BLAS other than OpenBLAS, just run it."""
    @functools.wraps(fn)
    def serial(*args, **kwargs):
        with _lock:
            if "api" not in _scope:  # on the first call, not at import; numpy < 2 has no _core
                so = ctypes.CDLL((getattr(np, "_core", None) or np.core)._multiarray_umath.__file__)
                _scope["api"] = next(((_GET((g, so)), _SET((s, so))) for g, s in _NAMES
                                      if hasattr(so, g)), ())
            if (api := _scope["api"]) and _scope["depth"] == 0:
                _scope["saved"] = api[0]()
                api[1](1)
            _scope["depth"] += 1
        try:
            return fn(*args, **kwargs)
        finally:
            with _lock:
                _scope["depth"] -= 1
                if api and _scope["depth"] == 0:
                    api[1](_scope["saved"])
    return serial
