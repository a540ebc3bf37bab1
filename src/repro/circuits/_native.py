"""Optional native executor for compiled op tapes.

The pure-NumPy tape executor in :mod:`repro.circuits.compiled` is
memory-bandwidth bound: every fused group gathers whole operand rows and
writes whole destination rows through DRAM, so wide circuits stream tens
of megabytes per simulation no matter how few Python calls remain.  This
module removes that wall with a cache-tiled C interpreter for the *same*
flat tape: planes are processed in tiles of :data:`TILE` ``uint64`` lanes
so the entire slot matrix for one tile stays L2-resident, turning the
per-op traffic into cache hits.

The interpreter is a fixed ~40-line C source (no per-circuit code
generation).  On first use it is compiled once per machine with the system
C compiler into a content-addressed shared library under
``~/.cache/repro-netlist/`` (falling back to a temp directory) and loaded
through :mod:`ctypes` -- stdlib only, no new Python dependencies.  If no
compiler is available, compilation fails, or ``REPRO_NO_NATIVE=1`` is set,
everything silently falls back to the NumPy executor, which is always
present and bit-identical; the differential suite pins both paths.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import sys
import tempfile
from typing import Optional

import numpy as np

from ..envflags import env_flag

__all__ = ["TILE", "native_available", "run_tape_native"]

#: Planes (uint64 lanes) per cache tile: 64 planes = 4096 patterns per pass,
#: 512 bytes per slot row, so even multi-thousand-slot tapes stay L2-resident.
TILE = 64

#: Environment flag (see :func:`repro.envflags.env_flag`) that disables the
#: native executor (used by tests to pin the NumPy fallback, and as an
#: escape hatch on machines where the cached library misbehaves).
DISABLE_ENV = "REPRO_NO_NATIVE"

_C_SOURCE = """
#include <stdint.h>
#include <string.h>

#define TILE %(tile)dL

void repro_run_tape(
    const int32_t *tape, long num_ops,
    const uint64_t *inputs, long num_inputs, long planes,
    long num_slots, long zero_slot, long one_slot,
    const int64_t *out_index, const uint64_t *out_invert, long num_outputs,
    uint64_t *outputs, uint64_t *scratch)
{
    (void)num_slots;
    for (long t0 = 0; t0 < planes; t0 += TILE) {
        long tw = planes - t0 < TILE ? planes - t0 : TILE;
        for (long i = 0; i < num_inputs; ++i)
            memcpy(scratch + i * TILE, inputs + i * planes + t0,
                   (size_t)tw * sizeof(uint64_t));
        memset(scratch + zero_slot * TILE, 0x00, (size_t)tw * sizeof(uint64_t));
        memset(scratch + one_slot * TILE, 0xFF, (size_t)tw * sizeof(uint64_t));
        const int32_t *op = tape;
        for (long k = 0; k < num_ops; ++k, op += 4) {
            const uint64_t *a = scratch + (long)op[1] * TILE;
            const uint64_t *b = scratch + (long)op[2] * TILE;
            uint64_t *d = scratch + (long)op[3] * TILE;
            long j;
            switch (op[0]) {
            case 0: for (j = 0; j < tw; ++j) d[j] = a[j] & b[j]; break;
            case 1: for (j = 0; j < tw; ++j) d[j] = a[j] | b[j]; break;
            case 2: for (j = 0; j < tw; ++j) d[j] = a[j] ^ b[j]; break;
            case 3: for (j = 0; j < tw; ++j) d[j] = a[j] & ~b[j]; break;
            }
        }
        for (long k = 0; k < num_outputs; ++k) {
            const uint64_t *src = scratch + out_index[k] * TILE;
            uint64_t inv = out_invert[k];
            uint64_t *d = outputs + k * planes + t0;
            for (long j = 0; j < tw; ++j) d[j] = src[j] ^ inv;
        }
    }
}
""" % {"tile": TILE}

_lib: Optional[ctypes.CDLL] = None
_load_attempted = False


def _cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    path = os.path.join(base, "repro-netlist")
    try:
        os.makedirs(path, exist_ok=True)
        return path
    except OSError:
        return tempfile.gettempdir()


def _build_library() -> Optional[str]:
    """Compile the interpreter into a content-addressed .so; None on failure."""
    digest = hashlib.blake2b(_C_SOURCE.encode(), digest_size=8).hexdigest()
    directory = _cache_dir()
    suffix = ".pyd" if sys.platform == "win32" else ".so"
    library_path = os.path.join(directory, f"tape_exec_{digest}{suffix}")
    if os.path.exists(library_path):
        return library_path
    compiler = os.environ.get("CC", "cc")
    try:
        fd, source_path = tempfile.mkstemp(suffix=".c", dir=directory)
        with os.fdopen(fd, "w") as handle:
            handle.write(_C_SOURCE)
        build_path = library_path + f".build-{os.getpid()}"
        for extra in (["-march=native"], []):
            result = subprocess.run(
                [compiler, "-O3", "-fPIC", "-shared", *extra, "-o", build_path, source_path],
                capture_output=True,
                timeout=120,
            )
            if result.returncode == 0:
                os.replace(build_path, library_path)  # atomic under races
                return library_path
        return None
    except (OSError, subprocess.SubprocessError):
        return None
    finally:
        try:
            os.unlink(source_path)
        except (OSError, UnboundLocalError):
            pass


def _load() -> Optional[ctypes.CDLL]:
    global _lib, _load_attempted
    if _load_attempted:
        return _lib
    _load_attempted = True
    if env_flag(DISABLE_ENV):
        return None
    library_path = _build_library()
    if library_path is None:
        return None
    try:
        lib = ctypes.CDLL(library_path)
        lib.repro_run_tape.restype = None
        lib.repro_run_tape.argtypes = [
            ctypes.c_void_p, ctypes.c_long,  # tape, num_ops
            ctypes.c_void_p, ctypes.c_long, ctypes.c_long,  # inputs, n_in, planes
            ctypes.c_long, ctypes.c_long, ctypes.c_long,  # n_slots, zero, one
            ctypes.c_void_p, ctypes.c_void_p, ctypes.c_long,  # out_idx, out_inv, n_out
            ctypes.c_void_p, ctypes.c_void_p,  # outputs, scratch
        ]
    except OSError:
        return None
    _lib = lib
    return _lib


def native_available() -> bool:
    """True when the ctypes tape executor compiled, loaded, and is enabled."""
    return _load() is not None


def run_tape_native(
    tape: np.ndarray,
    input_planes: np.ndarray,
    num_slots: int,
    zero_slot: int,
    one_slot: int,
    out_index: np.ndarray,
    out_invert: np.ndarray,
    outputs: np.ndarray,
    scratch: np.ndarray,
) -> bool:
    """Run one compiled tape natively; returns False if unavailable.

    All arrays must be C-contiguous with the dtypes produced by
    ``compile_netlist`` (``tape``: int32 ``(num_ops, 4)``; planes/outputs/
    scratch: uint64; ``out_index``: int64; ``out_invert``: one uint64 mask
    per output).  ``outputs`` is written in place.
    """
    lib = _load()
    if lib is None:
        return False
    lib.repro_run_tape(
        tape.ctypes.data, tape.shape[0],
        input_planes.ctypes.data, input_planes.shape[0], input_planes.shape[1],
        num_slots, zero_slot, one_slot,
        out_index.ctypes.data, out_invert.ctypes.data, out_index.shape[0],
        outputs.ctypes.data, scratch.ctypes.data,
    )
    return True
