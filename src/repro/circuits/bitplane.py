"""Packed bit-plane layout shared by the compiled backend and its callers.

The reference (``"bool"``) simulation backend spends one NumPy byte per
pattern per net.  The compiled backend (:mod:`repro.circuits.compiled`)
instead packs 64 patterns into each lane of a ``uint64`` *bit plane* per
net -- the classic bit-parallel trick behind EvoApproxLib's C models -- so
every op processes 64 patterns per machine word.  This module holds the
codec between the two layouts: :func:`pack_bits` and :func:`unpack_bits`.

Layout: a boolean vector of ``patterns`` values packs into
``num_planes(patterns)`` lanes; pattern ``p`` lives in lane ``p // 64``.
The bit position within a lane follows the platform's byte order (packing
and unpacking are always exact inverses, and the bitwise gate semantics are
position-independent, so simulation results never depend on endianness).
Padding bits beyond the real pattern count are unspecified -- inverting
gates turn zero padding into ones -- and are sliced off by
:func:`unpack_bits`.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "PLANE_WIDTH",
    "num_planes",
    "pack_bits",
    "unpack_bits",
]

#: Patterns carried per ``uint64`` lane.
PLANE_WIDTH = 64


def num_planes(num_patterns: int) -> int:
    """Lanes needed to hold ``num_patterns`` packed patterns."""
    if num_patterns < 0:
        raise ValueError("num_patterns must be non-negative")
    return -(-num_patterns // PLANE_WIDTH)


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack boolean patterns along the last axis into ``uint64`` planes.

    A ``(..., patterns)`` boolean array becomes a
    ``(..., num_planes(patterns))`` ``uint64`` array; the tail of the last
    plane is zero-padded when ``patterns`` is not a multiple of 64.
    """
    bits = np.asarray(bits, dtype=bool)
    patterns = bits.shape[-1]
    padded = num_planes(patterns) * PLANE_WIDTH
    if padded != patterns:
        pad = np.zeros(bits.shape[:-1] + (padded - patterns,), dtype=bool)
        bits = np.concatenate([bits, pad], axis=-1)
    # ``np.packbits`` is ~2.5x slower on strided input; the common caller
    # packs a transposed (net, patterns) view, so make it contiguous first.
    packed_bytes = np.ascontiguousarray(
        np.packbits(np.ascontiguousarray(bits), axis=-1, bitorder="little")
    )
    return packed_bytes.view(np.uint64)


def unpack_bits(packed: np.ndarray, num_patterns: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`: planes back to a boolean pattern axis.

    ``num_patterns`` selects how many patterns to keep from the last plane
    (packed arrays carry no pattern count of their own); it must fit the
    plane capacity.
    """
    packed = np.ascontiguousarray(packed, dtype=np.uint64)
    capacity = packed.shape[-1] * PLANE_WIDTH
    if not 0 <= num_patterns <= capacity:
        raise ValueError(
            f"num_patterns {num_patterns} does not fit the packed capacity of "
            f"{capacity} patterns"
        )
    bits = np.unpackbits(packed.view(np.uint8), axis=-1, bitorder="little")
    return bits[..., :num_patterns].astype(bool)
