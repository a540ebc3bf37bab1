"""Boolean environment flags, parsed one way across the package.

A flag is off when the variable is unset, empty or ``"0"``, and on for any
other value -- so ``FLAG=1``, ``FLAG=yes`` and ``FLAG=true`` all enable it,
while ``FLAG=`` and ``FLAG=0`` leave it off.
"""

from __future__ import annotations

import os

__all__ = ["env_flag"]


def env_flag(name: str) -> bool:
    """Whether environment variable ``name`` is set to an enabling value."""
    return os.environ.get(name, "") not in ("", "0")
