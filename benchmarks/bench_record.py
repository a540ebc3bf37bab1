"""Where the benchmarks write their ``BENCH_*.json`` tables.

A run writes to the git-ignored ``bench_runs/`` directory at the repository
root, so running the benchmarks leaves the working tree clean.  With
``REPRO_BENCH_RECORD=1`` it writes the committed ``BENCH_*.json`` file
instead: set it in a change that means to re-baseline the recorded numbers.
"""

from __future__ import annotations

from pathlib import Path

from repro.envflags import env_flag

ROOT = Path(__file__).resolve().parents[1]
RUN_DIR = ROOT / "bench_runs"
RECORD_ENV = "REPRO_BENCH_RECORD"


def committed_path(name: str) -> Path:
    """The committed ``BENCH_*.json`` file ``name``."""
    return ROOT / name


def output_path(name: str) -> Path:
    """Where this run writes ``name``: the committed file when recording,
    else the run directory (created on demand)."""
    if env_flag(RECORD_ENV):
        return committed_path(name)
    RUN_DIR.mkdir(exist_ok=True)
    return RUN_DIR / name
