"""Pareto-front construction, successive pseudo-fronts and coverage metrics.

All objectives are minimised (error, latency, power, LUTs).  The paper's key
trick is to extract *multiple* successive pseudo-Pareto fronts from the
model-estimated costs: the first front, then the front of what remains, and
so on.  Because the estimators have limited fidelity, truly Pareto-optimal
circuits can be estimated as slightly dominated; keeping the first few
fronts recovers them at the cost of a few more synthesis runs.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np


def _as_points(points: np.ndarray) -> np.ndarray:
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError(f"points must be a 2-D (n, objectives) array, got shape {points.shape}")
    if not np.all(np.isfinite(points)):
        raise ValueError("points contain NaN or infinite values")
    return points


def dominates(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether point ``a`` Pareto-dominates ``b`` (all objectives minimised)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return bool(np.all(a <= b) and np.any(a < b))


def pareto_front_indices(points: np.ndarray) -> List[int]:
    """Indices of the non-dominated points (first Pareto front).

    Duplicate points are all kept: neither strictly dominates the other.  The
    check is a block-vectorised pairwise comparison, which is exact for any
    number of objectives and comfortably fast for library-sized point sets.
    """
    points = _as_points(points)
    n = points.shape[0]
    if n == 0:
        return []
    dominated = np.zeros(n, dtype=bool)
    block_size = 512
    for start in range(0, n, block_size):
        block = points[start:start + block_size]
        # leq[i, j]: candidate j is <= block point i in every objective.
        leq = np.all(points[None, :, :] <= block[:, None, :], axis=2)
        lt = np.any(points[None, :, :] < block[:, None, :], axis=2)
        dominated[start:start + block_size] = np.any(leq & lt, axis=1)
    return [int(i) for i in np.nonzero(~dominated)[0]]


def successive_pareto_fronts(points: np.ndarray, num_fronts: int) -> List[List[int]]:
    """The first ``num_fronts`` successive Pareto fronts (non-dominated sorting).

    Front ``k`` is the Pareto front of the points remaining after removing
    fronts ``1 .. k-1``.  Fewer fronts are returned if the points run out.
    """
    if num_fronts < 1:
        raise ValueError("num_fronts must be at least 1")
    points = _as_points(points)
    remaining = list(range(points.shape[0]))
    fronts: List[List[int]] = []
    for _ in range(num_fronts):
        if not remaining:
            break
        subset = points[remaining]
        local_front = pareto_front_indices(subset)
        front = [remaining[i] for i in local_front]
        fronts.append(sorted(front))
        in_front = set(front)
        remaining = [index for index in remaining if index not in in_front]
    return fronts


def pareto_union(fronts: Sequence[Sequence[int]]) -> List[int]:
    """Union of several fronts (the paper's union over models and front ranks)."""
    result = set()
    for front in fronts:
        result.update(int(i) for i in front)
    return sorted(result)


def pareto_coverage(true_front: Sequence[int], candidate_set: Sequence[int]) -> float:
    """Fraction of the true Pareto-optimal points present in the candidate set.

    This is the paper's "percentage coverage of the pareto-optimal designs"
    (reported as ~71% on average in Fig. 8).
    """
    true_set = set(int(i) for i in true_front)
    if not true_set:
        raise ValueError("the true Pareto front is empty")
    found = true_set & set(int(i) for i in candidate_set)
    return len(found) / len(true_set)


def hypervolume_2d(points: np.ndarray, reference: Sequence[float]) -> float:
    """Dominated hypervolume of a 2-D front w.r.t. a reference point.

    Used by tests and the AutoAx benchmarks to compare search strategies: a
    larger dominated area means a better front (both objectives minimised).
    Points outside the reference box dominate zero area inside it, so they
    are excluded and contribute nothing -- the result is never negative,
    and a front entirely beyond the reference scores exactly 0.0.
    """
    points = _as_points(points)
    if points.shape[1] != 2:
        raise ValueError("hypervolume_2d requires exactly two objectives")
    reference = np.asarray(reference, dtype=np.float64)
    front = points[pareto_front_indices(points)]
    front = front[(front[:, 0] <= reference[0]) & (front[:, 1] <= reference[1])]
    if front.size == 0:
        return 0.0
    order = np.argsort(front[:, 0])
    front = front[order]
    volume = 0.0
    previous_x = None
    best_y = reference[1]
    for x, y in front:
        if previous_x is None:
            previous_x = x
            best_y = y
            continue
        # Each staircase strip is clamped at zero width/height so rounding
        # at the reference boundary can never push the total negative.
        volume += max(x - previous_x, 0.0) * max(reference[1] - best_y, 0.0)
        previous_x = x
        best_y = min(best_y, y)
    volume += max(reference[0] - previous_x, 0.0) * max(reference[1] - best_y, 0.0)
    return float(max(volume, 0.0))
