"""Endpoint-parameterized flow matching utilities.

States follow straight-line interpolants x_t = t * x1 + (1 - t) * x0.  Models
predict the endpoint x1; the induced velocity is (x1_hat - x_t) / (1 - t).
Binary/ternary structure targets live in [-1, 1]; budget-split fractions live
on the probability simplex of each left sibling pair and travel through the
affine map x -> 2x - 1, while an only child's split is the constant 1.  A
level's sibling pairs come as one ``(P, 2)`` index array, built by
:func:`hyperforge.expansion.sibling_pairs` from the expanded graph's sibling
maps.  Noise for split heads comes from a symmetric Dirichlet per pair; noise
within expanded sibling pairs can be optimal-transport coupled by a cost-based
swap that preserves the per-slot noise marginals.

These functions are the only implementation of the flow rules.  Training
and validation draw noise with :func:`sample_prior`, couple it with
:func:`ot_couple` and noise the targets with :func:`interpolate`; sampling
draws the same priors and runs :func:`integrate`, which steps with
:func:`endpoint_velocity` and projects splits with
:func:`project_split_groups`.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

import numpy as np

__all__ = [
    "TERMINAL_TIME_EPS",
    "interpolate",
    "endpoint_velocity",
    "sample_prior",
    "simplex_project",
    "project_split_groups",
    "ot_couple",
    "integrate",
]

TERMINAL_TIME_EPS = 1e-5
SPLIT_DIRICHLET_ALPHA = 1.5


def interpolate(x0: np.ndarray, x1: np.ndarray, t: float) -> np.ndarray:
    """Straight-line interpolant t * x1 + (1 - t) * x0."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    x0 = np.asarray(x0, dtype=np.float64)
    x1 = np.asarray(x1, dtype=np.float64)
    if x0.shape != x1.shape:
        raise ValueError("endpoint shapes differ")
    return t * x1 + (1.0 - t) * x0


def endpoint_velocity(x_t: np.ndarray, x1_hat: np.ndarray, t: float) -> np.ndarray:
    """Velocity induced by an endpoint prediction: (x1_hat - x_t) / (1 - t).

    Raises:
        ValueError: once t is within 1e-5 of 1; callers must switch to the
            terminal rule (assign the predicted endpoint directly).
    """
    if t >= 1.0 - TERMINAL_TIME_EPS:
        raise ValueError("velocity is singular near t = 1; use the terminal rule")
    x_t = np.asarray(x_t, dtype=np.float64)
    x1_hat = np.asarray(x1_hat, dtype=np.float64)
    if x_t.shape != x1_hat.shape:
        raise ValueError("shapes differ")
    return (x1_hat - x_t) / (1.0 - t)


def sample_prior(
    shape: tuple[int, ...],
    rng: np.random.Generator,
    pairs: np.ndarray | None = None,
) -> np.ndarray:
    """Draw x0 noise for one head.

    Without ``pairs``: i.i.d. standard normals of ``shape``.  With them, the
    budget-split prior over a flat per-child vector: one symmetric Dirichlet
    of concentration ``SPLIT_DIRICHLET_ALPHA`` per sibling pair, in pair
    order and mapped by 2x - 1; every child that no pair names is an only
    child and gets the constant 1.  All pairs come from one
    ``rng.dirichlet`` call, which uses the generator as one call per pair
    would.
    """
    if pairs is None:
        return rng.standard_normal(shape)
    if len(shape) != 1:
        raise ValueError("the split prior is defined over a flat per-child vector")
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    out = np.ones(shape[0], dtype=np.float64)
    draws = rng.dirichlet([SPLIT_DIRICHLET_ALPHA] * 2, size=pairs.shape[0])
    out[pairs] = 2.0 * draws - 1.0
    return out


def simplex_project(z) -> np.ndarray:
    """Euclidean projection of a vector onto the probability simplex.

    Sorted-threshold procedure: sort descending, find the largest prefix whose
    running mean stays under its last element, subtract that threshold, clip
    at zero.  The result sums to one with non-negative entries.

    Raises:
        ValueError: for an empty vector or a non-finite entry.
    """
    z = np.asarray(z, dtype=np.float64).reshape(-1)
    if z.size == 0 or not np.isfinite(z).all():
        raise ValueError("can only project a non-empty finite vector")
    u = np.sort(z)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, z.size + 1)
    cond = u - css / idx > 0
    if not cond.any():
        # cond[0] is u0 - (u0 - 1) > 0, true in exact arithmetic; past 2**53
        # rounding loses it, so project the shifted z - max(z) instead
        return simplex_project(z - u[0])
    rho = int(np.nonzero(cond)[0][-1]) + 1
    tau = css[rho - 1] / rho
    return np.maximum(z - tau, 0.0)


def _project_pairs(z: np.ndarray) -> np.ndarray:
    """:func:`simplex_project` of every row of a ``(P, 2)`` array, with the
    same float operations: for a pair ``hi >= lo`` the rule keeps both
    entries when ``lo`` exceeds the two-term threshold, else the top one."""
    hi = z.max(axis=1, keepdims=True)
    lo = z.min(axis=1, keepdims=True)
    one = hi - 1.0
    two = ((hi + lo) - 1.0) / 2
    keep_two = lo - two > 0
    out = np.maximum(z - np.where(keep_two, two, one), 0.0)
    # rows where rounding failed both tests, which takes entries past 2**53
    for i in np.flatnonzero(~(keep_two | (hi - one > 0))):
        out[i] = simplex_project(z[i])
    return out


def project_split_groups(values: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Project mapped split coordinates pair-wise back onto valid splits.

    Values live in the 2x - 1 coordinates.  Each sibling pair of the
    ``(P, 2)`` array ``pairs``, as :func:`hyperforge.expansion.sibling_pairs`
    builds it, is mapped to fraction space, projected onto its simplex and
    mapped back, all pairs at once and bit for bit as
    :func:`simplex_project` would; every other child is an only child and
    gets exactly 1.

    Raises:
        ValueError: for a non-finite value.
    """
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    if not np.isfinite(values).all():
        raise ValueError("can only project finite split values")
    out = np.ones_like(values)
    out[pairs] = 2.0 * _project_pairs((values[pairs] + 1.0) / 2.0) - 1.0
    return out


def ot_couple(
    noise: np.ndarray,
    targets: np.ndarray,
    sibling_groups: Sequence[Sequence],
) -> np.ndarray:
    """Optimal-transport coupling inside sibling pairs.

    A sibling is a row index or an index array; its joint row is the rows
    it names, in the order given.  For every pair the two joint rows of
    noise are swapped iff the swapped assignment has strictly lower total
    squared distance to the targets; ties keep the order.  Targets are never
    modified; singletons and rows that no sibling names pass through.

    The training pipeline calls this on one flat vector per side: a left
    (then right) sibling's joint row is its node-head entries followed by
    the ``edge_keep`` entries of the edges whose opposite endpoint it shares
    with its sibling, in that endpoint's order.  It couples the left pairs
    first and the right pairs second, on the edge noise the left pass left.

    Raises:
        ValueError: for groups of other than one or two siblings, siblings
            that overlap, fall out of range or whose joint rows differ in
            length, or mismatched shapes.
    """
    noise = np.array(noise, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if noise.shape != targets.shape:
        raise ValueError("noise/target shapes differ")
    groups = [[np.atleast_1d(np.asarray(s, dtype=np.int64)) for s in g] for g in sibling_groups]
    if any(not 1 <= len(g) <= 2 for g in groups):
        raise ValueError("sibling groups must have one or two members")
    named = np.concatenate([r for g in groups for r in g] + [np.zeros(0, dtype=np.int64)])
    if named.size and (named.min() < 0 or named.max() >= noise.shape[0]):
        raise ValueError("sibling row index out of range")
    if np.unique(named).size != named.size:
        raise ValueError("sibling groups must be disjoint")
    for g in groups:
        if len(g) < 2:
            continue
        ri, rj = g
        if ri.shape != rj.shape:
            raise ValueError("sibling joint rows differ in length")
        zi, zj, xi, xj = noise[ri], noise[rj], targets[ri], targets[rj]
        keep = np.sum((zi - xi) ** 2) + np.sum((zj - xj) ** 2)
        swap = np.sum((zj - xi) ** 2) + np.sum((zi - xj) ** 2)
        if swap < keep:
            noise[ri], noise[rj] = zj, zi
    return noise


def _checked(pred: Mapping[str, np.ndarray], state: dict[str, np.ndarray], step: int) -> dict[str, np.ndarray]:
    """An endpoint prediction as float arrays, checked to cover every head
    of ``state`` with its shape and with finite values only."""
    if set(pred) != set(state):
        raise ValueError("endpoint prediction must cover every head")
    out = {}
    for name, arr in pred.items():
        arr = np.asarray(arr, dtype=np.float64)
        if arr.shape != state[name].shape:
            raise ValueError(f"head {name!r}: prediction shape changed")
        bad = ~np.isfinite(arr)
        if bad.any():
            raise ValueError(
                f"non-finite endpoint for head {name!r} at step {step} "
                f"({int(bad.sum())} entries)"
            )
        out[name] = arr
    return out


def integrate(
    endpoint_fn: Callable[[Mapping[str, np.ndarray], float], Mapping[str, np.ndarray]],
    initial: Mapping[str, np.ndarray],
    steps: int,
    project: Callable[[dict[str, np.ndarray]], dict[str, np.ndarray]] | None = None,
) -> dict[str, np.ndarray]:
    """Explicit Euler integration of the endpoint-parameterized flow.

    Uniform grid t_i = i / steps.  Every endpoint prediction is checked, then
    passed through ``project`` (e.g. pair-wise simplex projection of the
    split head) and checked again before use.  The final step assigns the
    predicted endpoint directly, avoiding the 1 / (1 - t) singularity; with
    steps = 1 the output is the first endpoint prediction.

    Raises:
        ValueError: on non-finite values, with the offending head and step,
            and for steps outside [1, 2 / TERMINAL_TIME_EPS), where a step
            before the last would come too close to t = 1.
    """
    if not 1 <= steps < 2 / TERMINAL_TIME_EPS:
        raise ValueError(f"steps must lie in [1, {2 / TERMINAL_TIME_EPS:.0f})")
    state = {k: np.array(v, dtype=np.float64) for k, v in initial.items()}
    dt = 1.0 / steps
    for i in range(steps):
        t = i / steps
        pred = _checked(endpoint_fn(state, t), state, i)
        if project is not None:
            pred = _checked(project(pred), state, i)
        for name, arr in pred.items():
            if i == steps - 1:
                state[name] = arr
            else:
                state[name] = state[name] + dt * endpoint_velocity(state[name], arr, t)
    return state
