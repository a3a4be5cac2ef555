from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperforge.flow as flow
from hyperforge.flow import (
    endpoint_velocity,
    integrate,
    interpolate,
    ot_couple,
    project_split_groups,
    sample_prior,
    simplex_project,
)
from hyperforge.expansion import sibling_pairs


def dykstra_simplex(z, iters=2000):
    """Independent oracle: alternating projections with Dykstra corrections
    onto {x : sum x = 1} and {x : x >= 0}."""
    z = np.asarray(z, dtype=np.float64)
    x = z.copy()
    p = np.zeros_like(z)
    q = np.zeros_like(z)
    for _ in range(iters):
        y = x + p
        y = y - (y.sum() - 1.0) / y.size
        p = x + p - y
        x = np.maximum(y + q, 0.0)
        q = y + q - x
    return x


def test_interpolate_endpoints():
    x0 = np.array([0.0]); x1 = np.array([2.0])
    assert interpolate(x0, x1, 0.0)[0] == 0.0
    assert interpolate(x0, x1, 1.0)[0] == 2.0
    assert interpolate(x0, x1, 0.5)[0] == 1.0


def test_endpoint_velocity_values():
    assert endpoint_velocity(np.array([0.0]), np.array([1.0]), 0.0)[0] == pytest.approx(1.0)
    assert endpoint_velocity(np.array([0.5]), np.array([1.0]), 0.5)[0] == pytest.approx(1.0)
    x = np.array([0.3, -0.7])
    for t in (0.0, 0.25, 0.9):
        assert np.all(endpoint_velocity(x, x, t) == 0.0)


def test_endpoint_velocity_singular_near_one():
    with pytest.raises(ValueError):
        endpoint_velocity(np.array([0.0]), np.array([1.0]), 1.0)
    with pytest.raises(ValueError):
        endpoint_velocity(np.array([0.0]), np.array([1.0]), 1.0 - 1e-9)


def test_prior_dirichlet_singleton_is_one():
    rng = np.random.default_rng(2)
    state = rng.bit_generator.state
    out = sample_prior((3,), rng, pairs=np.zeros((0, 2), dtype=np.int64))
    assert out.tolist() == [1.0, 1.0, 1.0]
    # only children draw nothing
    assert rng.bit_generator.state == state
    with pytest.raises(ValueError, match="flat per-child vector"):
        sample_prior((3, 1), rng, pairs=np.zeros((0, 2), dtype=np.int64))


def test_prior_dirichlet_groups_sum_to_one_in_unit_space():
    pairs = sibling_pairs(np.array([0, 0, 1, 2, 2]))
    assert pairs.tolist() == [[0, 1], [3, 4]]
    out = sample_prior((5,), np.random.default_rng(3), pairs=pairs)
    unit = (out + 1.0) / 2.0
    assert out[2] == 1.0
    for g in pairs:
        assert np.sum(unit[g]) == pytest.approx(1.0)
        assert np.all(unit[g] >= 0.0)


def reference_sample_prior(alpha, size, rng, groups):
    """The per-group Dirichlet loop that one batched draw replaced, kept as
    the oracle."""
    out = np.empty(size, dtype=np.float64)
    for g in groups:
        if len(g) == 1:
            out[g[0]] = 1.0
        else:
            draw = rng.dirichlet([alpha] * len(g))
            for slot, val in zip(g, draw):
                out[slot] = 2.0 * val - 1.0
    return out


@settings(max_examples=200, deadline=None)
@given(
    counts=st.lists(st.integers(1, 2), max_size=40),
    alpha=st.sampled_from([0.05, 0.5, 1.0, 1.5, 4.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_prior_dirichlet_pairs_match_sequential_draws(counts, alpha, seed):
    """One draw for all P pairs is bit-equal to P draws in pair order and
    leaves the generator in the same state."""
    cluster_map = np.repeat(np.arange(len(counts)), counts)
    offsets = np.cumsum([0] + counts)
    groups = [list(range(a, b)) for a, b in zip(offsets[:-1], offsets[1:])]
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    with mock.patch.object(flow, "SPLIT_DIRICHLET_ALPHA", alpha):
        out = sample_prior((cluster_map.size,), rng, pairs=sibling_pairs(cluster_map))
    expected = reference_sample_prior(alpha, cluster_map.size, ref_rng, groups)
    assert out.tobytes() == expected.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_prior_gaussian_moments():
    draws = sample_prior((100_000,), np.random.default_rng(4))
    # standard errors: mean ~ 1/sqrt(n), var ~ sqrt(2/n)
    assert abs(draws.mean()) < 3.0 / np.sqrt(draws.size)
    assert abs(draws.var() - 1.0) < 3.0 * np.sqrt(2.0 / draws.size)


def test_simplex_project_worked_example():
    out = simplex_project(np.array([1.2, 0.1]))
    assert np.allclose(out, [1.0, 0.0], atol=1e-12)


def test_simplex_project_interior_point_fixed():
    z = np.array([0.2, 0.3, 0.5])
    assert np.allclose(simplex_project(z), z, atol=1e-12)


def test_simplex_project_matches_dykstra():
    rng = np.random.default_rng(5)
    for _ in range(200):
        dim = int(rng.integers(2, 7))
        z = rng.normal(scale=2.0, size=dim)
        ours = simplex_project(z)
        oracle = dykstra_simplex(z)
        assert np.max(np.abs(ours - oracle)) < 1e-8
        assert abs(ours.sum() - 1.0) < 1e-12
        assert np.all(ours >= 0.0)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-50, max_value=50, allow_nan=False),
        min_size=1,
        max_size=8,
    )
)
def test_simplex_project_properties(raw):
    out = simplex_project(np.asarray(raw))
    assert abs(out.sum() - 1.0) < 1e-9
    assert np.all(out >= 0.0)


def test_projections_reject_empty_and_nonfinite():
    for z in ([], [np.nan, 0.5], [np.inf, 0.2], [-np.inf, 0.1, 0.3]):
        with pytest.raises(ValueError, match="finite"):
            simplex_project(np.array(z))
    with pytest.raises(ValueError, match="finite"):
        project_split_groups(np.array([np.nan, 0.5]), np.array([[0, 1]]))


def test_simplex_project_survives_rounding_at_huge_values():
    """Past 2**53 the first threshold test rounds to 0 > 0; the projection
    is still the exact one."""
    assert simplex_project(np.array([1e300, 0.5])).tolist() == [1.0, 0.0]
    assert simplex_project(np.array([-1e300, -1e300])).tolist() == [0.5, 0.5]
    assert simplex_project(np.array([1e300, -1e300, 1e300])).tolist() == [0.5, 0.0, 0.5]


def test_project_split_groups_per_group():
    values = np.array([3.0, -3.0, 0.4, 10.0])
    pairs = sibling_pairs(np.array([0, 0, 1, 2]))
    assert pairs.tolist() == [[0, 1]]
    out = project_split_groups(values, pairs)
    unit = (out + 1.0) / 2.0
    assert np.sum(unit[[0, 1]]) == pytest.approx(1.0)
    # singletons pin to exactly one
    assert out[2] == 1.0 and out[3] == 1.0


_SPLIT_VALUES = st.one_of(
    st.sampled_from([-1.0, 0.0, 0.5, 1.0, 1e300, -1e300]),
    st.floats(min_value=-1e300, max_value=1e300, allow_nan=False),
    st.floats(min_value=-40.0, max_value=40.0, allow_nan=False),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(st.booleans(), _SPLIT_VALUES, _SPLIT_VALUES), min_size=1, max_size=12))
def test_project_split_groups_matches_simplex_project(blocks):
    """All pairs at once give bit for bit what simplex_project gives on each
    pair, and every only child exactly 1.  Blocks are laid out like an
    expanded level's sibling blocks: a pair or an only child, in order."""
    groups, values = [], []
    for paired, a, b in blocks:
        groups.append(list(range(len(values), len(values) + 1 + paired)))
        values.extend([a, b] if paired else [a])
    values = np.array(values)
    cluster_map = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
    out = project_split_groups(values, sibling_pairs(cluster_map))
    for g in groups:
        if len(g) == 1:
            assert out[g[0]] == 1.0
        else:
            expected = 2.0 * simplex_project((values[g] + 1.0) / 2.0) - 1.0
            assert out[g].tobytes() == expected.tobytes()


def test_ot_couple_singleton_unchanged():
    noise = np.array([[0.7], [0.1]])
    targets = np.array([[1.0], [0.0]])
    out = ot_couple(noise, targets, [[0], [1]])
    assert np.array_equal(out, noise)


def test_ot_couple_swaps_when_cheaper():
    noise = np.array([[0.0], [1.0]])
    targets = np.array([[1.0], [0.0]])
    out = ot_couple(noise, targets, [[0, 1]])
    # swap cost 0 beats keep cost 2
    assert out[:, 0].tolist() == [1.0, 0.0]


def test_ot_couple_keeps_order_on_ties():
    noise = np.array([[0.0], [1.0]])
    targets = np.array([[0.5], [0.5]])
    out = ot_couple(noise, targets, [[0, 1]])
    assert out[:, 0].tolist() == [0.0, 1.0]


def test_ot_couple_rejects_large_groups():
    noise = np.zeros((3, 1))
    targets = np.zeros((3, 1))
    with pytest.raises(ValueError):
        ot_couple(noise, targets, [[0, 1, 2]])
    # siblings must be disjoint, in range and of one joint-row length
    for groups in ([[0, 1], [1, 2]], [[0, 3]], [[[0, 1], [2]]]):
        with pytest.raises(ValueError):
            ot_couple(noise, targets, groups)


def test_ot_couple_swaps_joint_rows():
    """Index-array siblings swap all the entries they name, in order, and
    leave entries no sibling names alone."""
    noise = np.array([0.0, 1.0, 2.0, 3.0, 9.0])
    targets = np.array([2.0, 3.0, 0.0, 1.0, 0.0])
    out = ot_couple(noise, targets, [[[0, 1], [2, 3]]])
    assert out.tolist() == [2.0, 3.0, 0.0, 1.0, 9.0]
    # the joint cost decides: entry 3 alone would prefer to stay
    targets = np.array([1.0, 0.0, 3.0, 2.9])
    out = ot_couple(noise[:4], targets, [[[0, 3], [1, 2]]])
    assert out.tolist() == [1.0, 0.0, 3.0, 2.0]


def test_ot_couple_preserves_multiset():
    rng = np.random.default_rng(6)
    noise = rng.normal(size=(6, 2))
    targets = rng.normal(size=(6, 2))
    groups = [[0, 1], [2, 3], [4], [5]]
    out = ot_couple(noise, targets, groups)
    for g in groups:
        assert np.allclose(
            np.sort(out[g], axis=0), np.sort(noise[g], axis=0)
        )


def test_integrate_single_step_returns_endpoint():
    x1 = {"a": np.array([2.0, -1.0])}

    def endpoint(state, t):
        return x1

    out = integrate(endpoint, {"a": np.zeros(2)}, steps=1)
    assert np.array_equal(out["a"], x1["a"])


def test_integrate_linear_flow_step_invariant():
    """With a constant endpoint prediction the exact solution is the endpoint;
    any step count reproduces it to rounding."""
    rng = np.random.default_rng(7)
    x0 = {"a": rng.normal(size=(4, 2))}
    x1 = rng.normal(size=(4, 2))

    def endpoint(state, t):
        return {"a": x1}

    out25 = integrate(endpoint, x0, steps=25)
    out100 = integrate(endpoint, x0, steps=100)
    assert np.max(np.abs(out25["a"] - x1)) < 1e-12
    assert np.max(np.abs(out25["a"] - out100["a"])) < 1e-12


def test_integrate_applies_projection_each_step():
    """A projection composed into the endpoint function runs once per step
    and shapes every endpoint the flow steps towards."""
    seen_sums = []

    def endpoint(state, t):
        return {"a": np.array([0.8, 0.8])}

    def projected(state, t):
        preds = endpoint(state, t)
        seen_sums.append(float(np.sum(preds["a"])))
        return {"a": simplex_project(preds["a"])}

    out = integrate(projected, {"a": np.array([0.5, 0.5])}, steps=4)
    assert len(seen_sums) == 4
    assert abs(out["a"].sum() - 1.0) < 1e-12


def test_integrate_rejects_nonfinite():
    def endpoint(state, t):
        return {"a": np.array([np.nan])}

    with pytest.raises(ValueError, match="a"):
        integrate(endpoint, {"a": np.zeros(1)}, steps=3)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_integrate_names_nonfinite_head_and_step(bad):
    """A non-finite prediction from an endpoint function that projects its
    split head is reported by head and step, once the projection has run
    for that step."""
    pairs = np.array([[0, 1]])
    projected_steps = []

    def endpoint(state, t):
        return {"left_split": np.array([0.3, 0.5]), "edge_keep": np.array([bad if t > 0 else 0.0])}

    def projected(state, t):
        preds = endpoint(state, t)
        projected_steps.append(t)
        return {**preds, "left_split": project_split_groups(preds["left_split"], pairs)}

    initial = {"left_split": np.zeros(2), "edge_keep": np.zeros(1)}
    with pytest.raises(ValueError, match="non-finite endpoint for head 'edge_keep' at step 1"):
        integrate(projected, initial, steps=3)
    assert len(projected_steps) == 2


def test_integrate_rejects_step_counts_before_any_prediction():
    """Past 2e5 steps a step before the last lies within TERMINAL_TIME_EPS of
    t = 1, where the velocity is singular; the count is refused up front."""

    def endpoint(state, t):
        raise AssertionError("no prediction may run")

    for steps in (0, 200_000):
        with pytest.raises(ValueError, match="steps"):
            integrate(endpoint, {"a": np.zeros(1)}, steps=steps)
