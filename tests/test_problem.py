import numpy as np
import pytest

from otlab.problem import (
    ProblemInstance,
    cost_factors,
    cost_matrix,
    permutation_instance,
    seeded_instance,
    seeded_permutation,
    sorting_instance,
    uniform_instance,
)


def test_cost_matrix_squared_distances():
    inst = ProblemInstance(x=[0.25, 0.5], y=[0.5, 0.25], lam=1.0)
    np.testing.assert_allclose(cost_matrix(inst), [[0.0625, 0.0], [0.0, 0.0625]])


def test_cost_matrix_zero_iff_points_coincide():
    inst = ProblemInstance(x=[[0.1, 0.2], [0.3, 0.4]], y=[[0.3, 0.4], [0.1, 0.2]], lam=0.5)
    C = cost_matrix(inst)
    assert C[0, 1] == 0.0 and C[1, 0] == 0.0
    assert C[0, 0] > 0.0 and C[1, 1] > 0.0


def test_cost_matrix_matches_loop():
    rng = np.random.default_rng(3)
    x, y = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
    inst = ProblemInstance(x=x, y=y, lam=0.7)
    expected = [[np.sum((xi - yj) ** 2) for yj in y] for xi in x]
    np.testing.assert_allclose(cost_matrix(inst), expected, rtol=1e-14)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_cost_factors_are_exact_on_integer_points(d):
    rng = np.random.default_rng(d)
    x, y = rng.integers(-5, 6, (4, d)), rng.integers(-5, 6, (4, d))
    inst = ProblemInstance(x=x, y=y, lam=1.0)
    Phi, Psi = cost_factors(inst)
    x_sq, y_sq = (x**2).sum(axis=1), (y**2).sum(axis=1)
    np.testing.assert_array_equal(Phi, np.column_stack([x, x_sq, np.ones(4)]))
    np.testing.assert_array_equal(Psi, np.column_stack([-2 * y, np.ones(4), y_sq]))
    # every product and sum is an exactly representable integer
    np.testing.assert_array_equal(Phi @ Psi.T, cost_matrix(inst))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_cost_factors_match_cost_matrix_within_rounding(d):
    rng = np.random.default_rng(10 + d)
    inst = ProblemInstance(x=rng.normal(0, 3, (7, d)), y=rng.normal(0, 3, (7, d)), lam=0.5)
    Phi, Psi = cost_factors(inst)
    # the expanded form rounds each of its terms, all bounded by ||x_i||^2 + ||y_j||^2
    scale = (inst.x**2).sum(axis=1)[:, None] + (inst.y**2).sum(axis=1)[None, :]
    assert (np.abs(Phi @ Psi.T - cost_matrix(inst)) <= 4 * (d + 2) * np.finfo(float).eps * scale).all()


def test_instance_shape_properties():
    inst = ProblemInstance(x=[[0.0, 1.0]], y=[[1.0, 0.0]], lam=0.1)
    assert (inst.n, inst.d) == (1, 2)
    inst = ProblemInstance(x=[0.0, 0.5, 1.0], y=[1.0, 0.5, 0.0], lam=0.1)
    assert (inst.n, inst.d) == (3, 1)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(x=[0.0, 1.0], y=[0.0], lam=1.0),  # count mismatch
        dict(x=[[0.0]], y=[[0.0, 1.0]], lam=1.0),  # dim mismatch
        dict(x=[0.0], y=[np.nan], lam=1.0),
        dict(x=[0.0], y=[0.0], lam=0.0),
        dict(x=[0.0], y=[0.0], lam=-1.0),
        dict(x=[], y=[], lam=1.0),
    ],
)
def test_instance_rejects_bad_input(kwargs):
    with pytest.raises(ValueError):
        ProblemInstance(**kwargs)


def test_instance_arrays_are_frozen():
    inst = ProblemInstance(x=[0.0], y=[1.0], lam=1.0)
    with pytest.raises(ValueError):
        inst.x[0] = 2.0


def test_instance_leaves_the_callers_arrays_writable():
    a = np.zeros((3, 1))
    inst = ProblemInstance(x=a, y=a, lam=1.0)
    a[0, 0] = 5.0  # must not raise "assignment destination is read-only"
    assert inst.x[0, 0] == inst.y[0, 0] == 0.0


def test_seeded_permutation_is_permutation_and_deterministic():
    for n in (1, 2, 5, 16):
        for seed in (0, 1, 123456789):
            p = seeded_permutation(n, seed)
            assert sorted(p) == list(range(n))
            assert p == seeded_permutation(n, seed)


def test_seeded_permutation_frozen_values():
    # pinned so instances reproduce across machines and implementations
    assert seeded_permutation(4, 0) == [2, 1, 0, 3]
    assert seeded_permutation(4, 1) == [2, 0, 3, 1]
    assert seeded_permutation(8, 0) == [2, 5, 0, 3, 4, 6, 1, 7]


def test_seeded_permutation_varies_with_seed():
    seen = {tuple(seeded_permutation(6, s)) for s in range(40)}
    assert len(seen) > 20


def test_permutation_instance_layout():
    inst = permutation_instance(4, 0)
    grid = np.array([0.25, 0.5, 0.75, 1.0])
    np.testing.assert_array_equal(inst.y.ravel(), grid)
    np.testing.assert_array_equal(np.sort(inst.x.ravel()), grid)
    np.testing.assert_array_equal(inst.x.ravel(), grid[[2, 1, 0, 3]])
    assert inst.lam == 0.005 and inst.d == 1


def test_permutation_instance_keeps_the_bits_of_its_own_grid():
    # the construction permutation_instance had before sorting_instance built it
    for n in range(1, 65):
        grid = (1.0 + np.arange(n)) / n
        for seed in range(5):
            inst = permutation_instance(n, seed, 0.05)
            want_x = grid[seeded_permutation(n, seed)]
            assert inst.x.tobytes() == want_x[:, None].tobytes() and inst.y.tobytes() == grid[:, None].tobytes()
            assert inst.x.shape == inst.y.shape == (n, 1) and inst.lam == 0.05


@pytest.mark.parametrize(
    "make",
    [
        lambda n: permutation_instance(n, 0, 1.0),  # True built a 1-point instance
        lambda n: uniform_instance(np.random.default_rng(0), n, 2, 1.0),  # 0 named the internal (0, 2) arrays
        lambda n: seeded_instance(n, 1, 0, 1.0),
        lambda n: seeded_instance(n, 2, 0, 1.0),
    ],
    ids=["permutation", "uniform", "seeded-d1", "seeded-d2"],
)
@pytest.mark.parametrize("n", [0, -1, True, 2.0])
def test_instance_makers_refuse_n_through_one_gate(make, n):
    with pytest.raises(ValueError) as err:
        make(n)
    assert str(err.value) == f"n must be an integer >= 1, got {n!r}"


@pytest.mark.parametrize(
    "make",
    [
        lambda d: uniform_instance(np.random.default_rng(0), 4, d, 1.0),
        # True built a d = 1 permutation instance, 1.5 raised numpy's TypeError
        lambda d: seeded_instance(4, d, 0, 1.0),
    ],
    ids=["uniform", "seeded"],
)
@pytest.mark.parametrize("d", [0, -1, 1.5, True])
def test_instance_makers_refuse_d_through_one_gate(make, d):
    with pytest.raises(ValueError) as err:
        make(d)
    assert str(err.value) == f"d must be an integer >= 1, got {d!r}"


_SEED_MAKERS = pytest.mark.parametrize(
    "make",
    [
        lambda seed: seeded_permutation(4, seed),
        # -1 was masked to the instance of seed 2**64 - 1
        lambda seed: permutation_instance(4, seed, 1.0),
        lambda seed: seeded_instance(4, 1, seed, 1.0),
        lambda seed: seeded_instance(4, 2, seed, 1.0),
    ],
    ids=["permutation", "permutation-instance", "seeded-d1", "seeded-d2"],
)


@_SEED_MAKERS
@pytest.mark.parametrize("seed", [-1, True])
def test_instance_makers_refuse_seed_through_one_gate(make, seed):
    with pytest.raises(ValueError) as err:
        make(seed)
    assert str(err.value) == f"seed must be an integer >= 0, got {seed!r}"


@_SEED_MAKERS
def test_one_seed_range_at_every_d(make):
    # SplitMix64 masked its seed, so seeded_permutation(6, 2**64) was seed 0's shuffle; d = 2 took any size
    make(2**64 - 1)
    with pytest.raises(ValueError) as err:
        make(2**64)
    assert str(err.value) == "seed must be below 2**64, got 18446744073709551616"
    with pytest.raises(ValueError, match=r"^seed must be below 2\*\*64"):
        seeded_permutation(6, 2**64)


def test_sorting_instance_targets_sorted_grid():
    inst = sorting_instance([0.5, 0.75, 0.25, 0.0], lam=0.01)
    np.testing.assert_array_equal(inst.x.ravel(), [0.5, 0.75, 0.25, 0.0])
    np.testing.assert_array_equal(inst.y.ravel(), np.sort(inst.y.ravel()))
    assert inst.lam == 0.01


def test_uniform_instance_draws_x_then_y():
    # pinned: verify's d = 2 instances and the CLI's `--d` > 1 instances draw these bits
    inst = uniform_instance(np.random.default_rng(7), 3, 2, 0.5)
    rng = np.random.default_rng(7)
    np.testing.assert_array_equal(inst.x, rng.uniform(0, 1, (3, 2)))
    np.testing.assert_array_equal(inst.y, rng.uniform(0, 1, (3, 2)))
    assert (inst.n, inst.d, inst.lam) == (3, 2, 0.5)
