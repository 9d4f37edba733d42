"""The engineered input matrix: the cost's factors, the flag and marker
columns, dual scratch space, and the auxiliary row that supplies the +1 in
every softmax denominator."""

import dataclasses

import numpy as np
import pytest

from otlab.problem import ProblemInstance, cost_factors, permutation_instance
from otlab.prompt import MARKER, ONE, U, V, HiddenState, build_prompt, read_dual, width

NAMED = [ONE, MARKER, U, V]


def test_layout_d1():
    # the factors of rank r = d + 2 fill the first 2r columns; the four named ones follow
    assert width(1) == 10
    cols = np.arange(width(1))
    assert list(cols[NAMED]) == [6, 7, 8, 9]


def test_layout_d2():
    assert width(2) == 12
    cols = np.arange(width(2))
    assert list(cols[NAMED]) == [8, 9, 10, 11]


def test_state_reads_n_and_d_from_its_matrix():
    assert [f.name for f in dataclasses.fields(HiddenState)] == ["Z"]
    one = HiddenState(Z=np.zeros((5, 12)))
    assert (one.n, one.d) == (4, 2)
    stacked = HiddenState(Z=np.zeros((3, 2, 7, 10)))
    assert (stacked.n, stacked.d) == (6, 1)
    # 1-D, one row (n = 0), odd width, even width below 10 (d = 0)
    for shape in ((10,), (1, 10), (5, 11), (5, 8)):
        with pytest.raises(ValueError, match=r"is not \(\.\.\., n\+1, 2d\+8\) with n, d >= 1"):
            HiddenState(Z=np.zeros(shape))


def test_build_prompt_single_point_exact():
    inst = ProblemInstance(x=[0.5], y=[0.25], lam=1.0)
    state = build_prompt(inst)
    expected = np.array(
        [
            # phi = (x, x^2, 1), psi = (-2y, 1, y^2), ONE, MARKER, U, V
            [0.5, 0.25, 1.0, -0.5, 1.0, 0.0625, 1.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0],
        ]
    )
    np.testing.assert_array_equal(state.Z, expected)


def test_build_prompt_rows_and_marker():
    inst = permutation_instance(5, 2)
    state = build_prompt(inst)
    assert state.Z.shape == (6, 10)
    np.testing.assert_array_equal(state.Z[:5, MARKER], 1.0)
    assert state.Z[5, MARKER] == -1.0 / 5.0
    # aux row is zero outside the marker column
    aux = state.Z[5].copy()
    aux[MARKER] = 0.0
    np.testing.assert_array_equal(aux, 0.0)


def test_build_prompt_squared_norms_d2():
    rng = np.random.default_rng(1)
    inst = ProblemInstance(x=rng.uniform(size=(4, 2)), y=rng.uniform(size=(4, 2)), lam=0.3)
    state = build_prompt(inst)
    # phi = (x, ||x||^2, 1) in columns 0..3, psi = (-2y, 1, ||y||^2) in 4..7
    np.testing.assert_allclose(state.Z[:4, 2], (inst.x**2).sum(axis=1), rtol=1e-15)
    np.testing.assert_allclose(state.Z[:4, 7], (inst.y**2).sum(axis=1), rtol=1e-15)
    np.testing.assert_array_equal(state.Z[:4, :2], inst.x)
    np.testing.assert_array_equal(state.Z[:4, 4:6], -2.0 * inst.y)
    np.testing.assert_array_equal(state.Z[:4, [3, 6, ONE]], 1.0)
    np.testing.assert_array_equal(state.Z[:4, :ONE], np.hstack(cost_factors(inst)))


def test_dual_scratch_starts_zero_and_round_trips():
    inst = permutation_instance(3, 0)
    state = build_prompt(inst)
    u0, v0 = read_dual(state)
    np.testing.assert_array_equal(u0, np.zeros(3))
    np.testing.assert_array_equal(v0, np.zeros(3))

    u, v = np.array([0.1, -0.2, 0.3]), np.array([-0.5, 0.0, 0.5])
    Z = state.Z.copy()
    Z[:3, U], Z[:3, V] = u, v
    ru, rv = read_dual(HiddenState(Z=Z))
    np.testing.assert_array_equal(ru, u)
    np.testing.assert_array_equal(rv, v)
    ru[0] = 9.0  # a copy: the state keeps its duals
    np.testing.assert_array_equal(read_dual(HiddenState(Z=Z))[0], u)


def test_state_is_immutable():
    state = build_prompt(permutation_instance(2, 0))
    with pytest.raises(ValueError):
        state.Z[0, 0] = 9.0
