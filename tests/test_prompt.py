"""The engineered input matrix: points, squared norms, flag columns, dual
scratch space, and the auxiliary row that supplies the +1 in every softmax
denominator."""

import dataclasses

import numpy as np
import pytest

from otlab.problem import ProblemInstance, permutation_instance
from otlab.prompt import (MARKER, ONE_A, ONE_B, ONE_C, SPARE, U, V, XSQ, YSQ, HiddenState, build_prompt, read_dual,
                          width, with_duals)

NAMED = [XSQ, YSQ, ONE_A, ONE_B, ONE_C, MARKER, U, V, SPARE]


def test_layout_d1():
    # x, y fill the first 2d columns; the nine named ones follow
    assert width(1) == 11
    cols = np.arange(width(1))
    assert list(cols[NAMED]) == [2, 3, 4, 5, 6, 7, 8, 9, 10]


def test_layout_d2():
    assert width(2) == 13
    cols = np.arange(width(2))
    assert list(cols[NAMED]) == [4, 5, 6, 7, 8, 9, 10, 11, 12]


def test_state_reads_n_and_d_from_its_matrix():
    assert [f.name for f in dataclasses.fields(HiddenState)] == ["Z"]
    one = HiddenState(Z=np.zeros((5, 13)))
    assert (one.n, one.d) == (4, 2)
    stacked = HiddenState(Z=np.zeros((3, 2, 7, 11)))
    assert (stacked.n, stacked.d) == (6, 1)
    # 1-D, one row (n = 0), even width, odd width below 11 (d = 0)
    for shape in ((11,), (1, 11), (5, 12), (5, 9)):
        with pytest.raises(ValueError, match=r"is not \(\.\.\., n\+1, 2d\+9\) with n, d >= 1"):
            HiddenState(Z=np.zeros(shape))


def test_build_prompt_single_point_exact():
    inst = ProblemInstance(x=[0.5], y=[0.25], lam=1.0)
    state = build_prompt(inst)
    expected = np.array(
        [
            [0.5, 0.25, 0.25, 0.0625, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0],
        ]
    )
    np.testing.assert_array_equal(state.Z, expected)


def test_build_prompt_rows_and_marker():
    inst = permutation_instance(5, 2)
    state = build_prompt(inst)
    assert state.Z.shape == (6, 11)
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
    np.testing.assert_allclose(state.Z[:4, XSQ], (inst.x**2).sum(axis=1), rtol=1e-15)
    np.testing.assert_allclose(state.Z[:4, YSQ], (inst.y**2).sum(axis=1), rtol=1e-15)
    np.testing.assert_array_equal(state.Z[:4, :2], inst.x)
    np.testing.assert_array_equal(state.Z[:4, 2:4], inst.y)


def test_dual_scratch_starts_zero_and_round_trips():
    inst = permutation_instance(3, 0)
    state = build_prompt(inst)
    u0, v0 = read_dual(state)
    np.testing.assert_array_equal(u0, np.zeros(3))
    np.testing.assert_array_equal(v0, np.zeros(3))

    u, v = np.array([0.1, -0.2, 0.3]), np.array([-0.5, 0.0, 0.5])
    state2 = with_duals(state, u, v)
    ru, rv = read_dual(state2)
    np.testing.assert_array_equal(ru, u)
    np.testing.assert_array_equal(rv, v)
    # original untouched
    np.testing.assert_array_equal(read_dual(state)[0], np.zeros(3))


def test_state_is_immutable():
    state = build_prompt(permutation_instance(2, 0))
    with pytest.raises(ValueError):
        state.Z[0, 0] = 9.0


def test_with_duals_rejects_wrong_length():
    state = build_prompt(permutation_instance(3, 0))
    with pytest.raises(ValueError):
        with_duals(state, np.zeros(2), np.zeros(3))
