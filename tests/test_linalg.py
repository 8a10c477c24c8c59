import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcmselect.data import Dataset, gram_stack
from pcmselect.errors import ConstantColumn
from pcmselect.linalg import pseudo_inverse, standardize

from oracles import brute_force_cross_products, penrose_violation


class TestStandardize:
    def test_hand_computed_column(self):
        out = standardize(np.array([[1.0], [2.0], [3.0]]))
        root = math.sqrt(1.5)
        np.testing.assert_allclose(out[:, 0], [-root, 0.0, root], atol=1e-12)

    def test_idempotent_on_standardized_data(self):
        rng = np.random.default_rng(0)
        raw = rng.standard_normal((40, 3))
        once = standardize(raw)
        twice = standardize(once)
        np.testing.assert_allclose(twice, once, atol=1e-12)

    def test_constant_column_rejected(self):
        with pytest.raises(ConstantColumn):
            standardize(np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]), names=["c", "ok"])

    def test_moments_and_round_trip(self):
        rng = np.random.default_rng(1)
        raw = rng.standard_normal((30, 4)) * 3.0 + 7.0
        out = standardize(raw)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-12)
        np.testing.assert_allclose(out * raw.std(axis=0) + raw.mean(axis=0), raw, atol=1e-12)


class TestPseudoInverse:
    def test_identity(self):
        np.testing.assert_allclose(pseudo_inverse(np.eye(3)), np.eye(3), atol=1e-12)

    def test_zero_matrix(self):
        np.testing.assert_allclose(pseudo_inverse(np.zeros((2, 3))), np.zeros((3, 2)))

    def test_rank_one_example(self):
        m = np.ones((2, 2))
        out = pseudo_inverse(m)
        np.testing.assert_allclose(out, np.full((2, 2), 0.25), atol=1e-12)
        assert penrose_violation(m, out) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_penrose_conditions_random(self, seed):
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(1, 21))
        cols = int(rng.integers(1, 21))
        m = rng.standard_normal((rows, cols))
        if rng.random() < 0.3 and min(rows, cols) > 1:  # force rank deficiency
            m[:, -1] = m[:, 0]
        assert penrose_violation(m, pseudo_inverse(m)) < 1e-8


def gram(m) -> np.ndarray:
    """:attr:`Dataset.gram` of a matrix with placeholder column names."""
    m = np.asarray(m, dtype=float).reshape(len(m), -1)
    return Dataset(m, tuple(f"c{j}" for j in range(m.shape[1]))).gram


class TestGram:
    def test_orthonormal_columns(self):
        q, _ = np.linalg.qr(np.random.default_rng(8).standard_normal((6, 3)))
        np.testing.assert_allclose(gram(q), np.eye(3), atol=1e-12)

    def test_single_column(self):
        v = np.array([1.0, 2.0, 2.0])
        assert gram(v)[0, 0] == pytest.approx(9.0)

    def test_matches_double_loop(self):
        rng = np.random.default_rng(9)
        m = rng.standard_normal((4, 2))
        np.testing.assert_allclose(gram(m), brute_force_cross_products(m, [0, 1], [0, 1]))


class TestGramStack:
    @staticmethod
    def datasets(count, columns=7):
        rng = np.random.default_rng(10)
        names = tuple(f"c{j}" for j in range(columns))
        return [Dataset(rng.standard_normal((9, columns)), names).standardized()
                for _ in range(count)]

    def assert_cross_stack(self, datasets, names):
        stack = gram_stack(datasets, names)
        expected = np.array([data.cross(cols, cols) for data, cols in zip(datasets, names)])
        assert stack.flags["C_CONTIGUOUS"] and stack.shape == expected.shape
        assert stack.tobytes() == expected.tobytes()
        for block, data, cols in zip(stack, datasets, names):
            assert block.flags["C_CONTIGUOUS"] and np.array_equal(block, data.cross(cols, cols))

    def test_shared_names_equal_a_stack_of_cross_blocks(self):
        datasets = self.datasets(4)
        self.assert_cross_stack(datasets, [["c3", "c0", "c6", "c1"]] * 4)
        self.assert_cross_stack(datasets[:1], [["c5"]])

    def test_names_per_dataset_equal_a_stack_of_cross_blocks(self):
        datasets = self.datasets(3)
        self.assert_cross_stack(datasets, [["c1", "c2"], ["c6", "c0"], ["c4", "c4"]])

    def test_groups_of_columns_and_names_equal_a_stack_of_cross_blocks(self):
        # two column orders, each shared by some datasets
        rng = np.random.default_rng(11)
        order = ("c4", "c2", "c6", "c0", "c1", "c3", "c5")
        reordered = [Dataset(rng.standard_normal((9, 7)), order).standardized()
                     for _ in range(2)]
        first = self.datasets(3)
        datasets = [first[0], reordered[0], first[1], reordered[1], first[2]]
        shared = ["c3", "c0", "c6"]
        self.assert_cross_stack(datasets, [shared] * 5)
        self.assert_cross_stack(datasets, [shared, shared, ["c1", "c2", "c2"], shared, shared])
        self.assert_cross_stack(reordered, [shared] * 2)
        self.assert_cross_stack(datasets, [[]] * 5)

    def test_empty_input(self):
        stack = gram_stack([], [])
        assert stack.shape == (0,) and stack.dtype == np.float64
