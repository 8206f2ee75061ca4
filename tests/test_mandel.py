import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from platefft.mandel import (
    SQRT2,
    SingularTensorError,
    StiffTensor4,
    SymTensor2,
    identity_vector,
    mandel_to_stiff,
    mandel_to_sym,
    stiff_to_mandel,
    sym_to_mandel,
    trace_dyad,
)


def random_dense_sym2(rng):
    a = rng.standard_normal((2, 2))
    return 0.5 * (a + a.T)


def random_dense_stiff(rng):
    """Random fourth-order tensor with minor and major symmetries."""
    a = rng.standard_normal((2, 2, 2, 2))
    a = a + a.transpose(1, 0, 2, 3)
    a = a + a.transpose(0, 1, 3, 2)
    a = a + a.transpose(2, 3, 0, 1)
    return a


def dense_contract(c4, e):
    return np.einsum("ijkl,kl->ij", c4, e)


# Entries from 1e-150 to 1e150 in magnitude, of either sign, and exact zeros.
entries = st.one_of(
    st.just(0.0),
    st.builds(
        lambda sign, mantissa, exponent: sign * mantissa * 10.0**exponent,
        st.sampled_from([-1.0, 1.0]),
        st.floats(1.0, 10.0, exclude_max=True),
        st.integers(-150, 149),
    ),
)


@st.composite
def sym_matrices(draw):
    """Symmetric 2x2 matrices."""
    a, b, c = draw(st.tuples(entries, entries, entries))
    return np.array([[a, c], [c, b]])


@st.composite
def stiff_tensors(draw):
    """(2,2,2,2) tensors with minor and major symmetries: one value per pair of index pairs."""
    upper = draw(st.lists(entries, min_size=6, max_size=6))
    table = np.zeros((3, 3))
    table[np.triu_indices(3)] = upper
    table = table + np.triu(table, 1).T
    pair = np.array([[0, 2], [2, 1]])  # index pair (i, j) -> 11, 22 or 12
    return table[pair[:, :, None, None], pair[None, None, :, :]]


# one rounding in the sqrt(2) scaling and one in its removal
ROUND_TRIP_RTOL = 5e-16


class TestRoundTrips:
    @settings(deadline=None, derandomize=True)
    @given(sym_matrices())
    def test_sym_round_trip(self, mat):
        vec = sym_to_mandel(mat)
        assert vec[0] == mat[0, 0] and vec[1] == mat[1, 1]
        back = mandel_to_sym(vec)
        np.testing.assert_array_equal(back, back.T)
        np.testing.assert_allclose(back, mat, rtol=ROUND_TRIP_RTOL, atol=0)
        np.testing.assert_allclose(sym_to_mandel(back), vec, rtol=ROUND_TRIP_RTOL, atol=0)

    @settings(deadline=None, derandomize=True)
    @given(stiff_tensors())
    def test_stiff_round_trip(self, dense):
        mat = stiff_to_mandel(dense)
        np.testing.assert_array_equal(mat, mat.T)
        np.testing.assert_allclose(mandel_to_stiff(mat), dense, rtol=ROUND_TRIP_RTOL, atol=0)

    def test_inner_product_equals_double_contraction(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            a = random_dense_sym2(rng)
            b = random_dense_sym2(rng)
            mandel = float(sym_to_mandel(a) @ sym_to_mandel(b))
            dense = float((a * b).sum())
            assert abs(mandel - dense) <= 1e-13 * max(1.0, abs(dense))


class TestDoubleContract:
    def test_identity(self):
        rng = np.random.default_rng(1)
        c = StiffTensor4.identity()
        for _ in range(5):
            e = SymTensor2(rng.standard_normal(3))
            np.testing.assert_array_equal(c.apply(e).mandel, e.mandel)

    def test_trace_reference_on_identity_matrix(self):
        # xi -> Tr(xi) I with Tr(diag(1,1)) = 2
        c = StiffTensor4(trace_dyad())
        e = SymTensor2(sym_to_mandel(np.eye(2)))
        out = mandel_to_sym(c.apply(e).mandel)
        np.testing.assert_allclose(out, 2.0 * np.eye(2), rtol=0, atol=1e-15)

    def test_matches_dense_four_index_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            dense = random_dense_stiff(rng)
            c = StiffTensor4(stiff_to_mandel(dense))
            e_mat = random_dense_sym2(rng)
            got = mandel_to_sym(c.apply(SymTensor2(sym_to_mandel(e_mat))).mandel)
            want = dense_contract(dense, e_mat)
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)

    def test_quadratic_form_matches_dense(self):
        rng = np.random.default_rng(43)
        for _ in range(25):
            dense = random_dense_stiff(rng)
            c = StiffTensor4(stiff_to_mandel(dense))
            e_mat = random_dense_sym2(rng)
            e = SymTensor2(sym_to_mandel(e_mat))
            got = float(e.mandel @ c.apply(e).mandel)
            want = float(np.einsum("ij,ijkl,kl->", e_mat, dense, e_mat))
            assert abs(got - want) <= 1e-13 * max(1.0, abs(want))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SymTensor2(np.zeros(6))


class TestEigenvalues:
    def test_identity(self):
        np.testing.assert_array_equal(StiffTensor4.identity().eigenvalues(), [1, 1, 1])

    def test_trace_reference(self):
        # Mandel matrix [[1,1,0],[1,1,0],[0,0,0]]: eigenvalues 0, 0, 2
        c = StiffTensor4(trace_dyad())
        np.testing.assert_allclose(c.eigenvalues(), [0.0, 0.0, 2.0], atol=1e-14)

    def test_diagonal(self):
        c = StiffTensor4(np.diag([2.0, 3.0, 5.0]))
        np.testing.assert_allclose(c.eigenvalues(), [2.0, 3.0, 5.0], atol=1e-14)

    def test_ascending_and_reconstruction(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = rng.standard_normal((3, 3))
            c = StiffTensor4(m + m.T)
            eig = c.eigenvalues()
            assert np.all(np.diff(eig) >= 0)
            w, q = np.linalg.eigh(c.mandel_matrix)
            np.testing.assert_allclose(
                q @ np.diag(w) @ q.T, c.mandel_matrix, rtol=1e-12, atol=1e-12
            )


class TestInvert:
    def test_identity(self):
        inv = StiffTensor4.identity().inverse()
        np.testing.assert_allclose(inv.mandel_matrix, np.eye(3), atol=1e-15)

    def test_diagonal(self):
        inv = StiffTensor4(np.diag([2.0, 4.0, 8.0])).inverse()
        np.testing.assert_allclose(inv.mandel_matrix, np.diag([0.5, 0.25, 0.125]), atol=1e-15)

    def test_trace_reference_singular(self):
        with pytest.raises(SingularTensorError):
            StiffTensor4(trace_dyad()).inverse()

    def test_inverse_composes_to_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            m = rng.standard_normal((3, 3))
            c = StiffTensor4(m @ m.T + 0.5 * np.eye(3))  # positive definite
            prod = c.inverse().mandel_matrix @ c.mandel_matrix
            np.testing.assert_allclose(prod, np.eye(3), rtol=0, atol=1e-10)

    def test_eigenvalues_of_inverse_are_reciprocals(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            m = rng.standard_normal((3, 3))
            c = StiffTensor4(m @ m.T + 0.3 * np.eye(3))
            got = c.inverse().eigenvalues()
            want = np.sort(1.0 / c.eigenvalues())
            np.testing.assert_allclose(got, want, rtol=1e-10)


class TestOperatorNorm:
    def test_mandel_preserves_operator_norm(self):
        # max ||C:e|| / ||e|| agrees between the dense and Mandel pictures
        rng = np.random.default_rng(19)
        dense = random_dense_stiff(rng)
        c = StiffTensor4(stiff_to_mandel(dense))
        best_dense = 0.0
        best_mandel = 0.0
        for _ in range(300):
            e_mat = random_dense_sym2(rng)
            out = dense_contract(dense, e_mat)
            best_dense = max(best_dense, np.linalg.norm(out) / np.linalg.norm(e_mat))
            v = sym_to_mandel(e_mat)
            best_mandel = max(
                best_mandel, np.linalg.norm(c.mandel_matrix @ v) / np.linalg.norm(v)
            )
        assert abs(best_dense - best_mandel) <= 1e-10 * best_mandel
        assert best_mandel <= c.operator_norm() + 1e-12


class TestConstructors:
    def test_identity_vector_and_trace_dyad(self):
        np.testing.assert_array_equal(identity_vector(), [1.0, 1.0, 0.0])
        np.testing.assert_array_equal(
            trace_dyad(), [[1, 1, 0], [1, 1, 0], [0, 0, 0]]
        )

    def test_asymmetric_matrix_rejected(self):
        bad = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetr"):
            StiffTensor4(bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_matrix_rejected_without_warning(self, bad):
        mat = np.eye(3)
        mat[0, 1] = mat[1, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                StiffTensor4(mat)

    def test_basis_tensors(self):
        for k in range(3):
            b = SymTensor2.basis(k)
            assert b.mandel[k] == 1.0 and np.count_nonzero(b.mandel) == 1

    def test_shear_basis_has_unit_norm_matrix(self):
        b = mandel_to_sym(SymTensor2.basis(2).mandel)
        np.testing.assert_allclose(b, [[0, 1 / SQRT2], [1 / SQRT2, 0]])
        assert abs((b * b).sum() - 1.0) < 1e-15
