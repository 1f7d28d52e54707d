"""Pauli decomposition against an explicit Kronecker-product oracle.

The production transform contracts qubit axes without materializing any
basis word; the tests rebuild every word with plain np.kron from a local
copy of the 2x2 matrices and compare traces.
"""
import math
import warnings
from functools import reduce

import numpy as np
import pytest
from numpy.testing import assert_allclose

from zetavac.errors import DimensionMismatch, NonHermitianInput, NotPowerOfTwo
from zetavac.models import hydrogen_matrix
from zetavac.pauli import (
    _TO_ENTRY,
    _TO_WORD,
    PauliCoefficients,
    _map_digits,
    decompose,
    reconstruct,
)

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
LOCAL = [I2, SX, SY, SZ]


def kron_word(qubits, q):
    """Word built by plain Kronecker products, most significant qubit first."""
    digits = [(q >> (2 * n)) & 3 for n in reversed(range(qubits))]
    return reduce(np.kron, (LOCAL[d] for d in digits))


def random_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    B = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (B + B.conj().T) / 2.0


def tensordot_decompose(M):
    """Coefficients by one np.tensordot per qubit, with a transposed copy each."""
    Q = M.shape[0].bit_length() - 1
    T = M.reshape((2,) * (2 * Q))
    for i in range(Q):
        T = np.tensordot(T, np.array(LOCAL), axes=([0, Q - i], [2, 1]))
    return (T.reshape(4**Q) / 2**Q).real


def tensordot_reconstruct(coeffs, Q):
    T = coeffs.astype(complex).reshape((4,) * Q)
    for _ in range(Q):
        T = np.tensordot(T, np.array(LOCAL), axes=([0], [0]))
    perm = list(range(0, 2 * Q, 2)) + list(range(1, 2 * Q, 2))
    return T.transpose(perm).reshape(2**Q, 2**Q)


class TestDecompose:
    def test_identity_single_qubit(self):
        c = decompose(np.eye(2))
        assert_allclose(c.coeffs, [1.0, 0.0, 0.0, 0.0], atol=1e-15)

    def test_hydrogen_single_qubit_coefficients(self):
        c = decompose(hydrogen_matrix(2))
        want = [0.25 + math.pi / 4.0, -1.0 / math.pi, 0.5, -0.25]
        assert_allclose(c.coeffs, want, atol=1e-12)

    def test_basis_word_is_one_hot(self):
        c = decompose(np.kron(SX, SX))
        want = np.zeros(16)
        want[5] = 1.0
        assert_allclose(c.coeffs, want, atol=1e-14)

    @pytest.mark.parametrize("Q", [1, 2, 3, 4])
    def test_matches_kron_trace_oracle(self, Q):
        M = random_hermitian(2**Q, seed=Q)
        c = decompose(M)
        for q in range(4**Q):
            want = np.trace(M @ kron_word(Q, q)).real / 2**Q
            assert c.coeffs[q] == pytest.approx(want, abs=1e-12)

    def test_linear(self):
        A = random_hermitian(8, 21)
        B = random_hermitian(8, 22)
        lhs = decompose(2.0 * A - 0.5 * B).coeffs
        rhs = 2.0 * decompose(A).coeffs - 0.5 * decompose(B).coeffs
        assert_allclose(lhs, rhs, atol=1e-12)

    @pytest.mark.parametrize(
        "M, want",
        [(np.diag([1e308, 1e308]), [1e308, 0.0, 0.0, 0.0]),
         (np.array([[0.0, 1e308j], [-1e308j, 0.0]]), [0.0, 0.0, -1e308, 0.0])],
        ids=["identity", "sigma_y"],
    )
    def test_coefficients_near_the_float_range_are_finite(self, M, want):
        # each coefficient is at most max|M|, but tr(M S^q) can overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert decompose(M).coeffs.tolist() == want

    def test_input_within_tolerance_means_its_upper_triangle(self):
        M = random_hermitian(16, seed=23)
        rng = np.random.default_rng(23)
        M += 1e-13 * (rng.standard_normal(M.shape) + 1j * rng.standard_normal(M.shape))
        upper = np.triu(M, 1)
        mirror = upper + upper.conj().T + np.diag(M.diagonal().real)
        assert decompose(M).coeffs.tobytes() == decompose(mirror).coeffs.tobytes()

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianInput):
            decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(NotPowerOfTwo):
            decompose(np.eye(3))


@pytest.mark.parametrize("kind", ["random", "hydrogen"])
@pytest.mark.parametrize("Q", [1, 2, 3, 4, 5, 6])
def test_matches_tensordot_contraction_bitwise(Q, kind):
    # every output is a sum of the same two nonzero terms as in the
    # per-qubit tensordot, so the digit maps may not change a single bit
    M = random_hermitian(2**Q, seed=300 + Q) if kind == "random" else hydrogen_matrix(2**Q)
    c = decompose(M)
    assert np.array_equal(c.coeffs, tensordot_decompose(M))
    assert np.array_equal(reconstruct(c), tensordot_reconstruct(c.coeffs, Q))


@pytest.mark.parametrize("kind", ["random", "hydrogen"])
@pytest.mark.parametrize("Q", [2, 5, 8])
def test_word_coefficients_of_hermitian_input_are_exactly_real(Q, kind):
    # decompose keeps only the real part, on the strength of this
    M = random_hermitian(2**Q, seed=400 + Q) if kind == "random" else hydrogen_matrix(2**Q)
    interleave = [axis for t in range(Q) for axis in (t, Q + t)]
    T = M.reshape((2,) * (2 * Q)).transpose(interleave).copy().reshape(-1)
    assert not _map_digits(T, _TO_WORD, Q).imag.any()


@pytest.mark.parametrize("G", [_TO_WORD, _TO_ENTRY], ids=["to_word", "to_entry"])
@pytest.mark.parametrize("Q", range(1, 9))
def test_digit_map_equals_numpy_matmul_in_place(Q, G):
    # each output is a sum of two exact products, so SciPy's zgemm and
    # NumPy's matmul agree bit for bit whatever their BLAS builds
    rng = np.random.default_rng(500 + Q)
    T = rng.standard_normal(4**Q) + 1j * rng.standard_normal(4**Q)
    want = T.copy()
    for _ in range(Q):
        want = np.matmul(want.reshape(4, -1).T, G).reshape(-1)
    work = T.copy()
    got = _map_digits(work, G, Q)
    assert np.array_equal(got, want)
    # zgemm's return value is dropped, so each map must have written into
    # its buffer: the input for even Q, the one scratch array for odd Q
    assert np.shares_memory(got, work) == (Q % 2 == 0)


def test_decompose_leaves_its_input_alone():
    for Q in (1, 3):
        M = random_hermitian(2**Q, seed=Q)
        before = M.copy()
        decompose(M)
        assert np.array_equal(M, before)


def test_coefficients_own_their_data():
    # a view of the complex work array would keep all of it alive
    c = decompose(hydrogen_matrix(8)).coeffs
    assert c.base is None and c.flags.owndata and c.flags.c_contiguous


class TestReconstruct:
    def test_identity_coeffs(self):
        M = reconstruct(PauliCoefficients(1, np.array([1.0, 0.0, 0.0, 0.0])))
        assert_allclose(M, np.eye(2), atol=0)

    def test_one_hot_gives_basis_word(self):
        for q in (3, 17, 42):
            coeffs = np.zeros(64)
            coeffs[q] = 1.0
            M = reconstruct(PauliCoefficients(3, coeffs))
            assert_allclose(M, kron_word(3, q), atol=0)

    @pytest.mark.parametrize("Q", [1, 2, 3, 4, 5, 6])
    def test_round_trip(self, Q):
        M = random_hermitian(2**Q, seed=100 + Q)
        back = reconstruct(decompose(M))
        assert np.abs(back - M).max() <= 1e-12 * np.abs(M).max()

    def test_round_trip_hydrogen_three_qubits(self):
        M = hydrogen_matrix(8)
        back = reconstruct(decompose(M))
        assert np.abs(back - M).max() <= 1e-12

    def test_coefficients_length_checked(self):
        with pytest.raises(DimensionMismatch):
            PauliCoefficients(2, np.zeros(5))


class TestOrthogonalityAndParseval:
    def test_orthogonality_exhaustive_three_qubits(self):
        words = [kron_word(3, q) for q in range(64)]
        for a in range(64):
            for b in range(a, 64):
                got = np.trace(words[a] @ words[b].conj().T)
                want = 8.0 if a == b else 0.0
                assert abs(got - want) < 1e-12

    def test_orthogonality_sampled_six_qubits(self):
        rng = np.random.default_rng(3)
        pairs = rng.integers(0, 4**6, size=(25, 2))
        for a, b in pairs:
            got = np.trace(kron_word(6, a) @ kron_word(6, b).conj().T)
            want = 64.0 if a == b else 0.0
            assert abs(got - want) < 1e-10

    @pytest.mark.parametrize("Q", [1, 2, 3, 4, 5, 6])
    def test_parseval(self, Q):
        M = random_hermitian(2**Q, seed=200 + Q)
        c = decompose(M)
        lhs = np.sum(c.coeffs**2) * 2**Q
        rhs = np.linalg.norm(M, "fro") ** 2
        assert lhs == pytest.approx(rhs, rel=1e-10)
