import warnings

import numpy as np
import pytest

from zetavac import spectral, truncation
from zetavac.errors import ConvergenceFailure, DimensionMismatch, NonHermitianInput, OutOfFloatRange
from zetavac.models import hydrogen_matrix
from zetavac.spectral import (
    EigenSystem,
    eig_hermitian,
    require_hermitian,
)
from zetavac.truncation import vacuum_state

from conftest import assert_same_ground_pair, random_hermitian


def test_require_hermitian_passes_and_casts():
    M = require_hermitian([[1.0, 2.0], [2.0, 3.0]])
    assert M.dtype == complex


def test_require_hermitian_rejects_nonsquare():
    with pytest.raises(DimensionMismatch):
        require_hermitian(np.zeros((2, 3)))


def test_require_hermitian_rejects_asymmetric():
    with pytest.raises(NonHermitianInput):
        require_hermitian([[0.0, 1.0], [0.0, 0.0]])


def test_require_hermitian_tolerates_rounding():
    M = random_hermitian(30, seed=5)
    M[3, 7] += 1e-14 * 1j  # below the relative tolerance
    require_hermitian(M)


# At n = 4 * tile + 1 the last tile row and column are one entry wide.
TILED_N = 4 * spectral._TILE + 1
LAST = TILED_N - 1
# A row inside the third tile row, off the diagonal of its own tile.
MID = 2 * spectral._TILE + 44
# Entries that sit only in an off-diagonal tile pair, in the last partial
# tile, on the diagonal, or below the diagonal of a diagonal tile.
TILE_POSITIONS = [
    (3, MID), (MID, 3), (LAST, 7), (7, LAST), (LAST, MID), (LAST, LAST), (MID, MID - 1),
]


@pytest.mark.parametrize("i, j", TILE_POSITIONS)
def test_require_hermitian_finds_one_asymmetric_entry_in_any_tile(i, j):
    M = random_hermitian(TILED_N, seed=8)
    M[i, j] += 1e-6j  # on the diagonal (i == j) this is an imaginary part
    with pytest.raises(NonHermitianInput, match="deviates"):
        require_hermitian(M)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("i, j", TILE_POSITIONS)
def test_require_hermitian_finds_one_non_finite_entry_in_any_tile(i, j, bad):
    M = random_hermitian(TILED_N, seed=9)
    M[i, j] = bad
    with pytest.raises(NonHermitianInput, match="non-finite"):
        require_hermitian(M)


@pytest.mark.parametrize("i, j", TILE_POSITIONS)
def test_hermitian_scale_is_the_largest_magnitude(i, j):
    M = random_hermitian(TILED_N, seed=10)
    M[i, j] = M[j, i] = 7.0  # the largest entry, placed in the tile under test
    checked, scale, _ = spectral._hermitian_and_scale(M)
    assert scale == np.abs(M).max() == 7.0
    assert checked is M  # exactly Hermitian complex input is neither copied nor mirrored
    checked, scale, _ = spectral._hermitian_and_scale(M.real)
    assert scale == np.abs(M.real).max()


def test_hermitian_scale_of_a_within_tolerance_asymmetry_is_the_upper_one():
    # the returned matrix mirrors the upper triangle, so its max|M| is
    # scale, below the input's
    M = random_hermitian(TILED_N, seed=12)
    M[3, MID] = 7.0
    M[MID, 3] = 7.0 * (1.0 + 5e-13)
    checked, scale, _ = spectral._hermitian_and_scale(M)
    assert scale == 7.0 < np.abs(M).max()
    assert checked is not M and checked[MID, 3] == checked[3, MID] == 7.0
    assert np.abs(checked).max() == scale


def test_off_diagonal_row_sums_are_those_of_the_upper_triangle():
    M = random_hermitian(TILED_N, seed=11)
    upper = np.triu(M, 1)
    _, _, off = spectral._hermitian_and_scale(M)
    np.testing.assert_allclose(off, np.abs(upper + upper.conj().T).sum(axis=1), rtol=1e-13, atol=0)
    # entries below the tolerance, in the lower triangle only: M passes, and
    # the Hermitian matrix its upper triangle defines is diagonal
    D = np.diag(np.arange(1.0, TILED_N + 1)).astype(complex)
    D[LAST, 3] = 1e-13
    D[MID, 7] = 1e-13j
    checked, _, off = spectral._hermitian_and_scale(D)
    assert not off.any()
    assert np.array_equal(checked, np.diag(np.arange(1.0, TILED_N + 1)))


def test_require_hermitian_mirrors_the_upper_triangle():
    # an asymmetry within the tolerance in both triangles and on the diagonal
    M = random_hermitian(TILED_N, seed=13)
    rng = np.random.default_rng(13)
    M += 1e-13 * (rng.standard_normal(M.shape) + 1j * rng.standard_normal(M.shape))
    upper = np.triu(M, 1)
    want = upper + upper.conj().T + np.diag(M.diagonal().real)
    checked = require_hermitian(M)
    assert np.array_equal(checked, want) and not checked.diagonal().imag.any()
    assert np.array_equal(checked, checked.conj().T)


def test_both_solvers_solve_the_upper_triangle_of_accepted_input():
    # hydrogen plus a strict upper triangle of at most 0.9e-12 max|H|:
    # vacuum_state and eig_hermitian are each other's oracle, and when each
    # read its own triangle their ground energies differed by 7.5e-8 relative
    n = 1024
    H = hydrogen_matrix(n)
    P = np.random.default_rng(n).standard_normal((n, n))
    P = np.triu(P + 1j * np.random.default_rng(n + 1).standard_normal((n, n)), 1)
    H += 0.9e-12 * np.abs(H).max() / np.abs(P).max() * P
    want = eig_hermitian(H).eigenvalues[0]
    assert abs(vacuum_state(H).energy - want) <= 1e-9 * abs(want)


def test_eig_hermitian_rejects_an_eigenvalue_beyond_the_float_range():
    # every entry is finite, but the upper eigenvalue 2e308 is not
    with pytest.raises(OutOfFloatRange):
        eig_hermitian([[1e308, 1e308], [1e308, 1e308]])


def test_require_hermitian_edge_shapes():
    empty, scale, _ = spectral._hermitian_and_scale(np.zeros((0, 0)))
    assert empty.shape == (0, 0) and empty.dtype == complex and scale == 0.0
    one, scale, _ = spectral._hermitian_and_scale([[-2.5]])
    assert one.tolist() == [[-2.5 + 0j]] and scale == 2.5
    with pytest.raises(NonHermitianInput):
        require_hermitian([[1j]])
    for shape in ((2, 3), (TILED_N, TILED_N - 1), (4,), (2, 2, 2)):
        with pytest.raises(DimensionMismatch):
            require_hermitian(np.zeros(shape))


def test_eig_analytic_two_by_two():
    # [[2,1],[1,2]] has eigenpairs (1, (1,-1)/sqrt2) and (3, (1,1)/sqrt2).
    E = eig_hermitian([[2.0, 1.0], [1.0, 2.0]])
    assert np.allclose(E.eigenvalues, [1.0, 3.0], atol=1e-14)
    s = 1.0 / np.sqrt(2.0)
    assert np.allclose(E.vectors[:, 0], [s, -s], atol=1e-14)
    assert np.allclose(E.vectors[:, 1], [s, s], atol=1e-14)


def test_eig_residuals_and_orthonormality():
    M = random_hermitian(60, seed=1)
    E = eig_hermitian(M)
    scale = np.abs(M).max()
    for j in [0, 17, 59]:
        r = M @ E.vectors[:, j] - E.eigenvalues[j] * E.vectors[:, j]
        assert np.linalg.norm(r) < 1e-12 * scale * 60
    G = E.vectors.conj().T @ E.vectors
    assert np.abs(G - np.eye(60)).max() < 1e-12
    assert np.all(np.diff(E.eigenvalues) >= 0)


def test_phase_convention_deterministic():
    M = random_hermitian(25, seed=2)
    E1, E2 = eig_hermitian(M), eig_hermitian(M.copy())
    assert np.array_equal(E1.vectors, E2.vectors)
    # largest-magnitude component of every column is real and positive
    idx = np.argmax(np.abs(E1.vectors), axis=0)
    lead = E1.vectors[idx, np.arange(25)]
    assert np.all(np.abs(lead.imag) < 1e-12)
    assert np.all(lead.real > 0)


def test_eigensystem_rejects_decreasing_values():
    with pytest.raises(ValueError):
        EigenSystem(np.array([2.0, 1.0]), np.eye(2, dtype=complex))


@pytest.mark.parametrize("n", [1, 2, 3, 40, 200])
def test_smallest_eigenpair_matches_dense(n):
    M = random_hermitian(n, seed=n)
    vac = vacuum_state(M)
    assert_same_ground_pair(vac.energy, vac.state, M)


def test_smallest_eigenpair_diagonal():
    # the start vector is the exact eigenvector: no iteration runs
    vac = vacuum_state(np.diag([5.0, -2.0, 9.0]))
    assert vac.energy == pytest.approx(-2.0, abs=1e-14)
    assert np.abs(vac.state - [0.0, 1.0, 0.0]).max() < 1e-14
    assert vac.iterations == 0


def test_certificate_rejects_excited_state():
    # the start block is rows 0-1, whose lowest eigenvector (1, -1) / sqrt2
    # (eigenvalue -0.01) row 2 couples to with equal weights: an exact
    # eigenvector of M, so the iteration stops there at once.  (1, 1) / sqrt2
    # and row 2 give the ground level -0.233, which only the Cholesky sees
    c = np.sqrt(0.15)
    M = np.diag([0.0, 0.0, 1.0, 100.0, 100.0])
    M[0, 1] = M[1, 0] = 0.01
    M[2, :2] = M[:2, 2] = c
    assert np.linalg.eigvalsh(M)[0] == pytest.approx(-0.233, abs=1e-3)
    with pytest.raises(ConvergenceFailure, match="eigenvalue lies below"):
        vacuum_state(M)


def test_iteration_cap_raises_without_warnings(monkeypatch):
    # hydrogen at n = 50 takes 12 iterations
    monkeypatch.setattr(truncation, "_MAX_ITER", 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceFailure, match="after 5 iterations"):
            vacuum_state(hydrogen_matrix(50))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("solve", [eig_hermitian, vacuum_state])
def test_non_finite_matrix_rejected(solve, bad):
    with pytest.raises(NonHermitianInput, match="non-finite"):
        solve([[1.0, bad], [bad, 2.0]])

