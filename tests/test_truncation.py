import re
import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.special import digamma, polygamma

from zetavac import spectral
from zetavac.errors import (
    ConvergenceFailure,
    GridTooSmall,
    HermiticityViolation,
    NonHermitianInput,
    OutOfFloatRange,
)
from zetavac.models import HydrogenParams, hydrogen_element, hydrogen_matrix
from zetavac.truncation import (
    SobolevWeight,
    index_of_mode,
    mode_list,
    project_operator,
    schatten_convergence_probe,
    strong_convergence_probe,
    vacuum_state,
)

from conftest import assert_same_ground_pair, random_hermitian


def test_mode_ordering_first_eight():
    assert list(mode_list(8)) == [0, -1, 1, -2, 2, -3, 3, -4]


def test_mode_ordering_roundtrip():
    assert [index_of_mode(k) for k in mode_list(200)] == list(range(200))


def test_mode_image_is_centered_integer_range():
    for n in (5, 8, 13):
        modes = sorted(mode_list(n))
        lo = -(n // 2)
        assert modes == list(range(lo, n - n // 2))


def test_project_operator_nesting_bit_exact():
    big = project_operator(hydrogen_element, 24)
    for m in (1, 2, 7, 16, 24):
        small = project_operator(hydrogen_element, m)
        assert np.array_equal(big[:m, :m], small)


@pytest.mark.parametrize("n", [0, -3])
def test_project_operator_rejects_size_below_one(n):
    # the size check is mode_list's, reached before any element call
    calls = []

    def element(l, k):
        calls.append((l, k))
        return hydrogen_element(l, k)

    with pytest.raises(ValueError, match="at least 1"):
        project_operator(element, n)
    assert calls == []


def test_project_operator_output_hermitian_exactly():
    M = project_operator(hydrogen_element, 15)
    assert np.array_equal(M, M.conj().T)


@pytest.mark.parametrize("n", [17, 32])
def test_project_operator_matches_entrywise_loop(n):
    # the complex element: one call per upper-triangle entry, mirrored,
    # diagonal conj(element(l, l)), exactly as an entry-by-entry loop
    M = project_operator(hydrogen_element, n)
    md = mode_list(n)
    want = np.zeros((n, n), dtype=complex)
    for j in range(n):
        for i in range(j + 1):
            want[i, j] = hydrogen_element(md[i], md[j])
            want[j, i] = np.conj(want[i, j])
    assert M.tobytes() == want.tobytes()
    assert np.array_equal(M, M.conj().T)


@pytest.mark.parametrize("n", [1, 2, 9, 40])
def test_project_operator_matches_triu_formulation(n):
    # same matrix, bytewise, and the same element calls in the same order
    # as one call per np.triu_indices entry, mirrored by fancy indexing
    def recording(calls):
        def element(l, k):
            calls.append((l, k))
            return hydrogen_element(l, k)

        return element

    calls = []
    M = project_operator(recording(calls), n)
    md = mode_list(n).tolist()
    rows, cols = np.triu_indices(n)
    want_calls = []
    want = np.zeros((n, n), dtype=complex)
    want[rows, cols] = [recording(want_calls)(md[i], md[j]) for i, j in zip(rows, cols)]
    want[cols, rows] = want[rows, cols].conj()
    assert M.tobytes() == want.tobytes()
    m = min(n, 8)  # the sampled symmetry check calls each pair both ways first
    assert len(calls) == m * (m + 1) + len(want_calls)
    assert calls[m * (m + 1) :] == want_calls


def test_project_operator_rejects_asymmetric_element():
    def bad(l, k):
        return complex(l - k) if l != k else 1.0  # antisymmetric without conjugation

    with pytest.raises(HermiticityViolation):
        project_operator(bad, 6)


@pytest.mark.parametrize(
    "kind,n",
    # hydrogen 80 and 513 sit on both sides of n = 512, where a second
    # ground-state solver once took over
    [("random", 1), ("random", 3), ("random", 40), ("random", 200), ("hydrogen", 80), ("hydrogen", 513)],
)
def test_vacuum_matches_full_eigensolvers(kind, n):
    H = random_hermitian(n, seed=n) if kind == "random" else hydrogen_matrix(n)
    vac = vacuum_state(H)
    assert_same_ground_pair(vac.energy, vac.state, H)
    r = np.linalg.norm(H @ vac.state - vac.energy * vac.state) / np.abs(H).max()
    assert vac.residual == pytest.approx(r, rel=1e-12)
    assert vac.residual < 1e-13


@pytest.mark.parametrize(
    "kind,n",
    [("hydrogen", 1), ("hydrogen", 2), ("hydrogen", 50), ("hydrogen", 513), ("hydrogen", 1050), ("random", 200)],
)
def test_vacuum_matches_numpy_route(kind, n):
    # vacuum_state forms H psi with SciPy's zgemv; the NumPy route is the oracle
    H = random_hermitian(n, seed=n) if kind == "random" else hydrogen_matrix(n)
    vac = vacuum_state(H)
    psi = vac.state
    h_psi = H @ psi
    energy = np.vdot(psi, h_psi).real
    residual = np.linalg.norm(h_psi - energy * psi) / np.abs(H).max()
    assert abs(vac.energy - energy) <= 1e-15 * abs(energy)
    assert abs(vac.residual - residual) <= 1e-15 * residual


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_vacuum_rejects_non_finite_matrix(bad):
    H = hydrogen_matrix(6)
    H[1, 2] = H[2, 1] = bad
    with pytest.raises(NonHermitianInput, match="non-finite"):
        vacuum_state(H)


def test_vacuum_energy_is_rayleigh_quotient():
    # LAPACK's eigenvalue is about 1.6e-12 off here; the float64 quotient
    # agrees with an extended-precision one to rounding
    H = hydrogen_matrix(512)
    vac = vacuum_state(H)
    state = vac.state.astype(np.clongdouble)
    exact = np.vdot(state, H.astype(np.clongdouble) @ state).real
    assert abs(vac.energy - exact) <= 1e-14


def test_vacuum_energy_monotone_in_dimension():
    # nested variational spaces can only lower the minimum
    energies = [vacuum_state(hydrogen_matrix(n)).energy for n in (2, 4, 8, 16, 32)]
    assert all(b < a for a, b in zip(energies, energies[1:]))


def test_vacuum_state_norm_validated():
    v = vacuum_state(hydrogen_matrix(12))
    assert np.linalg.norm(v.state) == pytest.approx(1.0, abs=1e-12)
    assert v.n == 12


# Diagonal 1, above the hydrogen minimum q pi / 4, and off-diagonal row
# sums 45/8, so every row's Gershgorin disc reaches that minimum; one
# eigenvalue is 1 - 45/8.
TRAP = np.eye(10) - 5.0 / 8.0 * (np.ones((10, 10)) - np.eye(10))


def _certificate_block_of_failure(H) -> int:
    with pytest.raises(ConvergenceFailure, match="eigenvalue lies below") as failure:
        vacuum_state(H)
    return int(re.search(r"leading block of (\d+) of", str(failure.value)).group(1))


def test_start_block_holds_a_trap_in_the_leading_rows():
    # TRAP lies in the start block, whose lowest eigenvector is then
    # TRAP's ground state and an eigenvector of H
    assert np.linalg.eigvalsh(TRAP)[0] == pytest.approx(-4.625)
    H = scipy.linalg.block_diag(TRAP, hydrogen_matrix(1000))
    vac = vacuum_state(H)
    assert_same_ground_pair(vac.energy, vac.state, H)


def test_certificate_finds_a_trap_in_the_leading_rows():
    # X = [[1, 3], [3, 10]] has eigenvalue 0.09, below the hydrogen ground
    # level; its second row sits at position 100, past the start block, so
    # LOBPCG stays in the hydrogen block and the certificate's leading
    # block of 128 holds both rows of X
    H = scipy.linalg.block_diag([[1.0, 3.0], [3.0, 10.0]], hydrogen_matrix(1000))
    order = [0] + list(range(2, 101)) + [1] + list(range(101, 1002))
    H = H[np.ix_(order, order)]
    assert _certificate_block_of_failure(H) == 128


def test_start_block_past_half_the_rows_holds_the_trap():
    # TRAP's discs reach the hydrogen block's smallest diagonal entry, so
    # the start block is every row and its zheevd is the ground pair
    H = scipy.linalg.block_diag(hydrogen_matrix(1000), TRAP)
    vac = vacuum_state(H)
    assert_same_ground_pair(vac.energy, vac.state, H)
    assert vac.iterations == 0


def test_certificate_counts_the_coupling_through_the_leading_block():
    # X = [[1, 3], [3, 10]] has eigenvalue 0.09, below the hydrogen ground
    # level; its second row sits at position 600, where its own Gershgorin
    # disc stays clear of that level, and only the Schur complement term
    # ||w_i|| sum_j ||w_j|| sees its coupling to the first row at position 0
    H = scipy.linalg.block_diag([[1.0, 3.0], [3.0, 10.0]], hydrogen_matrix(1000))
    order = [0] + list(range(2, 601)) + [1] + list(range(601, 1002))
    H = H[np.ix_(order, order)]
    assert _certificate_block_of_failure(H) == 1002


def test_hydrogen_certified_by_a_leading_block():
    # the kinetic diagonal dominates every row past the leading block
    vac = vacuum_state(hydrogen_matrix(1050))
    assert 0 < vac.certificate_block <= 1050 // 2
    assert np.linalg.eigvalsh(hydrogen_matrix(1050))[0] >= vac.energy - 1e-10 * 1050**2 / 8


def test_hydrogen_starts_from_its_leading_block():
    # the exact preconditioner on the start block; from e_j alone the
    # solve takes 15 iterations
    assert vacuum_state(hydrogen_matrix(1050)).iterations <= 9


def test_wide_start_block_gives_the_ground_pair():
    # at q = 100 the start block holds 67 of 256 rows, past the 25 from
    # which zheevd divides and conquers; from e_j alone the solve takes
    # 107 iterations, from the block 12.  At q = 300 it holds 103 of 128
    # rows, over half; from e_j alone the solve takes 187, from the block 12
    for n, q in ((256, 100.0), (128, 300.0)):
        H = hydrogen_matrix(n, HydrogenParams(q=q))
        vac = vacuum_state(H)
        assert_same_ground_pair(vac.energy, vac.state, H)
        assert vac.iterations <= 15


def test_random_matrix_starts_from_all_its_rows():
    # every Gershgorin disc of a random Hermitian matrix reaches its
    # smallest diagonal entry, so the start block's zheevd solves it whole
    H = random_hermitian(40, seed=40)
    vac = vacuum_state(H)
    assert_same_ground_pair(vac.energy, vac.state, H)
    assert vac.iterations <= 1


def test_asymmetry_within_tolerance_converges():
    # the strict upper triangle carries an asymmetry of 1e-13 max|H| per
    # entry, within require_hermitian's tolerance; its norm is above the
    # 1e-14 max|H| residual bound, so applying M itself the solve never
    # meets that bound.  The solve is that of the Hermitian matrix the
    # upper triangle defines
    H = hydrogen_matrix(300)
    rng = np.random.default_rng(0)
    H += 1e-13 * np.abs(H).max() * np.triu(rng.standard_normal(H.shape), 1)
    upper = np.triu(H, 1)
    vac = vacuum_state(H)
    assert_same_ground_pair(vac.energy, vac.state, upper + upper.conj().T + np.diag(H.diagonal()))
    assert vac.residual <= 1e-14 and vac.iterations <= 15


@pytest.mark.parametrize(
    "n, params",
    [(4, {"q": 1e300}), (8, {"q": 1e300}), (12, {"q": 1e300}), (16, {"q": 1e300}),
     (16, {"m": 1e12}), (16, {"q": 1e12})],
    ids=["4", "8", "12", "16", "16-m=1e12", "16-q=1e12"],
)
def test_residual_near_the_float_range_is_finite(n, params):
    # at q = 1e300 the entries of H psi - E psi are near 1e300, so their
    # squares overflow; at n = 16 every disc reaches the smallest diagonal
    # entry, so the start block holds every row; from row j alone the
    # iteration does not resolve the relative gap (2.6e-9 at q = 1e12)
    # within its cap
    H = hydrogen_matrix(n, HydrogenParams(**params))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vac = vacuum_state(H)
    assert vac.residual < 1e-13


@pytest.mark.parametrize("n", [40, 200])
def test_random_matrix_takes_the_full_factorization(n):
    # every Gershgorin disc of a random Hermitian matrix reaches its ground level
    assert vacuum_state(random_hermitian(n, seed=n)).certificate_block == n


def _certificate_block_by_full_solves(H, energy) -> int:
    """The certificate with every trial solving all n - k columns of W.

    NumPy's Cholesky and SciPy's triangular solve stand in for zpotrf and
    ztrsm; sigma comes from the energy, not from the iteration's last
    Rayleigh quotient, which differs from it at rounding level.
    """
    M, scale, off = spectral._hermitian_and_scale(H)
    n, eps = M.shape[0], np.finfo(float).eps
    delta = 1e-10 * scale
    sigma = energy - delta
    d = M.diagonal().real
    gap, slack = d - sigma - off, 3 * n * eps * (off + np.abs(d) + abs(sigma))
    reach = np.flatnonzero(gap <= slack)
    k = int(reach[-1]) + 1 if reach.size else 0
    while k:
        k = n if 2 * k > n else k
        L = np.linalg.cholesky(M[:k, :k] - sigma * np.eye(k))
        if k == n:
            return n
        w = np.linalg.norm(scipy.linalg.solve_triangular(L, M[:k, k:], lower=True), axis=0)
        eta = k * k * eps * np.sqrt(2.0 * (scale + abs(sigma)) / delta)
        t = w * w.sum()
        if (gap[k:] - t > slack[k:] + 3.0 * eta * t).all():
            return k
        k *= 2
    return 0


@pytest.mark.parametrize(
    "H, longer",
    [
        (hydrogen_matrix(512), {}),
        (hydrogen_matrix(1050), {56: 56 + 112 + 224}),
        (random_hermitian(300, seed=3), {}),
    ],
    ids=["hydrogen", "hydrogen-1050", "random"],
)
def test_failing_certificate_trials_stop_after_their_next_rows(monkeypatch, H, longer):
    # a failing trial k solves the columns in the chunks k..2k, 2k..4k, ...
    # and stops after the first chunk whose rows fail on the partial sum;
    # the block it settles on is that of solving all columns.  At n = 512
    # every failing trial fails in rows k..2k, after its first chunk of k
    # columns; at n = 1050 the trials in longer run on: k = 56 fails in
    # rows 224..448, after 392 of its 994 columns
    solves = []
    ztrsm = scipy.linalg.blas.ztrsm

    def counting(alpha, a, b, **kwargs):
        solves.append((a.shape[0], b.shape[1]))
        return ztrsm(alpha, a, b, **kwargs)

    monkeypatch.setattr(scipy.linalg.blas, "ztrsm", counting)
    vac = vacuum_state(H)
    n, block = H.shape[0], vac.certificate_block
    assert block == _certificate_block_by_full_solves(H, vac.energy)
    assert_same_ground_pair(vac.energy, vac.state, H)
    columns = {}
    for k, m in solves:
        columns[k] = columns.get(k, 0) + m
    if block == n:  # the full factorization solves nothing
        assert not solves
        return
    assert columns.pop(block) == n - block
    assert columns
    for k, m in columns.items():
        assert m == longer.get(k, k) and m < n - k


def test_dominant_diagonal_needs_no_factorization():
    assert vacuum_state(np.diag([5.0, -2.0, 9.0])).certificate_block == 0


def test_sobolev_weight_values():
    w = SobolevWeight(1.0)
    assert np.allclose(w.values([0, 1, -2]), [1.0, 2.0, 5.0])
    assert np.allclose(SobolevWeight(0.0).values([3, -7]), 1.0)


def test_strong_probe_identity_is_tail_norm():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(64) / (1.0 + np.arange(64.0)) ** 2
    x = x.astype(complex)
    r = strong_convergence_probe(np.eye(64), x, [4, 8, 16])
    expected = [np.linalg.norm(x[n:]) for n in (4, 8, 16)]
    assert np.allclose(r, expected, rtol=1e-12)


def _hydrogen_probe_pair(n_ref=16):
    H = hydrogen_matrix(n_ref)
    return H, vacuum_state(H).state


@pytest.mark.parametrize(
    "make",
    [
        lambda H, v: (H * 1e300, v),
        lambda H, v: (np.where(np.arange(16) == 1, np.nan, 1.0) * H, v),
        lambda H, v: (H, np.where(np.arange(16) == 1, np.nan, v)),
        lambda H, v: (H, np.where(np.arange(16) == 9, np.inf, v)),
    ],
    ids=["overflow", "nan_in_A", "nan_in_x_head", "inf_in_x_tail"],
)
def test_strong_probe_rejects_a_non_finite_residual(make):
    # every probed size sees the fault, so the first one is named, with
    # no RuntimeWarning ahead of the error
    A, x = make(*_hydrogen_probe_pair())
    with warnings.catch_warnings(), pytest.raises(OutOfFloatRange, match="n=2 is not finite"):
        warnings.simplefilter("error")
        strong_convergence_probe(A, x, [2, 4])


def test_strong_probe_matches_numpy_products():
    H, v = _hydrogen_probe_pair(64)
    n_list = [2, 4, 8, 16, 32]
    got = strong_convergence_probe(H, v, n_list)
    want = []
    for n in n_list:
        r = H @ v
        r[:n] -= H[:n, :n] @ v[:n]
        want.append(np.linalg.norm(r))
    assert np.allclose(got, want, rtol=1e-13, atol=0.0)


def test_strong_probe_grid_guard():
    with pytest.raises(GridTooSmall):
        strong_convergence_probe(np.eye(16), np.ones(16, dtype=complex), [4, 9])


def _diag_element_by_index(l, k):
    return 1.0 / (index_of_mode(k) + 1) ** 2 if l == k else 0.0


def test_schatten_probe_inverse_squares_polygamma_oracle():
    # trace-norm tail of diag(1/j^2) equals psi'(n+1) - psi'(N+1)
    n_list = [4, 8, 16, 32]
    n_ref = 64
    got = schatten_convergence_probe(_diag_element_by_index, SobolevWeight(0.0), n_list, n_ref=n_ref)
    oracle = polygamma(1, np.array(n_list) + 1.0) - polygamma(1, n_ref + 1.0)
    assert np.abs(got - oracle).max() < 1e-10


def test_schatten_probe_sobolev_identity_digamma_oracle():
    # s=1 weight turns the identity into diag(1/(1+k^2)); its tail sum
    # follows from sum 1/(1+m^2) = Im[psi(a+i) - psi(b+1+i)] over mode ranges.
    def identity_element(l, k):
        return 1.0 if l == k else 0.0

    n_list = [4, 8, 16]
    n_ref = 48
    got = schatten_convergence_probe(identity_element, SobolevWeight(1.0), n_list, n_ref=n_ref)

    def tail(n):
        total = 0.0
        for a, b in (((n + 1) // 2, (n_ref - 1) // 2), ((n + 2) // 2, n_ref // 2)):
            if b >= a:
                total += float((digamma(a + 1j) - digamma(b + 1 + 1j)).imag)
        return total

    oracle = np.array([tail(n) for n in n_list])
    assert np.abs(got - oracle).max() < 1e-10


def _element_of(M):
    """Matrix-element function of M, whose rows and columns are in ordered-basis positions."""
    return lambda l, k: M[index_of_mode(l), index_of_mode(k)]


def test_schatten_probe_rank_one_closed_form():
    # For the rank-one A = u u*, the nuclear norm of the block difference
    # reduces to sqrt(b^2 + 4ab) with a = |u_head|^2, b = |u_tail|^2.
    n_ref = 40
    u = 1.0 / (1.0 + np.arange(n_ref, dtype=float))
    A = np.outer(u, u)
    n_list = [4, 8, 16]
    got = schatten_convergence_probe(_element_of(A), SobolevWeight(0.0), n_list, n_ref=n_ref)
    oracle = []
    for n in n_list:
        a = float(np.sum(u[:n] ** 2))
        b = float(np.sum(u[n:] ** 2))
        oracle.append(np.sqrt(b * b + 4.0 * a * b))
    assert np.allclose(got, oracle, atol=1e-10)


def _scipy_schatten(M, weight, n_list):
    """Schatten probe residuals of the matrix M with SciPy's singular values (the oracle)."""
    half = weight.values(mode_list(M.shape[0])) ** -0.5
    M_w = half[:, None] * M * half[None, :]
    out = []
    for n in n_list:
        diff = M_w.copy()
        diff[:n, :n] = 0.0
        out.append(scipy.linalg.svdvals(diff).sum())
    return np.array(out)


def test_schatten_probe_complex_path_matches_real():
    # D A D^dagger with a diagonal unitary D has the same truncation
    # residuals as A, since truncation commutes with D; the complex
    # operator takes the complex eigenvalue path, A the real one
    rng = np.random.default_rng(7)
    n_ref, n_list = 48, [4, 8, 16, 24]
    u = 1.0 / (1.0 + np.arange(n_ref, dtype=float))
    A = np.outer(u, u) + np.diag(u**2)
    d = np.exp(2j * np.pi * rng.random(n_ref))
    B = d[:, None] * A * d.conj()[None, :]
    assert np.abs(B.imag).max() > 0.1
    want = schatten_convergence_probe(_element_of(A), SobolevWeight(1.0), n_list, n_ref=n_ref)
    got = schatten_convergence_probe(_element_of(B), SobolevWeight(1.0), n_list, n_ref=n_ref)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    # NumPy's eigenvalues on both paths against SciPy's singular values
    for M, got in ((A, want), (B, got)):
        oracle = _scipy_schatten(M, SobolevWeight(1.0), n_list)
        assert np.all(np.abs(got - oracle) <= 1e-12 * np.abs(oracle))


def test_schatten_probe_grid_guard():
    with pytest.raises(GridTooSmall):
        schatten_convergence_probe(lambda l, k: float(l == k), SobolevWeight(0.0), [4, 9], n_ref=16)


@pytest.mark.parametrize(
    "probe",
    [
        lambda n_list: strong_convergence_probe(np.eye(16), np.full(16, 0.25), n_list),
        lambda n_list: schatten_convergence_probe(
            lambda l, k: float(l == k), SobolevWeight(0.0), n_list, n_ref=16
        ),
    ],
    ids=["strong", "schatten"],
)
@pytest.mark.parametrize("n_list", [[-3, 4], [0, 4]])
def test_probes_reject_sizes_below_one(probe, n_list):
    # a negative n would slice A[:n, :n] from the far end instead of failing
    with pytest.raises(ValueError, match="at least 1"):
        probe(n_list)


@pytest.mark.parametrize(
    "probe",
    [
        lambda n_list: strong_convergence_probe(np.eye(16), np.full(16, 0.25), n_list),
        lambda n_list: schatten_convergence_probe(
            lambda l, k: float(l == k), SobolevWeight(0.0), n_list, n_ref=16
        ),
    ],
    ids=["strong", "schatten"],
)
def test_probes_reject_no_sizes(probe):
    with pytest.raises(ValueError, match="need one or more probe sizes"):
        probe([])


@pytest.mark.parametrize("s", [-200.0, -1e300])
def test_schatten_probe_rejects_a_weight_out_of_float_range(s):
    # (1 + k^2)^s underflows to 0 for the outer modes, so the weighted
    # identity holds inf on the diagonal and NaN (inf * 0 * inf) off it;
    # the error comes with no RuntimeWarning ahead of it
    with warnings.catch_warnings(), pytest.raises(OutOfFloatRange, match=re.escape(f"s={s}")):
        warnings.simplefilter("error")
        schatten_convergence_probe(lambda l, k: float(l == k), SobolevWeight(s), [2, 4, 8], n_ref=16)


@pytest.mark.parametrize("complex_vectors", [False, True])
def test_schatten_probe_matches_numpy_eigenvalues(complex_vectors):
    # SciPy's and NumPy's OpenBLAS builds may differ in the last bits, so
    # the two routes agree to 1e-13 relative, not bit for bit
    n_ref, n_list = 64, [4, 8, 16, 32]
    M = _indefinite(n_ref, complex_vectors)
    weight = SobolevWeight(1.0)
    got = schatten_convergence_probe(_element_of(M), weight, n_list, n_ref=n_ref)
    half = weight.values(mode_list(n_ref)) ** -0.5
    M_w = half[:, None] * project_operator(_element_of(M), n_ref) * half[None, :]
    if not complex_vectors:
        M_w = M_w.real
    want = []
    for n in n_list:
        diff = M_w.copy()
        diff[:n, :n] = 0.0
        want.append(np.abs(np.linalg.eigvalsh(diff)).sum())
    assert np.allclose(got, want, rtol=1e-13, atol=0.0)


def _indefinite(n, complex_vectors):
    # eigenvalues with distinct magnitudes and both signs, the largest in
    # magnitude negative
    rng = np.random.default_rng(11)
    lam = np.concatenate([[-5.0, 3.0, -2.0], 1.0 / (2.0 + np.arange(n - 3))])
    lam[4::2] *= -1.0
    G = rng.standard_normal((n, n))
    if complex_vectors:
        G = G + 1j * rng.standard_normal((n, n))
    Q, _ = np.linalg.qr(G)
    M = (Q * lam) @ Q.conj().T
    return (M + M.conj().T) / 2


@pytest.mark.parametrize("complex_vectors", [False, True])
def test_schatten_probe_indefinite_matches_svd_oracle(complex_vectors):
    n_ref, n_list = 40, [4, 8, 16]
    M = _indefinite(n_ref, complex_vectors)
    assert bool(np.abs(M.imag).max() > 0.1) == complex_vectors
    for weight in (SobolevWeight(0.0), SobolevWeight(1.0)):
        got = schatten_convergence_probe(_element_of(M), weight, n_list, n_ref=n_ref)
        oracle = _scipy_schatten(M, weight, n_list)
        assert np.all(np.abs(got - oracle) <= 1e-12 * np.abs(oracle))


def _with_entry(i, value):
    M = np.eye(16)
    M[i, i] = value
    return M


@pytest.mark.parametrize(
    "M",
    [np.triu(np.ones((16, 16)))]
    # a non-finite entry outside the sampled symmetry pairs, or inside the
    # block that every residual zeroes before taking its norm
    + [_with_entry(i, bad) for i in (12, 1) for bad in (np.nan, np.inf)],
)
def test_schatten_probe_rejects_bad_matrix(M):
    with pytest.raises((HermiticityViolation, NonHermitianInput)):
        schatten_convergence_probe(_element_of(M), SobolevWeight(0.0), [4, 8], n_ref=16)


def _identity_element_with(mode, value):
    def element(l, k):
        return value if l == k == mode else float(l == k)

    return element


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize(
    "mode,error",
    # mode 5 (index 10) lies outside the sampled symmetry pairs and the
    # leading blocks; mode 1 (index 2) is sampled and inside the block
    # that every residual zeroes; either way the fault is the value
    [(5, NonHermitianInput), (1, NonHermitianInput)],
)
def test_schatten_probe_rejects_non_finite_element(mode, error, bad):
    with pytest.raises(error, match="finite"):
        schatten_convergence_probe(_identity_element_with(mode, bad), SobolevWeight(0.0), [4, 8], n_ref=16)
