import numpy as np
import pytest

from zetavac import eig_hermitian, hydrogen_matrix, vacuum_state


@pytest.fixture(scope="session")
def hydrogen_vacuum():
    """Memoized hydrogen ground states; several suites share the big ones."""
    cache = {}

    def get(n):
        if n not in cache:
            cache[n] = vacuum_state(hydrogen_matrix(n))
        return cache[n]

    return get


def random_hermitian(n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (M + M.conj().T) / 2.0


def assert_same_ground_pair(val, vec, M):
    """Check a ground pair against the full heevd solve and eigvalsh."""
    E = eig_hermitian(M)
    assert val == pytest.approx(E.eigenvalues[0], rel=1e-10, abs=1e-10)
    assert val == pytest.approx(np.linalg.eigvalsh(M)[0], rel=1e-10, abs=1e-10)
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
    # unit overlap with the same phase: both solvers fix the largest
    # component to be real and positive
    assert np.vdot(E.vectors[:, 0], vec) == pytest.approx(1.0, abs=1e-10)
    lead = vec[np.argmax(np.abs(vec))]
    assert abs(lead.imag) < 1e-14 and lead.real > 0
