"""Pauli-basis decomposition of qubit operators.

A word index q in [0, 4^Q) is read in base 4, little-endian: digit
q_n selects the Pauli matrix acting on qubit n, and the full word is
sigma^{q_{Q-1}} x ... x sigma^{q_0} (most significant qubit first in the
Kronecker product, matching the |q_{Q-1} ... q_0> ket layout).  The
transform never materializes the 2^Q x 2^Q words.  A matrix entry
(j, k) is addressed by the base-4 digits 2 j_t + k_t, one per qubit t,
so ``decompose`` interleaves the row and column bits once and then maps
one digit per qubit with a 4 x 4 matrix: a single ``zgemm`` per qubit
reads the leading digit and writes its image as the trailing one, in
place into a buffer, so after Q maps every digit has been mapped, in
order, with no transposed copy in between.  The product runs in SciPy's
OpenBLAS pool, with the truncation probes and ``vacuum_state`` (the
``truncation`` module docstring states the rule).  ``reconstruct`` runs
the same maps from word digits to entry digits and de-interleaves once
at the end.  Each output of a map is a sum of exactly two nonzero
terms, each a product with 1, -1, i or -i (halved in ``decompose``'s
maps), so the result does not depend on how the matrix product orders
its sums.  The cost is O(Q 4^Q).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, NotPowerOfTwo
from .spectral import require_hermitian

__all__ = [
    "SIGMA",
    "PauliCoefficients",
    "decompose",
    "reconstruct",
]

SIGMA = np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)

# Digit maps: _TO_WORD[2j + k, d] = SIGMA[d, k, j] / 2 gives tr(M S^q) / 2^Q
# one qubit at a time, each map an average, so no partial sum exceeds
# max|M|; _TO_ENTRY[d, 2j + k] = SIGMA[d, j, k] sums the words.
_TO_WORD = SIGMA.transpose(2, 1, 0).reshape(4, 4) / 2
_TO_ENTRY = SIGMA.reshape(4, 4)


def _qubit_count(dim: int) -> int:
    q = dim.bit_length() - 1
    if dim < 2 or dim != 1 << q:
        raise NotPowerOfTwo(f"dimension {dim} is not a power of two >= 2")
    return q


@dataclass(frozen=True)
class PauliCoefficients:
    """Real expansion coefficients of a Hermitian operator in Pauli words."""

    qubits: int
    coeffs: np.ndarray

    def __post_init__(self):
        # an owned copy: a view (decompose's c.real) would keep its whole
        # base array alive, twice the size for a complex base
        c = np.array(self.coeffs, dtype=float)
        if c.shape != (4**self.qubits,):
            raise DimensionMismatch(f"coeffs shape {c.shape}, expected ({4 ** self.qubits},)")
        object.__setattr__(self, "coeffs", c)


def _map_digits(T: np.ndarray, G: np.ndarray, Q: int) -> np.ndarray:
    """Apply ``G`` to each of the Q base-4 digits of the flat array ``T``.

    Each step reads the leading digit and appends its image as the
    trailing one, so the digits come out in their original order.  ``T``
    is overwritten.
    """
    out = np.empty_like(T)
    for _ in range(Q):
        # out.reshape(-1, 4) = T.reshape(4, -1).T @ G, written through its
        # Fortran-ordered transpose G^T T.reshape(4, -1)
        scipy.linalg.blas.zgemm(
            1.0, G.T, T.reshape(4, -1).T, trans_b=1, c=out.reshape(-1, 4).T, overwrite_c=1
        )
        T, out = out, T
    return T


def decompose(M) -> PauliCoefficients:
    """Coefficients c_q = tr(M S^q) / 2^Q for a Hermitian M.

    One digit map per qubit (see the module docstring) keeps the cost at
    O(Q 4^Q) instead of the O(16^Q) of materializing every word.  The
    maps treat an entry and its mirror alike, which ``require_hermitian``
    makes exact conjugates, so every imaginary part is exactly 0.
    """
    M = require_hermitian(M)
    Q = _qubit_count(M.shape[0])
    # (j_{Q-1} .. j_0, k_{Q-1} .. k_0) -> (j_{Q-1}, k_{Q-1}, .., j_0, k_0),
    # copied, since the maps overwrite it
    interleave = [axis for t in range(Q) for axis in (t, Q + t)]
    T = M.reshape((2,) * (2 * Q)).transpose(interleave).copy().reshape(-1)
    return PauliCoefficients(Q, _map_digits(T, _TO_WORD, Q).real)


def reconstruct(c: PauliCoefficients) -> np.ndarray:
    """Operator sum_q coeffs[q] S^q, inverse of decompose."""
    Q = c.qubits
    T = _map_digits(c.coeffs.astype(complex), _TO_ENTRY, Q)
    # (j_{Q-1}, k_{Q-1}, .., j_0, k_0) -> (j_{Q-1} .. j_0, k_{Q-1} .. k_0)
    split = list(range(0, 2 * Q, 2)) + list(range(1, 2 * Q, 2))
    return T.reshape((2,) * (2 * Q)).transpose(split).reshape(2**Q, 2**Q)
