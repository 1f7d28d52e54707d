"""Pauli-basis decomposition of qubit operators.

A word index q in [0, 4^Q) is read in base 4, little-endian: digit
q_n selects the Pauli matrix acting on qubit n, and the full word is
sigma^{q_{Q-1}} x ... x sigma^{q_0} (most significant qubit first in the
Kronecker product, matching the |q_{Q-1} ... q_0> ket layout).  The
transform never materializes the 2^Q x 2^Q words for the full sweep:
each qubit is contracted against the stacked 2x2 Paulis in turn.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotPowerOfTwo
from .spectral import require_hermitian

__all__ = [
    "SIGMA",
    "PauliWord",
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


def _qubit_count(dim: int) -> int:
    q = dim.bit_length() - 1
    if dim < 2 or dim != 1 << q:
        raise NotPowerOfTwo(f"dimension {dim} is not a power of two >= 2")
    return q


@dataclass(frozen=True)
class PauliWord:
    """Tensor product of single-qubit Paulis, digits most significant first."""

    qubits: int
    digits: tuple

    def __post_init__(self):
        if self.qubits < 1:
            raise ValueError("need at least one qubit")
        if len(self.digits) != self.qubits or any(d not in (0, 1, 2, 3) for d in self.digits):
            raise ValueError(f"digits {self.digits} invalid for {self.qubits} qubits")

    @classmethod
    def from_index(cls, qubits: int, q: int) -> "PauliWord":
        if not 0 <= q < 4**qubits:
            raise ValueError(f"index {q} out of range for {qubits} qubits")
        digits = tuple((q >> (2 * n)) & 3 for n in reversed(range(qubits)))
        return cls(qubits, digits)

    @property
    def index(self) -> int:
        out = 0
        for d in self.digits:
            out = (out << 2) | d
        return out

    def label(self) -> str:
        return "".join(str(d) for d in self.digits)


@dataclass(frozen=True)
class PauliCoefficients:
    """Real expansion coefficients of a Hermitian operator in Pauli words."""

    qubits: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape != (4**self.qubits,):
            raise DimensionMismatch(f"coeffs shape {c.shape}, expected ({4 ** self.qubits},)")
        object.__setattr__(self, "coeffs", c)


def decompose(M) -> PauliCoefficients:
    """Coefficients c_q = tr(M S^q) / 2^Q for a Hermitian M.

    Contracting one qubit at a time keeps the cost at O(Q 4^Q) instead of
    the O(16^Q) of materializing every word.  Hermitian input guarantees
    real coefficients; residual imaginary parts beyond rounding raise.
    """
    M = require_hermitian(M)
    Q = _qubit_count(M.shape[0])
    T = M.reshape((2,) * (2 * Q))
    # tr(M S^q) = sum_{j,k} M_{jk} S^q_{kj}; qubit t of the row index j
    # pairs with SIGMA axis 2 and qubit t of the column index k with
    # SIGMA axis 1.  Contract most significant qubit first; each step
    # appends that qubit's word-digit axis at the end.
    for i in range(Q):
        T = np.tensordot(T, SIGMA, axes=([0, Q - i], [2, 1]))
    c = T.reshape(4**Q) / 2**Q
    scale = max(np.abs(c).max(), 1.0)
    if np.abs(c.imag).max() > 1e-12 * scale:
        raise ValueError(f"coefficients have imaginary part {np.abs(c.imag).max():.3e}")
    return PauliCoefficients(Q, c.real)


def reconstruct(c: PauliCoefficients) -> np.ndarray:
    """Operator sum_q coeffs[q] S^q, inverse of decompose."""
    Q = c.qubits
    T = c.coeffs.astype(complex).reshape((4,) * Q)
    for _ in range(Q):
        T = np.tensordot(T, SIGMA, axes=([0], [0]))
    # Axes come out interleaved (j_{Q-1}, k_{Q-1}, ..., j_0, k_0).
    perm = list(range(0, 2 * Q, 2)) + list(range(1, 2 * Q, 2))
    return T.transpose(perm).reshape(2**Q, 2**Q)
