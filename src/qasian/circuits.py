"""Statevector simulation and block-encoding algebra.

A block-encoding here is a concrete unitary matrix on (ancilla (x)
system) whose top-left system block equals the target operator divided
by a sub-normalization alpha.  Encodings compose by product (alphas
multiply) and by linear combination (alphas add with |d| weights), and
every constructor keeps an operator-norm error bound alongside.

Ancilla registers always sit above (more significant than) the system
register, so the projected block is simply U[:d, :d].
"""

from dataclasses import dataclass
import math
import warnings

import numpy as np

from .errors import ValidationError, PostSelectionWarning
from .grid import build_dct, build_dst, eta_hat_diagonal


@dataclass
class StateVector:
    """Normalized amplitudes of a power-of-two register.

    Real amplitudes are kept real (float64), complex ones complex
    (complex128): a real solution state costs half the memory, and
    |amplitude|^2 is the same either way.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes)
        self.amplitudes = np.asarray(
            amps, dtype=complex if np.iscomplexobj(amps) else float)
        n = self.amplitudes.size
        if n & (n - 1):
            raise ValidationError("amplitude count must be a power of two")


@dataclass(frozen=True)
class BlockEncoding:
    """(alpha, n_anc, err) block-encoding with an explicit unitary."""

    unitary: np.ndarray
    alpha: float
    n_anc: int
    err: float

    @property
    def dim_system(self):
        return self.unitary.shape[0] >> self.n_anc

    def top_block(self):
        """The encoded operator estimate alpha * (<0|(x)I) U (|0>(x)I)."""
        d = self.dim_system
        return self.alpha * self.unitary[:d, :d]


def cyclic_shift(n, w):
    """Permutation |x> -> |x + w mod 2^n> as a dense matrix."""
    N = 2 ** n
    if abs(w) >= N:
        raise ValidationError(f"|w| must be < 2^{n}")
    return np.roll(np.eye(N), w, axis=0)


def lcu(terms, dim_system):
    """Generic linear-combination-of-unitaries block-encoding.

    terms: sequence of (coefficient, unitary).  Uses a = ceil(log2(L))
    prepare ancillas (0 for a single term); alpha = sum |coefficients|.
    Complex coefficient phases are folded into the selected unitaries.
    """
    terms = [(complex(c), np.asarray(U, dtype=complex)) for c, U in terms]
    if not terms:
        raise ValidationError("lcu needs at least one term")
    for _, U in terms:
        if U.shape != (dim_system, dim_system):
            raise ValidationError("all LCU terms must act on the system dimension")
    alpha = sum(abs(c) for c, _ in terms)
    if alpha == 0:
        # zero operator: one ancilla flipped away from |0> encodes it
        X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        return BlockEncoding(np.kron(X, np.eye(dim_system, dtype=complex)),
                             1.0, 1, 0.0)
    L = len(terms)
    a = max(0, (L - 1).bit_length())
    if a == 0:
        c, U = terms[0]
        phase = c / abs(c)
        return BlockEncoding(phase * U, alpha, 0, 0.0)
    La = 2 ** a
    # prepare unitary: first column sqrt(|c_i|/alpha), completed by QR
    col = np.zeros(La)
    for i, (c, _) in enumerate(terms):
        col[i] = math.sqrt(abs(c) / alpha)
    basis = np.eye(La)
    basis[:, 0] = col
    P, _ = np.linalg.qr(basis)
    # fix possible sign flip from QR so P[:,0] == col
    if P[:, 0] @ col < 0:
        P = -P
    sel = np.zeros((La * dim_system, La * dim_system), dtype=complex)
    for i in range(La):
        blk = slice(i * dim_system, (i + 1) * dim_system)
        if i < L:
            c, U = terms[i]
            phase = c / abs(c) if c != 0 else 1.0
            sel[blk, blk] = phase * U
        else:
            sel[blk, blk] = np.eye(dim_system)
    Pd = np.kron(P, np.eye(dim_system))
    return BlockEncoding(Pd.conj().T @ sel @ Pd, alpha, a, 0.0)


def _multi_controlled_y(n, sign=+1):
    """sign*Y on the lowest qubit, controlled on all higher qubits = 1."""
    N = 2 ** n
    U = np.eye(N, dtype=complex)
    Y = np.array([[0.0, -1j], [1j, 0.0]])
    U[N - 2:N, N - 2:N] = sign * Y
    return U


def build_ctau1_encoding(spec):
    """Block-encode the central time derivative from four shift/Y terms.

    Terms (delta = delta_tau1, S = cyclic shift by +1, CY = Y on the low
    qubit controlled on all others):
        (i/(2 delta))  I (x) Y
        (i/(2 delta))  S (I (x) Y) S^dag
        (-i/(4 delta)) S (C..C Y) S^dag
        (+i/(4 delta)) S (C..C(-Y)) S^dag
    The last two cancel the periodic wrap-around entries, leaving the
    Dirichlet (zero-corner) tridiagonal matrix; alpha = 3/(2 delta).
    """
    n = spec.n_tau1
    N = 2 ** n
    delta = spec.delta_tau1
    Y = np.array([[0.0, -1j], [1j, 0.0]])
    IY = np.kron(np.eye(N // 2), Y)
    S = cyclic_shift(n, 1)
    terms = [
        (1j / (2 * delta), IY),
        (1j / (2 * delta), S @ IY @ S.T),
        (-1j / (4 * delta), S @ _multi_controlled_y(n, +1) @ S.T),
        (+1j / (4 * delta), S @ _multi_controlled_y(n, -1) @ S.T),
    ]
    return lcu(terms, N)


def _z_string_coefficients(diag, n):
    """Walsh-Hadamard expansion of a diagonal over Z strings.

    Returns an array c of length 2^n with
        diag[x] = sum_s c[s] * prod_{j in s} (-1)^{bit_j(x)}
    where s is a bit mask of the Z positions.
    """
    c = np.asarray(diag, dtype=complex).reshape((2,) * n)
    for ax in range(n):
        lo = np.take(c, 0, axis=ax)
        hi = np.take(c, 1, axis=ax)
        c = np.stack([(lo + hi) / 2.0, (lo - hi) / 2.0], axis=ax)
    return c.reshape(-1)


def _z_string_matrix(mask, n):
    x = np.arange(2 ** n)
    parity = np.array([bin(v & mask).count("1") & 1 for v in x])
    return np.diag((1 - 2 * parity).astype(complex))


def encode_diagonal(op, n):
    """LCU block-encoding of a diagonal operator via its Z-string expansion.

    The identity slot is always reserved (even at zero coefficient), so
    an operator supported on single-qubit Z terms uses
    ceil(log2(n_terms + 1)) ancillas, matching the qubit accounting of
    the circuit constructions.  Z strings whose coefficient is at most
    1e-14 in magnitude are dropped.
    """
    op = np.asarray(op)
    if op.ndim != 2 or np.any(op != np.diag(np.diag(op))):
        raise ValidationError("encode_diagonal requires a diagonal matrix")
    diag = np.diag(op).astype(complex)
    coeffs = _z_string_coefficients(diag, n)
    terms = [(coeffs[0], np.eye(2 ** n, dtype=complex))]
    for mask in range(1, 2 ** n):
        if abs(coeffs[mask]) > 1e-14:
            terms.append((coeffs[mask], _z_string_matrix(mask, n)))
    return lcu(terms, 2 ** n)


def encode_eta(spec):
    """Block-encoding of the normalized position operator eta_hat."""
    n = spec.n_eta
    return encode_diagonal(np.diag(eta_hat_diagonal(n)), n)


def encode_spectral(spec):
    """Block-encoding of C^T diag(0..N-1) X S = D_eta/(pi/(2*eta_max)).

    diag(0..N-1)'s encoding times the orthogonal C^T on the left and X S
    on the right (on the system register): alpha and err are unchanged.
    """
    n = spec.n_eta
    base = encode_diagonal(np.diag(np.arange(2.0 ** n)), n)
    anc = np.eye(2 ** base.n_anc)
    return BlockEncoding(np.kron(anc, build_dct(n).T) @ base.unitary
                         @ np.kron(anc, cyclic_shift(n, 1) @ build_dst(n)),
                         base.alpha, base.n_anc, base.err)


def _embed(U, n_anc_op, n_anc_low, dim_sys):
    """Embed U acting on (op ancillas (x) system) with extra idle
    ancillas of width n_anc_low inserted between them."""
    do = 2 ** n_anc_op
    dl = 2 ** n_anc_low
    if n_anc_low == 0:
        return U
    T = np.asarray(U, dtype=complex).reshape(do, dim_sys, do, dim_sys)
    M = np.einsum("abcd,ef->aebcfd", T, np.eye(dl, dtype=complex))
    return M.reshape(do * dl * dim_sys, do * dl * dim_sys)


def be_product(u, v):
    """Encoding of the operator product (u's operator) @ (v's operator).

    Follows the composition rule (alpha*beta, a+b, alpha*eps + beta*delta);
    ancillas concatenate with u's on top.
    """
    d = u.dim_system
    if v.dim_system != d:
        raise ValidationError("system dimensions differ")
    Uu = _embed(u.unitary, u.n_anc, v.n_anc, d)
    Uv = np.kron(np.eye(2 ** u.n_anc), v.unitary)
    return BlockEncoding(Uu @ Uv,
                         u.alpha * v.alpha,
                         u.n_anc + v.n_anc,
                         u.alpha * v.err + v.alpha * u.err)


def be_lincomb(d1, u, d2, v):
    """Encoding of d1*A + d2*B via a one-qubit prepare/select stage.

    Follows (|d1|*alpha + |d2|*beta, a+b+1, |d1|*delta + |d2|*eps).
    """
    d = u.dim_system
    if v.dim_system != d:
        raise ValidationError("system dimensions differ")
    w1 = abs(d1) * u.alpha
    w2 = abs(d2) * v.alpha
    alpha = w1 + w2
    if alpha == 0:
        raise ValidationError("zero linear combination")
    p1 = d1 / abs(d1) if d1 != 0 else 1.0
    p2 = d2 / abs(d2) if d2 != 0 else 1.0
    Uu = p1 * _embed(u.unitary, u.n_anc, v.n_anc, d)
    Uv = p2 * np.kron(np.eye(2 ** u.n_anc), v.unitary)
    sub = Uu.shape[0]
    sel = np.zeros((2 * sub, 2 * sub), dtype=complex)
    sel[:sub, :sub] = Uu
    sel[sub:, sub:] = Uv
    theta = np.array([[math.sqrt(w1 / alpha), -math.sqrt(w2 / alpha)],
                      [math.sqrt(w2 / alpha), math.sqrt(w1 / alpha)]])
    P = np.kron(theta, np.eye(sub))
    return BlockEncoding(P.T @ sel @ P,
                         alpha,
                         u.n_anc + v.n_anc + 1,
                         abs(d1) * u.err + abs(d2) * v.err)


def be_apply(be, state):
    """Post-selected application of an encoded operator to a state.

    Returns the normalized state (A/alpha)|psi>/||.|| and the ancilla
    all-zero success probability ||(A/alpha)|psi>||^2.  Below a success
    probability of 1e-12 it warns (PostSelectionWarning) and returns the
    zero state.
    """
    amps = state.amplitudes
    d = be.dim_system
    if amps.size != d:
        raise ValidationError("state dimension does not match encoding")
    out = be.unitary[:d, :d] @ amps
    success = float(np.vdot(out, out).real)
    if success < 1e-12:
        warnings.warn(
            f"post-selection probability {success:.3e} below floor "
            "1.0e-12", PostSelectionWarning)
        normed = np.zeros_like(out)
    else:
        normed = out / math.sqrt(success)
    return StateVector(normed), success


def encoding_report(be):
    """Machine-readable descriptor used by the dump-encoding CLI path."""
    return {
        "alpha": be.alpha,
        "n_anc": be.n_anc,
        "err": be.err,
        "dim_system": be.dim_system,
    }
