"""Reference values of Tr exp(A) and of plan gains, independent of ``fconn``.

The benchmark checks the program's reported numbers against these. Nothing
here imports ``fconn``: graphs are built straight from edge arrays and the
Krylov method below keeps a fully reorthogonalized basis, so it cannot share
a loss-of-orthogonality defect with the program's two-block recurrence.

* Up to ``DENSE_MAX`` nodes, traces come from dense ``numpy.linalg.eigvalsh``.
* Above it, the gain of a low-rank change X = U B U^T comes from block
  Lanczos on span(U) with full reorthogonalization and a relative stop.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse

from generators import dense_adjacency

# Two dense n x n eigensolves take about 0.2 s at n = 1000, 1 s at n = 2000
# and 14 s at n = 5000 on two cores; above this size gains come from the
# Krylov reference, which runs in milliseconds and matches dense to 1e-11.
DENSE_MAX = 1000


def sparse_adjacency(n, edges, weights=None):
    """CSR adjacency of an edge array (each pair stored in both triangles)."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    w = np.ones(len(edges)) if weights is None else np.asarray(weights, dtype=float)
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    return scipy.sparse.csr_matrix((np.concatenate([w, w]), (rows, cols)), shape=(n, n))


def trace_exp_dense(A):
    """Tr exp(A) of a dense symmetric matrix from its spectrum."""
    return float(np.sum(np.exp(np.linalg.eigvalsh(A))))


def change_factors(n, changes):
    """X = sum d (e_i e_j^T + e_j e_i^T) for (i, j, d) triples, as (U, B).

    U holds one indicator column per touched node, so it is exactly
    orthonormal; B carries the signed deltas.
    """
    nodes = sorted({v for i, j, _ in changes for v in (i, j)})
    pos = {v: a for a, v in enumerate(nodes)}
    U = np.zeros((n, len(nodes)))
    U[nodes, np.arange(len(nodes))] = 1.0
    B = np.zeros((len(nodes), len(nodes)))
    for i, j, d in changes:
        B[pos[i], pos[j]] += d
        B[pos[j], pos[i]] += d
    return U, B


def gain_dense(A, changes):
    """Tr exp(A + X) - Tr exp(A) from two dense spectra."""
    X = np.zeros_like(A)
    for i, j, d in changes:
        X[i, j] += d
        X[j, i] += d
    return trace_exp_dense(A + X) - trace_exp_dense(A)


def gain_lanczos(A, U, B, rtol=1e-10, m_max=200):
    """Tr exp(A + U B U^T) - Tr exp(A) by fully reorthogonalized block Lanczos.

    X lies in span(U), the first block of the Krylov space K_m(A, U), so
    with basis V_m and T_m = V_m^T A V_m the gain is approximated by
    Tr exp(T_m + E) - Tr exp(T_m), E = (V_m^T U) B (V_m^T U)^T. Every new
    block is orthogonalized twice against the whole basis, so T_m has no
    spurious Ritz copies. Stops once two successive changes of the estimate
    are below ``rtol`` times its size (plus the rounding floor of the two
    projected traces it subtracts), or when the space is exhausted (then the
    value is exact). Raises RuntimeError after ``m_max`` blocks.
    """
    n, s = U.shape
    anorm = float(abs(A).sum(axis=0).max())
    V = np.empty((n, min(n, s * 16)))
    V[:, :s] = U
    AV = A @ U
    T = U.T @ AV
    k = s
    history = []
    for _ in range(m_max):
        Tk = 0.5 * (T + T.T)
        E = np.zeros_like(Tk)
        E[:s, :s] = B
        base = float(np.sum(np.exp(np.linalg.eigvalsh(Tk))))
        value = float(np.sum(np.exp(np.linalg.eigvalsh(Tk + E)))) - base
        history.append(value)
        tol = rtol * abs(value) + 100 * np.finfo(float).eps * base
        if len(history) >= 3 and all(
            abs(history[-1 - d] - history[-2 - d]) <= tol for d in (0, 1)
        ):
            return value
        W = AV
        for _ in range(2):
            W = W - V[:, :k] @ (V[:, :k].T @ W)
        Q, R, _ = scipy.linalg.qr(W, mode="economic", pivoting=True)
        r = int(np.sum(np.abs(np.diag(R)) > 1e-10 * max(anorm, 1.0)))
        if r == 0 or k >= n:
            return value
        r = min(r, n - k)
        Q = Q[:, :r]
        if k + r > V.shape[1]:
            V = np.hstack([V, np.empty((n, min(n, 2 * V.shape[1]) - V.shape[1]))])
        V[:, k : k + r] = Q
        AQ = A @ Q
        top = V[:, :k].T @ AQ
        T = np.block([[T, top], [top.T, Q.T @ AQ]])
        AV = AQ
        k += r
    raise RuntimeError(f"reference Lanczos did not reach rtol={rtol} in {m_max} blocks")


def plan_gain(n, edges, weights, changes):
    """Reference Tr exp(A + X) - Tr exp(A) for a list of (i, j, delta) changes."""
    if n <= DENSE_MAX:
        return gain_dense(dense_adjacency(n, edges, weights), changes)
    U, B = change_factors(n, changes)
    return gain_lanczos(sparse_adjacency(n, edges, weights), U, B)
