"""Dense reference implementations, independent of the package's numerics.

Matrix functions are evaluated through scipy's expm / explicit inverses /
matrix arithmetic (never through the eigendecomposition route the package
itself uses), so these can serve as oracles for it.
"""

from types import SimpleNamespace

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from fconn.krylov import SKETCH_POWER, _rademacher, multiple_frechet_eval
from fconn.matfun import Cosh, Exp, Polynomial, Resolvent, Sinh


def matrix_function(f, M):
    """f(M) for a (possibly nonsymmetric) dense matrix M."""
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    if isinstance(f, Exp):
        return scipy.linalg.expm(M)
    if isinstance(f, Sinh):
        return 0.5 * (scipy.linalg.expm(M) - scipy.linalg.expm(-M))
    if isinstance(f, Cosh):
        return 0.5 * (scipy.linalg.expm(M) + scipy.linalg.expm(-M))
    if isinstance(f, Resolvent):
        base = np.linalg.inv(np.eye(n) - f.alpha * M)
        return f.scale * np.linalg.matrix_power(base, f.power)
    if isinstance(f, Polynomial):
        out = np.zeros_like(M)
        for c in f.coeffs[::-1]:
            out = out @ M + c * np.eye(n)
        return out
    raise TypeError(f"no dense oracle for {f!r}")


def trace_function(f, M):
    return float(np.trace(matrix_function(f, M)))


def frechet_block(f, M, E):
    """Derivative of f at M along E via f of the 2n x 2n augmented matrix."""
    M = np.asarray(M, dtype=float)
    E = np.asarray(E, dtype=float)
    n = M.shape[0]
    aug = np.block([[M, E], [np.zeros((n, n)), M]])
    return matrix_function(f, aug)[:n, n:]


def dense_adjacency(g):
    return g.adjacency.toarray()


def trace_delta(f, A, X):
    """Tr f(A + X) - Tr f(A) densely."""
    return trace_function(f, A + X) - trace_function(f, A)


def symmetric_edge_matrix(n, i, j, delta=1.0):
    X = np.zeros((n, n))
    X[i, j] += delta
    X[j, i] += delta
    return X


def assemble_update(n, F, x):
    X = np.zeros((n, n))
    for h, (i, j) in enumerate(F):
        X[i, j] += x[h]
        X[j, i] += x[h]
    return X


def hessian(fp, M, F):
    """Hessian of Tr f at symmetric M over the edge weights of F, given fp = f'.

    Entry (h, g) is 2 L_{f'}(M, E_g)[a, b] for h = (a, b) and
    E_g = 1_c 1_d^T + 1_d 1_c^T, g = (c, d). With f' = exp the Frechet
    derivative is the integral of e^{sM} E e^{(1-s)M} over [0, 1], taken by
    40-point Gauss-Legendre with e^{sM} applied to the node columns by
    scipy's ``expm_multiply``. For the resolvent power f' = c (I - alpha M)^{-q}
    it is c alpha sum_{j=1..q} R^j E R^{q+1-j} with R = (I - alpha M)^{-1}.
    Either way the derivative is a sum of terms left E right, and only the
    rows and columns of left and right at F's nodes are needed. M is dense.
    """
    nodes = sorted({v for p in F for v in p})
    pos = {v: k for k, v in enumerate(nodes)}
    ia = np.array([pos[i] for i, _ in F])
    ib = np.array([pos[j] for _, j in F])
    n = M.shape[0]
    U = np.zeros((n, len(nodes)))
    U[nodes, np.arange(len(nodes))] = 1.0
    if isinstance(fp, Exp):
        s, w = np.polynomial.legendre.leggauss(40)
        s, w = (s + 1.0) / 2.0, w / 2.0  # symmetric about 1/2: s[-1-k] = 1 - s[k]
        M = scipy.sparse.csc_matrix(M)
        powers = [scipy.sparse.linalg.expm_multiply(t * M, U)[nodes] for t in s]
        terms = [(w[k], powers[k], powers[-1 - k]) for k in range(len(s))]
    elif isinstance(fp, Resolvent):
        R = np.linalg.inv(np.eye(n) - fp.alpha * M)
        powers = [U]
        for _ in range(fp.power):
            powers.append(R @ powers[-1])
        powers = [P[nodes] for P in powers]
        c = fp.scale * fp.alpha
        terms = [(c, powers[j], powers[fp.power + 1 - j]) for j in range(1, fp.power + 1)]
    else:
        raise TypeError(f"no dense Hessian oracle for {fp!r}")
    H = np.zeros((len(F), len(F)))
    for weight, left, right in terms:
        H += weight * (
            left[np.ix_(ia, ia)] * right[np.ix_(ib, ib)] + left[np.ix_(ia, ib)] * right[np.ix_(ib, ia)]
        )
    return 2.0 * H


def sym_matrix(M):
    """A dense symmetric M as the Krylov routines read a graph, for an M that is no graph.

    A + X can have negative entries, which no SparseSymGraph holds. The
    stand-in has the graph attributes the routines use: ``n``, the sorted
    CSR ``adjacency``, its ``csr_arrays``, the product ``matmul`` and
    ``norm1``, the largest absolute column sum.
    """
    A = scipy.sparse.csr_matrix(M)
    norm1 = float(np.max(np.abs(A).sum(axis=0))) if A.nnz else 0.0
    return SimpleNamespace(
        n=A.shape[0],
        adjacency=A,
        csr_arrays=(A.indptr, A.indices, A.data),
        matmul=lambda X: A @ X,
        norm1=norm1,
    )


def frechet_hessian(fp, M, F, tol=1e-12):
    """The same Hessian from ``multiple_frechet_eval`` at M = A + X.

    One Arnoldi space per node of F, at A + X, and one divided-difference
    core per edge: the formula the weighted solver used before a single
    Krylov model served a whole solve.
    """
    res = multiple_frechet_eval(sym_matrix(M), F, fp, tol=tol)
    H = np.array([[res.entry(p, h, k) + res.entry(p, k, h) for h, k in F] for p in F])
    return H + H.T


def _lanczos(A, start, m_max):
    """Single-vector Lanczos from the unit vector ``start``, one order at a time.

    Yields (m, T_m, basis, grew) for m = 1, ..., m_max, with the basis kept
    whole. The recurrence is the package's: two orthogonalization passes
    against the previous two basis vectors, and exhaustion (grew False) once
    the new vector's norm is at most 1e-12 max(1, ||A||_1).
    """
    thr = 1e-12 * max(1.0, float(np.max(np.abs(A).sum(axis=0))))
    basis = [start]
    H = np.zeros((m_max + 1, m_max + 1))
    for m in range(1, m_max + 1):
        s = m - 1
        W = np.asarray(A @ basis[s], dtype=float).ravel()
        for _ in range(2):
            for k in range(max(s - 1, 0), s + 1):
                c = float(basis[k] @ W)
                W = W - c * basis[k]
                H[k, s] += c
        beta = float(np.linalg.norm(W))
        grew = beta > thr
        if grew:
            basis.append(W / beta)
            H[s + 1, s] = beta
        yield m, 0.5 * (H[:m, :m] + H[:m, :m].T), basis, grew
        if not grew:
            return


def lanczos_action(A, f, v, lag=2, tol=1e-8, m_max=80):
    """f(A) v by single-vector Lanczos, one vector at a time.

    The plain loop that keeps the basis V_m, with the lagged stopping test on
    the coefficient vector y_m = f(T_m) V_m^T v, whose start coordinates are
    inner products with the basis.
    """
    A = getattr(A, "adjacency", A)
    v = np.asarray(v, dtype=float)
    nv = float(np.linalg.norm(v))
    if nv == 0.0:
        return np.zeros_like(v)
    start = v / nv
    history = {}
    for m, T, basis, grew in _lanczos(A, start, m_max):
        w0 = np.array([float(q @ start) for q in basis[:m]])
        lam, Z = scipy.linalg.eigh(T)
        y = Z @ (f(lam) * (Z.T @ w0)) * nv
        if m > lag:
            prev = history[m - lag]
            d = y.copy()
            d[: prev.size] -= prev
            if np.linalg.norm(d) <= tol * max(np.linalg.norm(y), 1e-300):
                return np.column_stack(basis[:m]) @ y
        history[m] = y
        if not grew:
            return np.column_stack(basis[:m]) @ y
    raise RuntimeError("reference Lanczos did not converge")


def lanczos_form(A, f, v, lag=2, tol=1e-8, m_max=80):
    """v^T f(A) v = ||v||^2 e_1^T f(T_m) e_1 by single-vector Lanczos.

    The per-vector loop of the package's lockstep kernel, with its stop: the
    first m > lag with |form_m - form_{m-lag}| <= max(tol |form_m|,
    100 eps ||v||^2 max |f(T_m)|), or exhaustion of the Krylov space.
    """
    A = getattr(A, "adjacency", A)
    v = np.asarray(v, dtype=float)
    sq = float(v @ v)
    if sq == 0.0:
        return 0.0
    forms = []
    for m, T, _, grew in _lanczos(A, v / np.sqrt(sq), m_max):
        lam, Z = scipy.linalg.eigh(T)
        fl = f(lam)
        forms.append(sq * float(np.sum(fl * Z[0] ** 2)))
        floor = 100.0 * np.finfo(float).eps * sq * float(np.max(np.abs(fl)))
        if m > lag and abs(forms[-1] - forms[-1 - lag]) <= max(tol * abs(forms[-1]), floor):
            return forms[-1]
        if not grew:
            return forms[-1]
    raise RuntimeError("reference Lanczos did not converge")


def hutchpp_per_probe(A, f, n_probes=40, seed=0, tol=1e-8, m_max=80):
    """Hutch++ estimate of Tr(f(A)) with one Lanczos run per probe vector.

    Same sign draws (the package's SplitMix64 streams 0 and 1 of ``seed``),
    the same power sketch Q = orth(A^SKETCH_POWER S) and the same
    sketch/residual split as ``fconn.krylov.estimate_trace_f``;
    every quadratic form is a separate :func:`lanczos_form` call. Q is
    orthonormalized by LAPACK's Householder QR, not the estimate's SVQB, so
    agreement also checks that the estimate depends on the sketch's span only.
    """
    A = getattr(A, "adjacency", A)
    n = A.shape[0]
    half = n_probes // 2

    def form(x):
        return lanczos_form(A, f, x, tol=tol, m_max=m_max)

    Q = _rademacher(seed, np.empty((n, half)))
    for _ in range(SKETCH_POWER):
        Q, _ = np.linalg.qr(A @ Q)
    sketch = sum(form(Q[:, c]) for c in range(Q.shape[1]))
    Z = _rademacher(seed, np.empty((n, half)), stream=1)
    G = Z - Q @ (Q.T @ Z)
    resid = sum(form(G[:, c]) for c in range(half)) / half
    return sketch + resid
