"""Dense reference implementations, independent of the package's numerics.

Matrix functions are evaluated through scipy's expm / explicit inverses /
matrix arithmetic (never through the eigendecomposition route the package
itself uses), so these can serve as oracles for it.
"""

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from fconn.krylov import multiple_frechet_eval
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


def frechet_hessian(fp, M, F, tol=1e-12):
    """The same Hessian from ``multiple_frechet_eval`` at M = A + X.

    One Arnoldi space per node of F, at A + X, and one divided-difference
    core per edge: the formula the weighted solver used before a single
    Krylov model served a whole solve.
    """
    res = multiple_frechet_eval(scipy.sparse.csr_matrix(M), F, fp, tol=tol)
    H = np.array([[res.entry(p, h, k) + res.entry(p, k, h) for h, k in F] for p in F])
    return H + H.T


def lanczos_action(A, f, v, lag=2, tol=1e-8, m_max=80):
    """f(A) v by single-vector Lanczos, one vector at a time.

    The per-vector algorithm the package's lockstep kernel replaced, as a
    plain loop that keeps the basis: the same recurrence (two
    orthogonalization passes against the previous two basis vectors,
    exhaustion once the new vector's norm is at most 1e-12 max(1, ||A||_1))
    and the same lagged stopping test.
    """
    A = getattr(A, "adjacency", A)
    v = np.asarray(v, dtype=float)
    nv = float(np.linalg.norm(v))
    if nv == 0.0:
        return np.zeros_like(v)
    thr = 1e-12 * max(1.0, float(np.max(np.abs(A).sum(axis=0))))
    start = v / nv
    basis = [start]
    H = np.zeros((m_max + 1, m_max + 1))
    w0 = [float(start @ start)]
    history = {}
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
            w0.append(float(basis[-1] @ start))
        T = 0.5 * (H[:m, :m] + H[:m, :m].T)
        lam, Z = scipy.linalg.eigh(T)
        y = Z @ (f(lam) * (Z.T @ np.array(w0[:m]))) * nv
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


def hutchpp_per_probe(A, f, n_probes=40, seed=0, tol=1e-8, m_max=80):
    """Hutch++ estimate of Tr(f(A)) with one Lanczos run per probe vector.

    Same random draws and the same sketch/residual split as
    ``fconn.krylov.estimate_trace_f``; every f(A) x is a separate
    :func:`lanczos_action` call.
    """
    A = getattr(A, "adjacency", A)
    n = A.shape[0]
    rng = np.random.default_rng(seed)
    half = n_probes // 2

    def action(x):
        return lanczos_action(A, f, x, tol=tol, m_max=m_max)

    S = rng.integers(0, 2, size=(n, half)) * 2.0 - 1.0
    Q, _ = np.linalg.qr(np.column_stack([action(S[:, c]) for c in range(half)]))
    sketch = sum(float(Q[:, c] @ action(Q[:, c])) for c in range(Q.shape[1]))
    Z = rng.integers(0, 2, size=(n, half)) * 2.0 - 1.0
    G = Z - Q @ (Q.T @ Z)
    resid = sum(float(G[:, c] @ action(G[:, c])) for c in range(half)) / half
    return sketch + resid
