"""Dense small-matrix kernels.

Scalar function catalog (exp, sinh, cosh, resolvent, polynomials) with first
derivatives and divided differences, symmetric eigendecomposition helpers,
and the mixed first-order term of ``f`` on a 2x2 block upper-triangular
matrix computed through divided differences (Daleckii-Krein).

Everything here operates on small dense matrices (projected quantities); the
large sparse work lives in :mod:`fconn.krylov`.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, ValidationError

__all__ = [
    "ScalarFunction",
    "Exp",
    "Sinh",
    "Cosh",
    "Resolvent",
    "Polynomial",
    "function_from_spec",
    "symmetrize",
    "sym_eig",
    "block_frechet",
]


def _sinhc(t):
    """sinh(t)/t, continuous at t = 0."""
    t = np.asarray(t, dtype=float)
    out = np.ones_like(t)
    nz = t != 0
    out[nz] = np.sinh(t[nz]) / t[nz]
    return out


class ScalarFunction:
    """A scalar function together with its derivative and divided differences.

    Subclasses provide ``__call__`` and ``divided_difference`` (both
    vectorized over numpy arrays), a ``derivative()`` factory returning
    the derivative as another :class:`ScalarFunction`, and ``check_spectrum``
    which raises :class:`DomainError` when eigenvalues fall outside the
    domain of analyticity/monotonicity.
    """

    name = "abstract"

    def __call__(self, x):
        raise NotImplementedError

    def derivative(self) -> "ScalarFunction":
        raise NotImplementedError

    def divided_difference(self, x, y):
        """First divided difference f[x, y], equal to f'(x) at coincidence."""
        raise NotImplementedError

    def check_spectrum(self, eigenvalues) -> None:
        """Raise DomainError if any eigenvalue lies outside the domain."""

    def __repr__(self):
        return f"<{type(self).__name__} {self.name}>"


class Exp(ScalarFunction):
    name = "exp"

    def __call__(self, x):
        return np.exp(x)

    def derivative(self):
        return self

    def divided_difference(self, x, y):
        # exp(x) - exp(y) = 2 exp((x+y)/2) sinh((x-y)/2), cancellation-free
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return np.exp((x + y) / 2.0) * _sinhc((x - y) / 2.0)


class Sinh(ScalarFunction):
    name = "sinh"

    def __call__(self, x):
        return np.sinh(x)

    def derivative(self):
        return Cosh()

    def divided_difference(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return np.cosh((x + y) / 2.0) * _sinhc((x - y) / 2.0)


class Cosh(ScalarFunction):
    name = "cosh"

    def __call__(self, x):
        return np.cosh(x)

    def derivative(self):
        return Sinh()

    def divided_difference(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return np.sinh((x + y) / 2.0) * _sinhc((x - y) / 2.0)


class Resolvent(ScalarFunction):
    """f(z) = scale / (1 - alpha z)**power; power=1, scale=1 is the Katz resolvent.

    Requires alpha * z < 1 on the spectrum in use. Derivatives stay in the
    family, so arbitrarily many of them are available in closed form.
    """

    def __init__(self, alpha, power=1, scale=1.0):
        if not 0 < alpha < np.inf:
            raise ValueError(f"resolvent parameter alpha must be positive and finite, got {alpha}")
        if power < 1:
            raise ValueError("resolvent power must be >= 1")
        self.alpha = float(alpha)
        self.power = int(power)
        self.scale = float(scale)

    @property
    def name(self):
        if self.power == 1 and self.scale == 1.0:
            return f"resolvent(alpha={self.alpha:g})"
        return f"resolvent(alpha={self.alpha:g}, power={self.power}, scale={self.scale:g})"

    def _u(self, x):
        u = 1.0 - self.alpha * np.asarray(x, dtype=float)
        if np.any(u <= 0):
            raise DomainError(
                f"resolvent pole crossed: alpha*z >= 1 for alpha={self.alpha:g}"
            )
        return u

    def __call__(self, x):
        return self.scale * self._u(x) ** (-self.power)

    def derivative(self):
        return Resolvent(self.alpha, self.power + 1, self.scale * self.power * self.alpha)

    def divided_difference(self, x, y):
        # (u**-p - v**-p)/(x - y) = alpha * sum_i u**i v**(p-1-i) / (u v)**p
        u = self._u(x)
        v = self._u(y)
        u, v = np.broadcast_arrays(u, v)
        acc = np.zeros_like(u)
        for i in range(self.power):
            acc += u**i * v ** (self.power - 1 - i)
        return self.scale * self.alpha * acc / (u**self.power * v**self.power)

    def check_spectrum(self, eigenvalues):
        self._u(eigenvalues)


class Polynomial(ScalarFunction):
    """f(z) = c[0] + c[1] z + ... + c[d] z**d with exact divided differences."""

    def __init__(self, coeffs):
        coeffs = np.atleast_1d(np.asarray(coeffs, dtype=float))
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise ValueError("polynomial coefficients must be a nonempty 1-D sequence")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError(f"polynomial coefficients must be finite, got {coeffs}")
        self.coeffs = coeffs

    @property
    def name(self):
        return "poly(" + ",".join(f"{c:g}" for c in self.coeffs) + ")"

    @property
    def degree(self):
        nz = np.nonzero(self.coeffs)[0]
        return int(nz[-1]) if nz.size else 0

    def __call__(self, x):
        return np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), self.coeffs)

    def derivative(self):
        dc = np.polynomial.polynomial.polyder(self.coeffs)
        if dc.size == 0:
            dc = np.zeros(1)
        return Polynomial(dc)

    def divided_difference(self, x, y):
        # f[x,y] = sum_k c_k h_k with h_k = (x^k - y^k)/(x - y), via the
        # recurrence h_{k+1} = x h_k + y^k (exact, no cancellation)
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        x, y = np.broadcast_arrays(x, y)
        h = np.zeros_like(x)
        ypow = np.ones_like(y)
        acc = np.zeros_like(x)
        for k, c in enumerate(self.coeffs):
            if k > 0:
                h = x * h + ypow
                ypow = ypow * y
            if c != 0.0:
                acc += c * h
        return acc


def function_from_spec(spec: str) -> ScalarFunction:
    """Parse a function tag such as ``exp``, ``resolvent:alpha=0.05`` or ``poly:1,0,2``.

    A malformed tag, a number that does not parse and a parameter the
    function's constructor rejects all raise :class:`ValidationError`.
    """
    try:
        return _parse_function(spec)
    except ValueError as exc:
        raise ValidationError(f"bad function {spec!r}: {exc}") from None


def _parse_function(spec):
    head, _, rest = spec.partition(":")
    head = head.strip().lower()
    if head == "exp":
        return Exp()
    if head == "sinh":
        return Sinh()
    if head == "cosh":
        return Cosh()
    if head == "resolvent":
        if not rest:
            raise ValueError("resolvent requires a parameter, e.g. resolvent:alpha=0.05")
        key, _, val = rest.partition("=")
        if key.strip() != "alpha":
            raise ValueError(f"unknown resolvent parameter {key!r}")
        return Resolvent(float(val))
    if head == "poly":
        if not rest:
            raise ValueError("poly requires coefficients, e.g. poly:0,0,1 for z^2")
        return Polynomial([float(tok) for tok in rest.split(",")])
    raise ValueError("unknown function tag")


def symmetrize(H):
    """Return (H + H.T)/2 as a float array."""
    H = np.asarray(H, dtype=float)
    return 0.5 * (H + H.T)


def sym_eig(H):
    """Eigendecomposition of a (defensively symmetrized) matrix.

    Returns ``(w, Q)`` with eigenvalues ascending and ``H ~ Q diag(w) Q.T``.
    Uses ``numpy.linalg.eigh``, whose LAPACK driver is the divide-and-conquer
    ``syevd``.
    """
    H = symmetrize(H)
    if H.shape[0] < 1:
        raise ValueError("matrix order must be >= 1")
    return np.linalg.eigh(H)


def block_frechet(f: ScalarFunction, H, G, E):
    """(1,2) block of f([[H, E], [0, G]]) for symmetric H and G.

    Computed with divided differences on the two spectra: with H = Q L Q.T and
    G = P M P.T the block equals Q (D o (Q.T E P)) P.T where
    D[a, b] = f[L_a, M_b]. ``E`` may be rectangular when H and G have
    different orders. Its one caller, ``krylov.multiple_frechet_eval``, is
    the tests' reference for the weighted Hessian.
    """
    w1, Q = sym_eig(H)
    w2, P = sym_eig(G)
    f.check_spectrum(w1)
    f.check_spectrum(w2)
    E = np.asarray(E, dtype=float)
    if E.shape != (len(w1), len(w2)):
        raise ValueError(f"direction must have shape {(len(w1), len(w2))}, got {E.shape}")
    D = f.divided_difference(w1[:, None], w2[None, :])
    return Q @ (D * (Q.T @ E @ P)) @ P.T
