"""Problem and candidate-solution data model.

A problem instance is a Hermitian pair (A, C) with C indefinite.  A
candidate solution is a triplet (mu, lam, x) of two real scalars and a
complex vector.  This module owns the nonlinear residual map

    F(mu, lam, x) = [ (A - mu*C - lam*I) x ;  -x^H C x / 2 ;  (1 - x^H x)/2 ]

whose roots are the solutions of the two-parameter problem, its bordered
(n+2) x (n+2) Jacobian, and JSON file I/O for pairs and triplets.
"""

import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import NotIndefinite, TwoDevpError
from .kernels import check_hermitian


@dataclass(frozen=True)
class HermitianPair:
    """A Hermitian pair (A, C) with C indefinite."""

    a: np.ndarray
    c: np.ndarray
    n: int = field(init=False)
    norm_a: float = field(init=False)
    norm_c: float = field(init=False)

    def __post_init__(self):
        a = check_hermitian(self.a)
        c = check_hermitian(self.c)
        if a.shape != c.shape:
            raise TwoDevpError("A is %dx%d but C is %dx%d" % (a.shape + c.shape))
        try:
            wa, wc = np.linalg.eigvalsh(a), np.linalg.eigvalsh(c)  # ascending
        except np.linalg.LinAlgError as exc:
            raise TwoDevpError(str(exc))
        norm_a, norm_c = max(-wa[0], wa[-1]), max(-wc[0], wc[-1])
        thr = 1e-12 * max(norm_c, 1e-300)
        if not (wc[-1] > thr and wc[0] < -thr):
            raise NotIndefinite("C must have both positive and negative eigenvalues")
        a.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "n", a.shape[0])
        object.__setattr__(self, "norm_a", float(norm_a))
        object.__setattr__(self, "norm_c", float(norm_c))

    def scale(self, mu, lam):
        """Natural residual scale at (mu, lam)."""
        return self.norm_a + abs(mu) * self.norm_c + abs(lam) + 1.0


@dataclass(frozen=True)
class Triplet:
    """Candidate solution (mu, lam, x) with x a complex n-vector."""

    mu: float
    lam: float
    x: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=complex).reshape(-1).copy()
        x.setflags(write=False)
        object.__setattr__(self, "mu", float(self.mu))
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "x", x)

    @classmethod
    def normalized(cls, mu, lam, x):
        """The triplet (mu, lam, x / |x|); ValueError for a non-finite or zero start."""
        x = np.asarray(x, dtype=complex).reshape(-1)
        if not (math.isfinite(mu) and math.isfinite(lam) and np.isfinite(x).all()):
            raise ValueError("mu, lambda and x must be finite")
        nrm = np.linalg.norm(x)
        if nrm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return cls(mu, lam, x / nrm)


class TripletStack:
    """k candidate solutions at once: mu and lam of shape (k,), x of shape (k, n).

    Row i is the triplet (mu[i], lam[i], x[i]), which `stack[i]` returns.
    A plain class: a frozen dataclass would cost about a millisecond more
    at every import of the package.
    """

    __slots__ = ("mu", "lam", "x")

    def __init__(self, mu, lam, x):
        self.mu, self.lam, self.x = mu, lam, x

    @classmethod
    def of(cls, triplets):
        return cls(np.array([t.mu for t in triplets]), np.array([t.lam for t in triplets]),
                   np.array([t.x for t in triplets]))

    def __len__(self):
        return self.x.shape[0]

    def __getitem__(self, i):
        return Triplet(self.mu[i], self.lam[i], self.x[i])


def _check_length(pair, x):
    if x.shape[-1] != pair.n:
        raise TwoDevpError("triplet has length %d, pair has n=%d" % (x.shape[-1], pair.n))


def residual(pair, t):
    """The (n+2)-vector F at a triplet."""
    _check_length(pair, t.x)
    n, x = pair.n, t.x
    cx = pair.c @ x
    f = np.empty(n + 2, dtype=complex)
    np.subtract(pair.a @ x - t.mu * cx, t.lam * x, out=f[:n])
    f[n] = -0.5 * np.vdot(x, cx).real
    f[n + 1] = 0.5 * (1.0 - np.vdot(x, x).real)
    return f


def jacobian(pair, t):
    """The bordered (n+2) x (n+2) Jacobian of F; Hermitian by construction.

    For a TripletStack t of k triplets it is the (k, n+2, n+2) stack of
    their Jacobians.  The leading block A - mu*C - lam*I is built in place.
    """
    _check_length(pair, t.x)
    n, x = pair.n, t.x
    cx = x @ pair.c.T  # row-wise C x, as C^T = conj(C)
    j = np.zeros(x.shape[:-1] + (n + 2, n + 2), dtype=complex)
    top = j[..., :n, :n]
    np.multiply(np.asarray(t.mu)[..., None, None], pair.c, out=top)
    np.subtract(pair.a, top, out=top)
    np.einsum("...ii->...i", top)[...] -= np.asarray(t.lam)[..., None]  # the diagonal, as a view
    j[..., :n, n] = -cx
    j[..., :n, n + 1] = -x
    j[..., n, :n] = -cx.conj()
    j[..., n + 1, :n] = -x.conj()
    return j


def jacobian_hat(pair, t):
    """First n rows of the Jacobian: [A - mu*C - lam*I, -Cx, -x]."""
    return jacobian(pair, t)[..., : pair.n, :]


def complex_to_json(arr):
    """A complex array as nested lists of [re, im] pairs."""
    arr = np.asarray(arr, dtype=complex)
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def complex_from_json(rows, what, ndim):
    """Inverse of complex_to_json for an ndim-dimensional array."""
    try:
        arr = np.asarray(rows, dtype=float)
    except (TypeError, ValueError):
        raise TwoDevpError("field %r is not an array of [re, im] pairs" % what)
    if arr.ndim != ndim + 1 or arr.shape[-1] != 2:
        raise TwoDevpError("field %r must be a %d-d array of [re, im] pairs" % (what, ndim))
    return arr[..., 0] + 1j * arr[..., 1]


def _write_json(doc, path):
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def _read_json(path, fields):
    """The JSON object in `path`; TwoDevpError unless it holds every field."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise TwoDevpError("invalid JSON in %s: %s" % (path, exc))
    if not isinstance(doc, dict):
        raise TwoDevpError("%s does not hold a JSON object" % path)
    for key in fields:
        if key not in doc:
            raise TwoDevpError("missing field %r in %s" % (key, path))
    return doc


def save_pair(pair, path):
    _write_json({"n": pair.n, "a": complex_to_json(pair.a), "c": complex_to_json(pair.c)}, path)


def load_pair(path):
    doc = _read_json(path, ("n", "a", "c"))
    a = complex_from_json(doc["a"], "a", 2)
    c = complex_from_json(doc["c"], "c", 2)
    n = doc["n"]
    if a.shape != (n, n) or c.shape != (n, n):
        raise TwoDevpError("matrix shapes %s, %s do not match n=%s" % (a.shape, c.shape, n))
    return HermitianPair(a, c)


def save_triplet(t, path):
    _write_json({"mu": t.mu, "lambda": t.lam, "x": complex_to_json(t.x)}, path)


def load_triplet(path):
    doc = _read_json(path, ("mu", "lambda", "x"))
    mu, lam = doc["mu"], doc["lambda"]
    # bool is no number, and an int past the largest float does not convert
    if not all(type(v) is float or type(v) is int and abs(v) <= sys.float_info.max for v in (mu, lam)):
        raise TwoDevpError("fields 'mu' and 'lambda' in %s must be real numbers in float range" % path)
    return Triplet(mu, lam, complex_from_json(doc["x"], "x", 1))
