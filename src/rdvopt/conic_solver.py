"""Primal-dual interior-point solver for second-order cone programs.

Solves the standard-form pair

    minimize    c'x                maximize    b'y
    subject to  A x = b            subject to  A'y + z = c
                x in K                          z in K*

where K is a product of one free block and second-order cones
(sigma, u) with sigma >= ||u||.  The algorithm is path-following on the
homogeneous self-dual embedding with Nesterov-Todd scaling and a
Mehrotra-style predictor-corrector, so no feasible starting point is
needed and infeasibility is detected through Farkas certificates.
The Newton step is computed in NT-scaled variables around
lambda = W z = W^-1 x, with W applied in closed form from (wbar, eta)
per cone: each KKT path reads r1 or W r1 and returns W^-1 dx, the
Mehrotra term and both step-length tests use the scaled steps, and dz
comes from the linear dual equation.  Every cone of a program has one
dimension d (ConeSpec raises ValueError on mixed dimensions), and
variables are ordered once per solve as the free block, then the cones
component by component, so the cone block is one reshape view.
Cone-only programs with independent equality rows solve each Newton
system through a thin QR of W A', at a cost linear in the number of
cones.  Programs with free
variables (never split into cone differences) or dependent rows use one
sparse LU of the statically regularized quasi-definite KKT matrix K,
with iterative refinement against the unregularized system; only it
builds dense blocks, those of H = W^-2, converting at its boundary.
Once per solve it orders K's pattern by reverse Cuthill-McKee, and
LAPACK's banded LU (dgbtrf/dgbtrs) factors K in band storage in that
order, at O(size b^2) for half-bandwidth b.  The full form's K keeps b
fixed as the grid grows (11 for planar programs, 16 to 18 in 3-D), so
its factorization is linear in M; a program whose K has no narrow band
in that order pays the O(size b^2) all the same.  It is the only user
of scipy and imports scipy.sparse, scipy.sparse.csgraph and
scipy.linalg.lapack where it is first built, so the condensed pipeline
runs on numpy alone; the first sparse-LU solve in a process counts that
import in its solve_time.

One iteration loop serves a whole family of programs: a ConicProblem
whose c, A and b carry a leading program axis.  The loop stores every
iterate variables x programs, the program axis last, so the cones form
one contiguous (d, cones x programs) block over the whole family and the
cone algebra makes one pass per quantity; each program's tau, kappa, mu,
sigma and step lengths broadcast along that axis.  The per-program
reductions (c'x, b'y, x'z, the norms, A x, A'y and the scaled QR's
products) run on each program's contiguous row, copied out of the
iterate where they need it, and the scaled QR factors the stacked W A'
in one call.  So a program that stops leaves the family with the iterate
it would have reached alone, and solve_batch returns what solving each
program by itself returns.  Programs that need the sparse LU run as
families of one; solve runs its program as a family of one, whose
iterate is its row in the solver's order.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

_FRACTION_TO_BOUNDARY = 0.99
_REFINEMENT_ROUNDS = 4
_MIN_STEP = 1e-11
_STATIC_REG = 1e-10

# statuses of a best-effort exit, whose iterate is returned as it stood: the
# iteration cap, a KKT factorization breakdown, an iterate pinned to the cone
# boundary and two stalled steps
BEST_EFFORT = ("max_iters", "kkt_breakdown", "cone_boundary", "step_stall")


@dataclass(frozen=True)
class ConeSpec:
    """Ordered cone structure of the variable vector: free block, then SOCs,
    all of one dimension."""

    n_free: int
    soc_dims: tuple[int, ...] = ()

    def __post_init__(self):
        if self.n_free < 0:
            raise ValueError("free block size must be nonnegative")
        if any(d < 2 for d in self.soc_dims):
            raise ValueError("second-order cones need dimension >= 2")
        if len(set(self.soc_dims)) > 1:
            raise ValueError("second-order cones need one dimension, got dimensions "
                             f"{sorted(set(self.soc_dims))}")
        object.__setattr__(self, "soc_dims", tuple(int(d) for d in self.soc_dims))

    @property
    def dim(self) -> int:
        return self.n_free + sum(self.soc_dims)

    @property
    def n_cones(self) -> int:
        return len(self.soc_dims)


@dataclass(frozen=True)
class ConicProblem:
    """Standard-form conic program data, for one program or a family.

    A family carries one leading program axis: c (K, n), A (K, p, n) and
    b (K, p), all sharing the cone structure and var_map.  var_map is
    free-form metadata for the builder (e.g. where each impulse lives in
    x); the solver ignores it.
    """

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    cones: ConeSpec
    var_map: Optional[dict] = None

    def __post_init__(self):
        c, a, b = (np.asarray(v, dtype=float) for v in (self.c, self.A, self.b))
        if (a.ndim not in (2, 3) or c.shape != a.shape[:-2] + a.shape[-1:]
                or b.shape != a.shape[:-1]):
            raise ValueError(f"dimension mismatch: c {c.shape}, A {a.shape} and b {b.shape} are "
                             "neither one program nor a family of K programs on one axis")
        if self.cones.dim != a.shape[-1]:
            raise ValueError(f"dimension mismatch: cones dim {self.cones.dim}, n {a.shape[-1]}")
        for name, value in (("c", c), ("A", a), ("b", b)):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class SolverSettings:
    gap_tol: float = 1e-9
    feas_tol: float = 1e-9
    max_iters: int = 100

    def __post_init__(self):
        for name in ("gap_tol", "feas_tol"):
            tol = getattr(self, name)
            if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0 < tol < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {tol!r}")
        it = self.max_iters
        if isinstance(it, bool) or not isinstance(it, numbers.Integral) or it < 1:
            raise ValueError(f"max_iters must be an integer >= 1, got {it!r}")


@dataclass(frozen=True)
class Residuals:
    primal: float
    dual: float
    gap: float


@dataclass
class ConicSolution:
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    status: str
    gap: float
    residuals: Residuals
    iterations: int
    solve_time: float
    objective: float = math.nan


def _single(problem: ConicProblem, caller: str):
    if problem.A.ndim != 2:
        raise ValueError(f"{caller} takes one program, not a family of {problem.A.shape[0]}")


def residuals(problem: ConicProblem, x, y, z) -> Residuals:
    """Relative primal/dual residuals and duality gap of a candidate triple."""
    _single(problem, "residuals")
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    z = np.asarray(z, dtype=float).reshape(-1)
    n, p = problem.c.size, problem.b.size
    if x.size != n or z.size != n or y.size != p:
        raise ValueError(
            f"dimension mismatch: expected x,z of size {n} and y of size {p}, "
            f"got {x.size}, {z.size}, {y.size}"
        )
    pcost = float(problem.c @ x)
    primal = np.linalg.norm(problem.A @ x - problem.b) / (1.0 + np.linalg.norm(problem.b))
    dual = np.linalg.norm(problem.A.T @ y + z - problem.c) / (1.0 + np.linalg.norm(problem.c))
    gap = abs(pcost - float(problem.b @ y)) / (1.0 + abs(pcost))
    return Residuals(primal=float(primal), dual=float(dual), gap=float(gap))


# -- batched second-order cone algebra -------------------------------------
#
# The g cones of dimension d are processed together as (..., d, g K) arrays,
# component by component, over the g K values of the cones of all K
# programs; the leading axes, if any, stack right-hand sides or rows of A.


class _ConeLayout:
    """The solver's variable order, perm (undone by unperm): the free block,
    then the heads of the g cones of dimension d, their first tail
    components, and so on.  An iterate is stored variables x programs, so
    its cone block is one (d, g K) view over the whole family, whose last
    axis runs over the cones and, within each cone, the programs."""

    def __init__(self, spec: ConeSpec):
        self.n_free, self.g = spec.n_free, spec.n_cones
        # any dimension serves the empty block of a program without cones
        self.d = spec.soc_dims[0] if spec.soc_dims else 2
        heads = self.n_free + self.d * np.arange(self.g)
        self.perm = np.concatenate([np.arange(self.n_free),
                                    (np.arange(self.d)[:, None] + heads).reshape(-1)])
        self.unperm = np.argsort(self.perm)

    def blocks(self, v: np.ndarray) -> np.ndarray:
        """(..., d, g K) view of the cone block of v, whose last two axes are
        the variables and the K programs."""
        return v[..., self.n_free:, :].reshape(v.shape[:-2] + (self.d, -1))

    def scale(self, wbar: np.ndarray, eta: np.ndarray, v: np.ndarray) -> np.ndarray:
        """W v for the NT scaling W = eta Wbar(wbar) of each cone, the free block as is."""
        out = np.empty(v.shape)
        if self.n_free:
            out[..., :self.n_free, :] = v[..., :self.n_free, :]
        _nt_apply(wbar, eta, self.blocks(v), self.blocks(out))
        return out


def _csum(t: np.ndarray) -> np.ndarray:
    """Sum over the component axis -2, adding the components in order from 0.0
    whatever the layout.  np.add.reduce does so across (..., c, m) arrays with
    m > 1; with m = 1 (a lone cone of a program alone) it sums pairwise, which
    from c = 8 on would set the program apart from its solve in a family."""
    if t.shape[-1] > 1:
        return np.add.reduce(t, axis=-2)
    out = 0.0 + t[..., 0, :]
    for i in range(1, t.shape[-2]):
        out += t[..., i, :]
    return out


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Inner product of each program's row (the BLAS dot of a 1-D u @ v)."""
    return np.matmul(u[:, None, :], v[:, :, None])[:, 0, 0]


def _jdot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u_0 v_0 - u_1'v_1 of each cone (det(u) for v = u)."""
    return u[..., 0, :] * v[..., 0, :] - _csum(u[..., 1:, :] * v[..., 1:, :])


def _jprod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.empty_like(a)
    out[..., 0, :] = _csum(a * b)
    out[..., 1:, :] = a[..., :1, :] * b[..., 1:, :] + b[..., :1, :] * a[..., 1:, :]
    return out


def _jsolve(lam: np.ndarray, det: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Solve lam o w = d for w (inverse of the arrow operator of lam), det = det(lam)."""
    out = np.empty_like(d)
    out[..., 0, :] = _jdot(lam, d) / det
    out[..., 1:, :] = (d[..., 1:, :] - out[..., :1, :] * lam[..., 1:, :]) / lam[..., :1, :]
    return out


def _bmv(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Batched matrix-vector product of (..., r, k) matrices with (..., k) rows."""
    return np.matmul(m, v[..., None])[..., 0]


def _norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each program's row, as np.linalg.norm of one row."""
    return np.sqrt(_dot(v, v))


def _nt_scaling(u: np.ndarray, v: np.ndarray, det_u: np.ndarray, det_v: np.ndarray):
    """Nesterov-Todd scaling (wbar, eta) of interior primal/dual (d, g K)
    cone blocks: W = eta Wbar(wbar) maps v, and W^-1 = Wbar(wbar_0, -wbar_1)
    / eta maps u, to the same point lambda."""
    ubar = u / np.sqrt(det_u)
    vbar = v / np.sqrt(det_v)
    gamma = np.sqrt(0.5 * (1.0 + _csum(ubar * vbar)))
    wbar = ubar
    wbar[0] += vbar[0]
    wbar[1:] -= vbar[1:]
    wbar /= 2.0 * gamma
    return wbar, (det_u / det_v) ** 0.25


def _nt_apply(wbar: np.ndarray, eta: np.ndarray, v: np.ndarray, out: np.ndarray) -> None:
    """out = eta Wbar(wbar) v for (..., d, g K) cones v, wbar and eta broadcasting
    against v: Wbar(w) v = (w'v, v_1 + (v_0 + w_1'v_1 / (1 + w_0)) w_1)."""
    w0, w1, v0, v1 = wbar[..., 0, :], wbar[..., 1:, :], v[..., 0, :], v[..., 1:, :]
    s = _csum(w1 * v1)
    out[..., 0, :] = w0 * v0 + s
    out[..., 1:, :] = v1 + (v0 + s / (1.0 + w0))[..., None, :] * w1
    out *= eta


def _max_step(u: np.ndarray, det_u: np.ndarray, du: np.ndarray, programs: int) -> np.ndarray:
    """Largest alpha with u + alpha*du in every cone, for interior u (may be inf).

    Takes (..., d, g K) blocks of the given number of programs, with u and
    det_u = det(u) broadcasting against du; returns one step per program,
    the smallest positive root of det(u + alpha*du) = 0 over its cones and
    the leading axes (det(u) > 0: no root at zero), inf without cones.
    """
    du0, du1 = du[..., 0, :], du[..., 1:, :]
    # a = det(du) and bq = 2 <u, du>_J, the _jdot of each
    a = du0 * du0 - _csum(du1 * du1)
    bq = 2.0 * (u[..., 0, :] * du0 - _csum(u[..., 1:, :] * du1))
    disc = bq * bq - 4.0 * a * det_u
    t = -0.5 * (bq + np.copysign(np.sqrt(np.maximum(disc, 0.0)), bq))
    lin = np.abs(a) < 1e-300
    real = (disc >= 0.0) & ~lin
    # the linear root, then the two quadratic ones, each divided only where
    # it applies (t != 0 where the roots are real, as det(u) > 0); a
    # quadratic root counts where it is positive
    roots = np.empty((3,) + a.shape)
    roots.fill(np.inf)
    np.divide(-det_u, bq, out=roots[0], where=lin & (bq < 0.0))
    np.divide(t, a, out=roots[1], where=real)
    np.divide(det_u, t, out=roots[2], where=real)
    quad = roots[1:]
    quad[~(quad > 0.0)] = np.inf
    return np.minimum.reduce(roots.reshape(-1, programs), axis=0, initial=np.inf)


# -- KKT systems -------------------------------------------------------------
#
# With W the NT scaling (the identity on the free block), H = W^-2 and
# dxs = W^-1 dx, -H dx + A'dy = r1 + W^-1 dl, A dx = r2 reads -dxs + G'dy =
# W r1 + dl, G dxs = r2 with G' = W A'.  solve takes r1 (columns, n,
# programs) in the one form its path reads, W r1 for the scaled QR and r1
# for the sparse LU, the terms of dl stacked alike or broadcasting, and r2
# (programs, columns, p).  It returns dxs as (programs, columns, n) rows and
# as (columns, n, programs), dy (programs, columns, p), and dx of the first
# column (the sparse LU's own, which W dxs would round to W's condition number).


def band_lu(band: np.ndarray, half_band: int):
    """LU with partial pivoting (LAPACK dgbtrf) of a square matrix in band
    storage, in place, and its solve (dgbtrs) of (n, k) columns; None at an
    exactly singular pivot.  Imports scipy.linalg.lapack on the first call,
    so that a process without a sparse LU never loads it."""
    from scipy.linalg.lapack import dgbtrf, dgbtrs

    lu, piv, info = dgbtrf(band, half_band, half_band, overwrite_ab=1)
    if info:
        return None
    return lambda r: dgbtrs(lu, half_band, half_band, r, piv)[0]


class _KKTPattern:
    """Sparsity pattern of K = [[-H, A'], [A, 0]], built once per solve: A,
    A', the cone blocks of H and the whole diagonal (the regularization's
    slots).  slot maps each entry, in that order, to its place in the data
    of the CSC matrix k, which holds K for the refinement's products.  order
    is a reverse Cuthill-McKee order of the pattern, and band_slot places
    each of k's entries in the LAPACK band storage band of K in that order,
    of half-bandwidth half_band, with half_band more rows for the fill of
    partial pivoting.  An iteration only computes the values; each
    factorization writes them into k and band."""

    def __init__(self, layout: _ConeLayout, a: np.ndarray):
        from scipy import sparse
        from scipy.sparse.csgraph import reverse_cuthill_mckee

        a_row, a_col = np.nonzero(a)
        p, n = a.shape
        size = n + p
        var = layout.unperm[a_col]
        rows = [a_row + n, var]
        cols = [var, a_row + n]
        # variable of component i of cone k, blocks in (g, d, d) order
        d, g = layout.d, layout.g
        idx = layout.n_free + np.arange(d) * g + np.arange(g)[:, None]
        rows.append(np.broadcast_to(idx[:, :, None], (g, d, d)).reshape(-1))
        cols.append(np.broadcast_to(idx[:, None, :], (g, d, d)).reshape(-1))
        rows.append(np.arange(size))
        cols.append(np.arange(size))
        keys, self.slot = np.unique(np.concatenate(cols) * size + np.concatenate(rows),
                                    return_inverse=True)
        indices, columns = keys % size, keys // size
        indptr = np.searchsorted(columns, np.arange(size + 1))
        self.k = sparse.csc_matrix((np.ones(keys.size), indices, indptr), shape=(size, size))
        # K's pattern is symmetric; the quasi-definite block structure of a
        # transcription keeps its bandwidth independent of the grid size
        self.order = reverse_cuthill_mckee(self.k, symmetric_mode=True)
        place = np.argsort(self.order)
        i, j = place[indices], place[columns]
        b = self.half_band = int(np.max(np.abs(i - j)))
        # entry (i, j) sits in row 2b + i - j of column j
        self.band = np.zeros((3 * b + 1, size), order="F")
        self.band_data = self.band.reshape(-1, order="F")
        self.band_slot = j * (3 * b + 1) + 2 * b + i - j
        self.diag_slot = self.band_slot[self.slot[-size:]]
        self.reg_sign = np.concatenate([-np.ones(n), np.ones(p)])
        self.a_vals = np.concatenate([a[a_row, a_col]] * 2)
        self.layout, self.size = layout, size


class _SparseKKT:
    """Banded LU of the regularized quasi-definite KKT matrix, with refinement.

    Serves the programs the scaled QR does not: free variables (the full
    formulation) or dependent equality rows.  K = [[-H, A'], [A, 0]] holds
    the sparse A and dense cone blocks H = W^-2 = (2 w w' - J) / eta^2,
    w = J wbar, J = diag(1, -1, ..., -1); in the pattern's reverse
    Cuthill-McKee order it is banded, and LAPACK factors it in band storage
    in O(size half_band^2).  The static regularization is strengthened on
    an exactly singular pivot; refinement runs against the unregularized K.
    solve adds W^-1 dl to r1 and maps dx through W^-1; it factors one program.
    It fills the pattern's k and band, so it holds until the next factorization.
    """

    # a factorization that fails raises instead
    singular = np.zeros(1, dtype=bool)

    def __init__(self, wbar: np.ndarray, eta: np.ndarray, pattern: _KKTPattern):
        self.layout, self.order = pattern.layout, pattern.order
        # W^-1 = Wbar(wbar_0, -wbar_1) / eta
        w = -wbar
        w[0] *= -1.0
        self.wbar_inv, self.eta_inv = w, 1.0 / eta
        w = w.T
        h = 2.0 * w[:, :, None] * w[:, None, :] - np.diag(np.r_[1.0, -np.ones(self.layout.d - 1)])
        vals = [pattern.a_vals, -(h * self.eta_inv[:, None, None] ** 2).reshape(-1),
                np.zeros(pattern.size)]
        self.k = pattern.k
        self.k.data[:] = np.bincount(pattern.slot, weights=np.concatenate(vals))
        reg = _STATIC_REG
        for attempt in range(3):
            pattern.band_data[:] = 0.0
            pattern.band_data[pattern.band_slot] = self.k.data
            pattern.band_data[pattern.diag_slot] += reg * pattern.reg_sign
            self._band_solve = band_lu(pattern.band, pattern.half_band)
            if self._band_solve is not None:
                break
            # exactly singular pivot: strengthen the regularization and retry
            reg += _STATIC_REG * 10.0 ** (2 * attempt + 2)
        else:
            raise np.linalg.LinAlgError("KKT factorization failed")
        self.reg_retries = attempt
        self.refine_rounds = 0

    def _lu_solve(self, r: np.ndarray) -> np.ndarray:
        """The regularized K's solution of each row of r."""
        x = np.empty_like(r)
        x[:, self.order] = self._band_solve(r[:, self.order].T).T
        return x

    def solve(self, r1: np.ndarray, dl: list, r2: np.ndarray):
        n = r1.shape[-2]
        r1 = r1 + self.layout.scale(self.wbar_inv, self.eta_inv, sum(dl))
        rhs = np.concatenate([r1[..., 0], r2[0]], -1)
        sol = self._lu_solve(rhs)
        # each right-hand side refines until it converges or stops improving
        scale = 1.0 + np.max(np.abs(rhs), axis=1)
        best = np.full(rhs.shape[0], math.inf)
        live = np.ones(rhs.shape[0], dtype=bool)
        rounds = 0
        for _ in range(_REFINEMENT_ROUNDS):
            resid = rhs - (self.k @ sol.T).T
            rnorm = np.max(np.abs(resid), axis=1)
            live &= (rnorm > 1e-14 * scale) & (rnorm < best)
            if not live.any():
                break
            best = np.where(live, rnorm, best)
            sol[live] += self._lu_solve(resid[live])
            rounds += 1
        self.refine_rounds = max(self.refine_rounds, rounds)
        dx = sol[:, :n, None]
        dxs = self.layout.scale(self.wbar_inv, self.eta_inv, dx)
        # a family of one: its rows are views
        return dxs.transpose(2, 0, 1), dxs, sol[None, :, n:], dx[0]


class _ScaledQRKKT:
    """KKT solver for cone-only programs with independent equality rows.

    A thin QR G' = QR (n x p) gives u = R^-T r2 + Q'W r1, dy = R^-1 u and
    dxs = Q u - W r1, computed on each program's rows.  Neither W^2 nor W^-2
    is formed, so the step keeps the accuracy of the scaled problem near the
    cone boundary, and a factorization costs O(n p^2).  One stacked QR
    factors all programs; singular flags each whose R has an exactly zero
    pivot.
    """

    reg_retries = 0
    refine_rounds = 0

    def __init__(self, wbar: np.ndarray, eta: np.ndarray, a: np.ndarray, layout: _ConeLayout):
        self.wbar, self.eta, self.layout = wbar, eta, layout
        # the rows of G = A W are W times the rows of A, (p, n, programs)
        g = layout.scale(wbar, eta, a)
        self.q, r = np.linalg.qr(g.transpose(2, 1, 0))
        self.qt = self.q.transpose(0, 2, 1)
        self.singular = np.any(np.diagonal(r, axis1=-2, axis2=-1) == 0.0, axis=-1)
        if not self.singular.any():
            # R^-1 (back substitution, R being triangular) once per
            # factorization: each triangular solve is one batched product
            self.rinv = np.linalg.inv(r)
            self.rinvt = self.rinv.transpose(0, 2, 1)

    def solve(self, wr1: np.ndarray, dl: list, r2: np.ndarray):
        wr1 = sum(dl, wr1).transpose(2, 0, 1).copy()
        u = r2 @ self.rinv + wr1 @ self.q
        dxs = u @ self.qt - wr1
        dxs_cones = dxs.transpose(1, 2, 0).copy()
        return dxs, dxs_cones, u @ self.rinvt, self.layout.scale(self.wbar, self.eta, dxs_cones[0])


# -- main solver ------------------------------------------------------------


def _scaled_qr_path(problem: ConicProblem) -> np.ndarray:
    """Whether the program, or each program of a family, takes the scaled QR:
    cone-only programs with independent equality rows do; free variables,
    or dependent rows (W A' is then rank deficient), need the sparse LU."""
    if problem.cones.n_free or not problem.cones.n_cones:
        return np.zeros(problem.A.shape[:-2], dtype=bool)
    return np.linalg.matrix_rank(problem.A) == problem.A.shape[-2]


class _Active:
    """Per-program arrays of the programs still iterating.  The data rows in
    rows carry the program axis first; every other array carries it last,
    and on the per-cone arrays in cones that axis is cones x programs."""

    rows = ("a", "at", "b", "c_prog", "y", "x_prog", "r_p")
    cones = ("wbar", "eta", "det_x", "det_z")

    def take(self, keep: np.ndarray):
        count = keep.size
        for name, value in vars(self).items():
            # compress keeps an array C-contiguous, so its cone blocks stay views
            if name in self.rows:
                value = value[keep]
            elif name in self.cones:
                lead = value.shape[:-1]
                value = value.reshape(lead + (-1, count)).compress(keep, axis=-1).reshape(
                    lead + (-1,))
            else:
                value = value.compress(keep, axis=-1)
            setattr(self, name, value)


def _solve_batch(
    family: ConicProblem,
    settings: SolverSettings | None,
    trace: Optional[Callable[[dict], None]],
    scaled_qr: bool,
) -> list[ConicSolution]:
    """The interior-point loop over a family that shares one KKT path; trace,
    if given, receives the records of a family of one, the size the sparse LU takes."""
    st = settings or SolverSettings()
    nb, p, n = family.A.shape
    layout = _ConeLayout(family.cones)
    nf, perm, unperm = layout.n_free, layout.perm, layout.unperm
    nu = family.cones.n_cones + 1
    kkt_path = "scaled_qr" if scaled_qr else "sparse_lu"
    if not scaled_qr and nb != 1:
        raise ValueError("the sparse LU path solves one program at a time")
    if trace is not None and nb != 1:
        raise ValueError("only a batch of one is traced")

    t_start = time.perf_counter()
    s = _Active()
    s.ids = np.arange(nb)
    # A x and c'x add in the program's order, as residuals() does: take
    # gathers x, each row contiguous so that its products add alike in any
    # batch (a sparse-LU program's A is not copied: it is the largest array)
    s.a, s.b, s.c_prog = family.A, family.b, family.c
    s.c = family.c.T.take(perm, axis=0)
    s.at = np.swapaxes(s.a, 1, 2)
    s.norm_b, s.norm_c = _norm(s.b), _norm(s.c_prog)
    if scaled_qr:
        s.a_perm = family.A.transpose(1, 2, 0).take(perm, axis=1)
    else:
        pattern = _KKTPattern(layout, s.a[0])
    s.x, s.z, s.y = np.zeros((n, nb)), np.zeros((n, nb)), np.zeros((nb, p))
    layout.blocks(s.x)[0] = layout.blocks(s.z)[0] = 1.0
    s.tau, s.kappa = np.ones(nb), np.ones(nb)
    s.stalls = np.zeros(nb, dtype=int)

    out: list[Optional[ConicSolution]] = [None] * nb

    def finish(stopped, status, scale=None):
        """Record the solutions of the stopped programs (a mask over the active ones)."""
        if not stopped.any():
            return
        sk = (s.tau if scale is None else scale)[stopped, None]
        x = s.x_prog[stopped] / sk
        y = s.y[stopped] / sk
        z = s.z[:, stopped].T.take(unperm, axis=-1) / sk
        solve_time = time.perf_counter() - t_start
        rows = zip(s.ids[stopped].tolist(), x, y, z, s.pres[stopped].tolist(),
                   s.dres[stopped].tolist(), s.gap[stopped].tolist(),
                   _dot(s.c_prog[stopped], x).tolist())
        for i, xk, yk, zk, primal, dual, gap, objective in rows:
            res = Residuals(primal=primal, dual=dual, gap=gap)
            out[i] = ConicSolution(x=xk, y=yk, z=zk, status=status, gap=gap, residuals=res,
                                   iterations=it, solve_time=solve_time, objective=objective)

    def stop(stopped, reason):
        """Best-effort exit before the iteration cap, reported and traced as its cause."""
        if trace is not None:
            trace({"iter": it, "stop": reason})
        finish(stopped, reason)

    def factor():
        """The KKT factorization of the active programs, and which broke down."""
        try:
            kkt = (_ScaledQRKKT(s.wbar, s.eta, s.a_perm, layout) if scaled_qr
                   else _SparseKKT(s.wbar, s.eta, pattern))
        except np.linalg.LinAlgError:
            # factorization breakdown with finite iterates: let the caller
            # see the best effort rather than a hard failure
            return None, np.ones(s.ids.size, dtype=bool)
        return kkt, kkt.singular

    for it in range(st.max_iters + 1):
        # each program's row of x and z, in the solver's order
        x_rows, z_rows = s.x.T.copy(), s.z.T.copy()
        s.x_prog = x_rows.take(unperm, axis=-1)
        ax = _bmv(s.a, s.x_prog)
        aty = _bmv(s.at, s.y).take(perm, axis=-1)
        cx = _dot(s.c_prog, s.x_prog)
        by = _dot(s.b, s.y)
        s.r_p = ax - s.b * s.tau[:, None]
        r_d_rows = -aty - z_rows + s.c.T * s.tau[:, None]
        s.r_d = r_d_rows.T.copy()
        s.r_g = by - cx - s.kappa
        s.comp = _dot(x_rows[:, nf:], z_rows[:, nf:]) + s.tau * s.kappa
        s.mu = s.comp / nu

        # residuals of the scaled point (x, y, z) / tau; the gap is
        # residuals()'s of the x / tau and y / tau that finish returns
        s.pres = _norm(s.r_p) / (s.tau * (1.0 + s.norm_b))
        s.dres = _norm(r_d_rows) / (s.tau * (1.0 + s.norm_c))
        cx_tau = _dot(s.c_prog, s.x_prog / s.tau[:, None])
        s.gap = np.abs(cx_tau - _dot(s.b, s.y / s.tau[:, None])) / (1.0 + np.abs(cx_tau))
        if trace is not None:
            trace({"iter": it, "mu": float(s.mu[0]), "pres": float(s.pres[0]),
                   "dres": float(s.dres[0]), "gap": float(s.gap[0]),
                   "tau": float(s.tau[0]), "kappa": float(s.kappa[0])})

        failed = ~np.isfinite([s.pres, s.dres, s.gap, s.mu, s.tau, s.kappa]).all(axis=0)
        done = failed.copy()
        optimal = ~done & (s.pres <= st.feas_tol) & (s.dres <= st.feas_tol) & (s.gap <= st.gap_tol)
        done |= optimal
        infeasible = ~done & (by > 0.0) & (
            _norm(aty + z_rows) <= st.feas_tol * (1.0 + s.norm_c) * by)
        done |= infeasible
        unbounded = ~done & (cx < 0.0) & (_norm(ax) <= st.feas_tol * (1.0 + s.norm_b) * -cx)
        done |= unbounded
        any_done = done.any()
        if any_done:
            finish(failed, "numerical_failure")
            finish(optimal, "optimal")
            finish(infeasible, "primal_infeasible", scale=by)
            finish(unbounded, "dual_infeasible", scale=-cx)
            if done.all():
                break
        if it == st.max_iters:
            finish(~done, "max_iters")
            break

        # iterate pinned to the cone boundary at rounding level: no
        # further centering is possible, return best effort
        xb, zb = layout.blocks(s.x), layout.blocks(s.z)
        s.det_x, s.det_z = _jdot(xb, xb), _jdot(zb, zb)
        pinned = ~done & (np.minimum.reduce(np.minimum(s.det_x, s.det_z).reshape(
            -1, s.ids.size), axis=0, initial=np.inf) <= 0.0)
        if pinned.any():
            stop(pinned, "cone_boundary")
            done |= pinned
            any_done = True
        if any_done:
            s.take(~done)
            if not s.ids.size:
                break
            xb, zb = layout.blocks(s.x), layout.blocks(s.z)

        # NT scaling W, and lambda = W z = W^-1 x
        s.wbar, s.eta = _nt_scaling(xb, zb, s.det_x, s.det_z)
        s.lam = layout.scale(s.wbar, s.eta, s.z)

        t_factor = time.perf_counter()
        kkt, broken = factor()
        while broken.any():
            # each program factors alone, so the others factor as before
            stop(broken, "kkt_breakdown")
            s.take(~broken)
            if not s.ids.size:
                break
            kkt, broken = factor()
        if not s.ids.size:
            break
        factor_s = time.perf_counter() - t_factor
        nb = s.ids.size
        lam_b = layout.blocks(s.lam)
        det_lam = _jdot(lam_b, lam_b)

        # the tau direction (right-hand side [c; b]) and the predictor's
        # (affine, sigma = 0: r1 = r_d + W^-1 lambda) in one two-column solve,
        # r1 in the form the KKT path reads: W r1 for the scaled QR
        r1 = np.concatenate([s.c[None], s.r_d[None]])
        if scaled_qr:
            r1 = layout.scale(s.wbar, s.eta, r1)
            wc = r1[0]
        else:
            wc = layout.scale(s.wbar, s.eta, s.c)
        wc_rows = wc.T.copy()
        dl = np.zeros((2, n, nb))
        dl[1] = s.lam
        dxs_rows, dxs, dy, dx2 = kkt.solve(
            r1, [dl], np.concatenate([s.b[:, None], -s.r_p[:, None]], axis=1))
        dxs2, dy2 = dxs[0], dy[:, 0]
        # c'dx2 = (W c)'dxs2, W being symmetric
        den = s.kappa / s.tau - _dot(wc_rows, dxs_rows[:, 0]) + _dot(s.b, dy2)

        def direction(gamma, d_tk, dxs1_rows, dxs1, dy1):
            """Newton direction targeting residual reduction factor (gamma - 1):
            the scaled steps dxs = W^-1 dx and dzs = W dz stacked, dy, dz, dtau
            and dkappa."""
            num = (gamma - 1.0) * s.r_g + d_tk / s.tau + _dot(wc_rows, dxs1_rows) - _dot(s.b, dy1)
            dtau = num / den
            dy = dy1 + dtau[:, None] * dy2
            # dz from the linear dual equation, which the step then reduces exactly;
            # W^-1(lambda \ d_c) - H dx would carry the KKT solve's rounding into z
            dz = s.c * dtau - _bmv(s.at, dy).T.take(perm, axis=0) + (1.0 - gamma) * s.r_d
            dkappa = (d_tk - s.kappa * dtau) / s.tau
            steps = np.concatenate([(dxs1 + dtau * dxs2)[None],
                                    layout.scale(s.wbar, s.eta, dz)[None]])
            return steps, dy, dz, dtau, dkappa

        def step_limit(steps, dtau, dkappa):
            # tau and kappa limit the step only where they decrease
            amax = np.minimum(
                np.where(dtau < 0.0, s.tau, np.inf) / np.where(dtau < 0.0, -dtau, 1.0),
                np.where(dkappa < 0.0, s.kappa, np.inf) / np.where(dkappa < 0.0, -dkappa, 1.0))
            # x + alpha dx = W(lambda + alpha dxs) and z + alpha dz =
            # W^-1(lambda + alpha dzs), and W maps the cone onto itself
            return np.minimum(amax, _max_step(lam_b, det_lam, layout.blocks(steps), nb))

        # predictor
        steps, _, _, dtaua, dkappaa = direction(np.zeros(nb), -s.tau * s.kappa,
                                                dxs_rows[:, 1], dxs[1], dy[:, 1])
        alpha_aff = np.minimum(1.0, step_limit(steps, dtaua, dkappaa))

        # lambda + alpha dxs and lambda + alpha dzs, as each program's rows
        ahead = (s.lam + alpha_aff * steps)[:, nf:].transpose(0, 2, 1).copy()
        comp_aff = _dot(ahead[0], ahead[1]) + (
            (s.tau + alpha_aff * dtaua) * (s.kappa + alpha_aff * dkappaa))
        sigma = np.minimum(1.0, (np.maximum(comp_aff, 0.0) / s.comp) ** 3)

        # corrector: d_c = sigma mu e - lambda o lambda - dxsa o dzsa (the Mehrotra
        # term), W r1 = (1 - sigma) W r_d - lambda \ d_c = ... + lambda + shift
        shift = np.zeros((n, nb))
        steps_b = layout.blocks(steps)
        corr = _jprod(steps_b[0], steps_b[1])
        corr.reshape(layout.d, -1, nb)[0] -= sigma * s.mu
        layout.blocks(shift)[...] = _jsolve(lam_b, det_lam, corr)
        d_tk = sigma * s.mu - s.tau * s.kappa - dtaua * dkappaa
        rs = 1.0 - sigma
        dxs1_rows, dxs1, dy1, dx1 = kkt.solve((rs * r1[1])[None], [s.lam, shift],
                                              (-rs[:, None] * s.r_p)[:, None])
        steps, dy, dz, dtau, dkappa = direction(sigma, d_tk, dxs1_rows[:, 0], dxs1[0], dy1[:, 0])

        alpha = np.minimum(1.0, _FRACTION_TO_BOUNDARY * step_limit(steps, dtau, dkappa))
        if trace is not None:
            trace({"iter": it, "sigma": float(sigma[0]), "alpha_aff": float(alpha_aff[0]),
                   "alpha": float(alpha[0]), "kkt": kkt_path, "factor_s": factor_s,
                   "refine_rounds": kkt.refine_rounds, "reg_retries": kkt.reg_retries})
        s.stalls = np.where(alpha <= _MIN_STEP, s.stalls + 1, 0)
        stalled = s.stalls >= 2
        any_stalled = stalled.any()
        if any_stalled:
            stop(stalled, "step_stall")

        s.x += alpha * (dx1 + dtau * dx2)
        s.y += alpha[:, None] * dy
        s.z[nf:] += alpha * dz[nf:]
        s.tau, s.kappa = s.tau + alpha * dtau, s.kappa + alpha * dkappa
        if any_stalled:
            s.take(~stalled)
            if not s.ids.size:
                break

    return out


def solve(
    problem: ConicProblem,
    settings: SolverSettings | None = None,
    trace: Optional[Callable[[dict], None]] = None,
) -> ConicSolution:
    """Solve a conic program; deterministic for identical inputs.

    On status "optimal", (x, y, z) is the scaled primal-dual solution.
    On "primal_infeasible", (y, z) is a Farkas certificate normalized to
    b'y = 1; on "dual_infeasible", x is a ray normalized to c'x = -1.
    A status in BEST_EFFORT returns the last iterate; "numerical_failure"
    means it was no longer finite.
    A family raises ValueError; solve it with solve_batch.
    """
    _single(problem, "solve")
    family = ConicProblem(problem.c[None], problem.A[None], problem.b[None], problem.cones)
    return _solve_batch(family, settings, trace, bool(_scaled_qr_path(problem)))[0]


def solve_batch(
    problem: ConicProblem,
    settings: SolverSettings | None = None,
) -> list[ConicSolution]:
    """Solve each program of a family (c, A and b with a program axis).

    Returns, in order, what solve returns for each program alone, except
    that solve_time is the family's wall time until the program stopped.
    The programs that take the scaled QR advance together in one loop;
    each one that needs the sparse LU runs by itself.
    """
    if problem.A.ndim != 3:
        raise ValueError("solve_batch takes a family: c, A and b with a program axis")
    qr = _scaled_qr_path(problem)
    out: list[Optional[ConicSolution]] = [None] * qr.size
    ids = np.arange(qr.size)
    for rows in ([ids[qr]] if qr.any() else []) + [slice(k, k + 1) for k in ids[~qr]]:
        part = ConicProblem(problem.c[rows], problem.A[rows], problem.b[rows], problem.cones)
        for k, sol in zip(ids[rows], _solve_batch(part, settings, None, bool(qr[rows][0]))):
            out[k] = sol
    return out
