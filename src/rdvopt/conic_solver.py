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
The KKT path follows the structure of the program.  Cone-only programs
with independent equality rows solve each Newton system in NT-scaled
variables through a thin QR of W A', at a cost linear in the number of
cones and without forming W^2 or W^-2.  Programs with free variables or
dependent rows use one sparse LU of the statically regularized
quasi-definite KKT matrix, whose fill-reducing ordering comes from the
program itself (a block-banded full form stays banded), with iterative
refinement against the unregularized system.

Free variables sit natively in the KKT system; they are never split
into cone differences.

One iteration loop serves a whole family of programs: a ConicProblem
whose c, A and b carry a leading program axis.  Every iterate carries
that axis: the cone algebra works on (programs, cones, dim) blocks, the
scaled QR factors the stacked W A' in one call, and each program keeps
its own tau, kappa, mu, sigma, step lengths and stopping test.  A program
that stops leaves the family with the iterate it would have reached
alone, so solve_batch returns what solving each program by itself
returns.  Programs that need the sparse LU run as families of one; solve
runs its program as a family of one.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

_FRACTION_TO_BOUNDARY = 0.99
_REFINEMENT_ROUNDS = 4
_MIN_STEP = 1e-11
_STATIC_REG = 1e-10


@dataclass(frozen=True)
class ConeSpec:
    """Ordered cone structure of the variable vector: free block, then SOCs."""

    n_free: int
    soc_dims: tuple[int, ...] = ()

    def __post_init__(self):
        if self.n_free < 0:
            raise ValueError("free block size must be nonnegative")
        if any(d < 2 for d in self.soc_dims):
            raise ValueError("second-order cones need dimension >= 2")
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
        if min(self.gap_tol, self.feas_tol) <= 0 or self.max_iters <= 0:
            raise ValueError("all solver settings must be positive")


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
# Cone blocks of equal dimension are processed together as (..., g, d)
# arrays; the leading axes, if any, are programs.


class _ConeLayout:
    """Where the cones of each dimension sit in the variable vector."""

    def __init__(self, spec: ConeSpec):
        starts = np.cumsum([spec.n_free] + list(spec.soc_dims[:-1])) if spec.soc_dims else []
        self.index = {}
        for d in sorted(set(spec.soc_dims)):
            s = np.array([st for st, dd in zip(starts, spec.soc_dims) if dd == d])
            self.index[d] = s[:, None] + np.arange(d)[None, :]

    def gather(self, x: np.ndarray) -> dict:
        """(..., g, d) copies of the cone blocks of x.

        np.take keeps each program's row contiguous, so that a reduction
        over a program's cones adds in the same order in any batch.
        """
        return {d: np.take(x, idx.reshape(-1), axis=-1).reshape(x.shape[:-1] + idx.shape)
                for d, idx in self.index.items()}

    def scatter_into(self, x: np.ndarray, blocks: dict):
        for d, idx in self.index.items():
            x[..., idx.reshape(-1)] = blocks[d].reshape(x.shape[:-1] + (-1,))


def _jdet(u: np.ndarray) -> np.ndarray:
    return u[..., 0] ** 2 - np.sum(u[..., 1:] ** 2, axis=-1)


def _jprod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.empty_like(a)
    out[..., 0] = np.sum(a * b, axis=-1)
    out[..., 1:] = a[..., :1] * b[..., 1:] + b[..., :1] * a[..., 1:]
    return out


def _jsolve(lam: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Solve lam o w = d for w (inverse of the arrow operator of lam)."""
    det = _jdet(lam)
    out = np.empty_like(d)
    out[..., 0] = (lam[..., 0] * d[..., 0] - np.sum(lam[..., 1:] * d[..., 1:], axis=-1)) / det
    out[..., 1:] = (d[..., 1:] - out[..., :1] * lam[..., 1:]) / lam[..., :1]
    return out


def _bmv(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Batched matrix-vector product of (..., r, k) matrices with (..., k) rows."""
    return np.matmul(m, v[..., None])[..., 0]


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Inner product of each program's row (the BLAS dot of a 1-D u @ v)."""
    return np.matmul(u[:, None, :], v[:, :, None])[:, 0, 0]


def _norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each program's row, as np.linalg.norm of one row."""
    return np.sqrt(_dot(v, v))


def _wbar_blocks(wbar: np.ndarray) -> np.ndarray:
    """Dense (..., d, d) blocks of the unit-determinant NT scaling for wbar."""
    w0 = wbar[..., 0]
    w1 = wbar[..., 1:]
    d = wbar.shape[-1]
    out = np.empty(wbar.shape + (d,))
    out[..., 0, 0] = w0
    out[..., 0, 1:] = w1
    out[..., 1:, 0] = w1
    out[..., 1:, 1:] = w1[..., :, None] * (w1 / (1.0 + w0)[..., None])[..., None, :]
    di = np.arange(1, d)
    out[..., di, di] += 1.0
    return out


def _nt_scaling(u: np.ndarray, v: np.ndarray):
    """Nesterov-Todd scaling of interior primal/dual cone blocks.

    Returns (W, W^-1) as (..., d, d) blocks with W v = W^-1 u = lambda.
    W = eta * Wbar(wbar), and Wbar^-1 is Wbar of the reflected point
    (wbar_0, -wbar_1).
    """
    du = _jdet(u)
    dv = _jdet(v)
    ubar = u / np.sqrt(du)[..., None]
    vbar = v / np.sqrt(dv)[..., None]
    gamma = np.sqrt(0.5 * (1.0 + np.sum(ubar * vbar, axis=-1)))
    wbar = ubar.copy()
    wbar[..., 0] += vbar[..., 0]
    wbar[..., 1:] -= vbar[..., 1:]
    wbar /= (2.0 * gamma)[..., None]
    eta = ((du / dv) ** 0.25)[..., None, None]
    w = eta * _wbar_blocks(wbar)
    wbar[..., 1:] *= -1.0
    return w, _wbar_blocks(wbar) / eta


def _max_step(u: np.ndarray, du: np.ndarray) -> np.ndarray:
    """Largest alpha with u + alpha*du in every cone, for interior u (may be inf).

    Takes (..., g, d) blocks and returns one step per leading index.  The
    boundary crossing is the smallest positive root of the quadratic
    det(u + alpha*du) = 0; det(u) > 0 guarantees no root at zero.
    """
    a = _jdet(du)
    bq = 2.0 * (u[..., 0] * du[..., 0] - np.sum(u[..., 1:] * du[..., 1:], axis=-1))
    cq = _jdet(u)
    out = np.full(a.shape, np.inf)
    lin = np.abs(a) < 1e-300
    m = lin & (bq < 0.0)
    out[m] = -cq[m] / bq[m]
    disc = bq * bq - 4.0 * a * cq
    real = ~lin & (disc >= 0.0)
    sq = np.sqrt(np.where(disc >= 0.0, disc, 0.0))
    t = np.where(bq != 0.0, -0.5 * (bq + np.copysign(sq, bq)), 0.5 * sq)
    with np.errstate(divide="ignore", invalid="ignore"):
        r1 = np.where(real & (a != 0.0), t / a, np.inf)
        r2 = np.where(real & (t != 0.0), cq / t, np.inf)
    r1 = np.where(r1 > 0.0, r1, np.inf)
    r2 = np.where(r2 > 0.0, r2, np.inf)
    out = np.minimum(out, np.minimum(r1, r2))
    return out.min(axis=-1, initial=np.inf)


# -- KKT systems -------------------------------------------------------------


class _KKTPattern:
    """CSC sparsity pattern of K = [[-H, A'], [A, 0]], built once per solve.

    Its entries are A, A', the cone blocks of H and the whole diagonal (the
    regularization's slots; H is zero on the free variables).  slot maps
    each entry, in that order, to its place in the CSC data, so that an
    iteration only computes the values.
    """

    def __init__(self, layout: "_ConeLayout", a: np.ndarray):
        a_coo = sparse.coo_matrix(a)
        p, n = a.shape
        size = n + p
        rows = [a_coo.row + n, a_coo.col]
        cols = [a_coo.col, a_coo.row + n]
        for d, idx in layout.index.items():
            shape = (idx.shape[0], d, d)
            rows.append(np.broadcast_to(idx[:, :, None], shape).reshape(-1))
            cols.append(np.broadcast_to(idx[:, None, :], shape).reshape(-1))
        rows.append(np.arange(size))
        cols.append(np.arange(size))
        keys, self.slot = np.unique(np.concatenate(cols) * size + np.concatenate(rows),
                                    return_inverse=True)
        self.indices = keys % size
        self.indptr = np.searchsorted(keys // size, np.arange(size + 1))
        self.diag_slot = self.slot[-size:]
        self.reg_sign = np.concatenate([-np.ones(n), np.ones(p)])
        self.a_vals = np.concatenate([a_coo.data, a_coo.data])
        self.dims = tuple(layout.index)
        self.size = size

    def matrix(self, data: np.ndarray) -> sparse.csc_matrix:
        return sparse.csc_matrix((data, self.indices, self.indptr), shape=(self.size, self.size))


class _SparseKKT:
    """Sparse LU of the regularized quasi-definite KKT matrix, with refinement.

    Serves every program the scaled QR does not: free variables in the
    KKT system (the full formulation) or dependent equality rows.
    K = [[-H, A'], [A, 0]] is assembled from the cone blocks of
    H = W^-1 W^-1 and the sparse A, and factored by SuperLU with its
    column ordering and partial pivoting, so a banded program stays
    banded and a dense one simply fills in.  The static regularization is
    strengthened on an exactly singular pivot; iterative refinement runs
    against the unregularized K.  It factors one program; its blocks and
    right-hand sides may carry a program axis of length one.
    """

    # a factorization that fails raises instead
    singular = np.zeros(1, dtype=bool)

    def __init__(self, winv: dict, pattern: _KKTPattern):
        vals = [pattern.a_vals]
        vals += [-np.matmul(winv[d], winv[d]).reshape(-1) for d in pattern.dims]
        vals.append(np.zeros(pattern.size))
        data = np.bincount(pattern.slot, weights=np.concatenate(vals))
        self.k = pattern.matrix(data)
        kreg = data.copy()
        kreg[pattern.diag_slot] += _STATIC_REG * pattern.reg_sign
        for attempt in range(3):
            try:
                self._lu = splu(pattern.matrix(kreg))
                break
            except RuntimeError:
                # exactly singular pivot: strengthen the regularization and retry
                kreg[pattern.diag_slot] += _STATIC_REG * 10.0 ** (2 * attempt + 2) * pattern.reg_sign
        else:
            raise np.linalg.LinAlgError("KKT factorization failed")
        self.reg_retries = attempt
        self.refine_rounds = 0

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        shape = rhs.shape
        rhs = rhs.reshape(-1)
        sol = self._lu.solve(rhs)
        scale = 1.0 + float(np.max(np.abs(rhs)))
        best = math.inf
        rounds = 0
        for _ in range(_REFINEMENT_ROUNDS):
            resid = rhs - self.k @ sol
            rnorm = float(np.max(np.abs(resid)))
            if rnorm <= 1e-14 * scale or rnorm >= best:
                break
            best = rnorm
            sol = sol + self._lu.solve(resid)
            rounds += 1
        self.refine_rounds = max(self.refine_rounds, rounds)
        return sol.reshape(shape)


class _ScaledQRKKT:
    """KKT solver for cone-only programs with independent equality rows.

    Works in Nesterov-Todd scaled variables: with W the block-diagonal NT
    scaling (H = W^-2) and dx = W dxs, the system -H dx + A'dy = r1,
    A dx = r2 becomes -dxs + G'dy = W r1, G dxs = r2 with G' = W A'.  A
    thin QR G' = QR (n x p) gives u = R^-T r2 + Q'W r1, dy = R^-1 u and
    dxs = Q u - W r1.  Neither W^2 nor W^-2 is formed, so the step keeps
    the accuracy of the scaled problem as the iterates approach the cone
    boundary, and each factorization costs O(n p^2).  Leading axes of the
    blocks are programs: one stacked QR factors them all, and singular
    flags each program whose R has an exactly zero pivot.
    """

    reg_retries = 0
    refine_rounds = 0

    def __init__(self, w: dict, layout: "_ConeLayout", a_blocks: dict, p: int):
        self.w = w
        self.layout = layout
        self.n = n = sum(idx.size for idx in layout.index.values())
        batch = next(iter(w.values())).shape[:-3]
        gt = np.empty(batch + (n, p))
        for d, idx in layout.index.items():
            gt[..., idx.reshape(-1), :] = np.matmul(w[d], a_blocks[d]).reshape(batch + (-1, p))
        self.q, self.r = np.linalg.qr(gt)
        self.qt = np.swapaxes(self.q, -1, -2)
        self.singular = np.any(np.diagonal(self.r, axis1=-2, axis2=-1) == 0.0, axis=-1)
        # R' with rows and columns reversed is upper triangular again, so
        # both triangular solves are back substitutions without pivoting
        self._rt = np.ascontiguousarray(np.swapaxes(self.r, -1, -2)[..., ::-1, ::-1])

    def _triangular(self, rhs: np.ndarray, trans: bool) -> np.ndarray:
        if trans:
            return np.linalg.solve(self._rt, rhs[..., ::-1, None])[..., ::-1, 0]
        return np.linalg.solve(self.r, rhs[..., None])[..., 0]

    def _w_apply(self, v: np.ndarray) -> np.ndarray:
        out = np.empty_like(v)
        blocks = self.layout.gather(v)
        self.layout.scatter_into(out, {d: _bmv(self.w[d], blocks[d]) for d in blocks})
        return out

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        n = self.n
        wr1 = self._w_apply(rhs[..., :n])
        u = self._triangular(rhs[..., n:], trans=True) + _bmv(self.qt, wr1)
        dy = self._triangular(u, trans=False)
        return np.concatenate([self._w_apply(_bmv(self.q, u) - wr1), dy], axis=-1)


# -- main solver ------------------------------------------------------------


def _scaled_qr_path(problem: ConicProblem) -> np.ndarray:
    """Whether the program, or each program of a family, takes the scaled QR.

    The KKT path follows the structure of the program: cone-only programs
    with independent equality rows use the scaled thin QR.  Free
    variables, or dependent rows (W A' is then rank deficient), need the
    regularized sparse LU.
    """
    if problem.cones.n_free or not problem.cones.n_cones:
        return np.zeros(problem.A.shape[:-2], dtype=bool)
    return np.linalg.matrix_rank(problem.A) == problem.A.shape[-2]


class _Active:
    """Per-program arrays of the programs still iterating, program axis first."""

    def take(self, keep: np.ndarray):
        for name, value in vars(self).items():
            if isinstance(value, dict):
                value = {d: block[keep] for d, block in value.items()}
            else:
                value = value[keep]
            setattr(self, name, value)


def _solve_batch(
    family: ConicProblem,
    settings: SolverSettings | None,
    trace: Optional[Callable[[dict], None]],
    scaled_qr: bool,
) -> list[ConicSolution]:
    """The interior-point loop over a family that shares one KKT path.

    trace, if given, receives the records of a family of one.  The sparse
    LU path takes one program.
    """
    st = settings or SolverSettings()
    nb, p, n = family.A.shape
    layout = _ConeLayout(family.cones)
    nu = family.cones.n_cones + 1
    kkt_path = "scaled_qr" if scaled_qr else "sparse_lu"
    if not scaled_qr and nb != 1:
        raise ValueError("the sparse LU path solves one program at a time")
    if trace is not None and nb != 1:
        raise ValueError("only a batch of one is traced")

    t_start = time.perf_counter()

    s = _Active()
    s.ids = np.arange(nb)
    s.a, s.b, s.c = family.A, family.b, family.c
    s.at = np.swapaxes(s.a, 1, 2)
    s.norm_b = _norm(s.b)
    s.norm_c = _norm(s.c)
    if scaled_qr:
        s.a_blocks = {d: np.ascontiguousarray(s.a[:, :, idx].transpose(0, 2, 3, 1))
                      for d, idx in layout.index.items()}
    else:
        pattern = _KKTPattern(layout, family.A[0])
    s.x = np.zeros((nb, n))
    s.z = np.zeros((nb, n))
    for idx in layout.index.values():
        s.x[:, idx[:, 0]] = 1.0
        s.z[:, idx[:, 0]] = 1.0
    s.y = np.zeros((nb, p))
    s.tau = np.ones(nb)
    s.kappa = np.ones(nb)
    s.stalls = np.zeros(nb, dtype=int)

    out: list[Optional[ConicSolution]] = [None] * nb

    def finish(stopped, status, scale=None):
        """Record the solutions of the stopped programs (a mask over the active ones)."""
        for k in np.flatnonzero(stopped):
            sk = s.tau[k] if scale is None else scale[k]
            x = s.x[k] / sk
            res = Residuals(primal=float(s.pres[k]), dual=float(s.dres[k]), gap=float(s.gap[k]))
            out[s.ids[k]] = ConicSolution(
                x=x, y=s.y[k] / sk, z=s.z[k] / sk, status=status, gap=float(s.gap[k]),
                residuals=res, iterations=it,
                solve_time=time.perf_counter() - t_start,
                objective=float(s.c[k] @ s.x[k] / sk),
            )

    def stop(stopped, reason):
        """Best-effort exit reported as max_iters; the trace names the cause."""
        if trace is not None:
            trace({"iter": it, "stop": reason})
        finish(stopped, "max_iters")

    def factor():
        """The KKT factorization of the active programs, and which broke down."""
        try:
            if scaled_qr:
                kkt = _ScaledQRKKT(s.w, layout, s.a_blocks, p)
            else:
                kkt = _SparseKKT(s.winv, pattern)
        except np.linalg.LinAlgError:
            # factorization breakdown with finite iterates: let the caller
            # see the best effort rather than a hard failure
            return None, np.ones(s.ids.size, dtype=bool)
        return kkt, kkt.singular

    for it in range(st.max_iters + 1):
        ax = _bmv(s.a, s.x)
        aty = _bmv(s.at, s.y)
        cx = _dot(s.c, s.x)
        by = _dot(s.b, s.y)
        s.r_p = ax - s.b * s.tau[:, None]
        s.r_d = -aty - s.z + s.c * s.tau[:, None]
        s.r_g = by - cx - s.kappa

        s.uu = layout.gather(s.x)
        s.vv = layout.gather(s.z)
        # primal and dual blocks side by side, for the cone tests of both
        s.uv = {d: np.concatenate([s.uu[d], s.vv[d]], axis=-2) for d in s.uu}
        s.comp = sum(np.sum(s.uu[d] * s.vv[d], axis=(1, 2)) for d in s.uu) + s.tau * s.kappa
        s.mu = s.comp / nu

        # residuals of the scaled point (x, y, z) / tau
        s.pres = _norm(s.r_p) / (s.tau * (1.0 + s.norm_b))
        s.dres = _norm(s.r_d) / (s.tau * (1.0 + s.norm_c))
        s.gap = np.abs(cx - by) / (s.tau + np.abs(cx))
        if trace is not None:
            trace({"iter": it, "mu": float(s.mu[0]), "pres": float(s.pres[0]),
                   "dres": float(s.dres[0]), "gap": float(s.gap[0]),
                   "tau": float(s.tau[0]), "kappa": float(s.kappa[0])})

        failed = ~(np.isfinite(s.pres) & np.isfinite(s.dres) & np.isfinite(s.gap)
                   & np.isfinite(s.mu) & np.isfinite(s.tau) & np.isfinite(s.kappa))
        done = failed.copy()
        optimal = ~done & (s.pres <= st.feas_tol) & (s.dres <= st.feas_tol) & (s.gap <= st.gap_tol)
        done |= optimal
        infeasible = ~done & (by > 0.0) & (
            _norm(aty + s.z) <= st.feas_tol * (1.0 + s.norm_c) * by)
        done |= infeasible
        unbounded = ~done & (cx < 0.0) & (_norm(ax) <= st.feas_tol * (1.0 + s.norm_b) * -cx)
        done |= unbounded
        if done.any():
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
        pinned = np.zeros(s.ids.size, dtype=bool)
        for d in s.uv:
            pinned |= np.any(_jdet(s.uv[d]) <= 0.0, axis=-1)
        pinned &= ~done
        if pinned.any():
            stop(pinned, "cone_boundary")
            done |= pinned
        if done.any():
            s.take(~done)
            if not s.ids.size:
                break

        s.w, s.winv, s.lam = {}, {}, {}
        for d in s.uu:
            s.w[d], s.winv[d] = _nt_scaling(s.uu[d], s.vv[d])
            s.lam[d] = _bmv(s.w[d], s.vv[d])

        t_factor = time.perf_counter()
        kkt, broken = factor()
        while broken.any() and not broken.all():
            # each program factors alone, so the others factor as before
            stop(broken, "kkt_breakdown")
            s.take(~broken)
            kkt, broken = factor()
        if broken.any():
            stop(broken, "kkt_breakdown")
            break
        factor_s = time.perf_counter() - t_factor
        nb = s.ids.size
        sol2 = kkt.solve(np.concatenate([s.c, s.b], axis=1))
        dx2, dy2 = sol2[:, :n], sol2[:, n:]
        den = s.kappa / s.tau - _dot(s.c, dx2) + _dot(s.b, dy2)

        def direction(gamma, d_c, d_tk):
            """Newton direction targeting residual reduction factor (gamma - 1)."""
            gvec = np.zeros((nb, n))
            layout.scatter_into(gvec, {d: _bmv(s.winv[d], _jsolve(s.lam[d], d_c[d])) for d in d_c})
            rd_hat = (1.0 - gamma)[:, None] * s.r_d - gvec
            rp_hat = (gamma - 1.0)[:, None] * s.r_p
            sol1 = kkt.solve(np.concatenate([rd_hat, rp_hat], axis=1))
            dx1, dy1 = sol1[:, :n], sol1[:, n:]
            num = (gamma - 1.0) * s.r_g + d_tk / s.tau + _dot(s.c, dx1) - _dot(s.b, dy1)
            dtau = num / den
            dx = dx1 + dtau[:, None] * dx2
            dy = dy1 + dtau[:, None] * dy2
            # dz from the linear dual equation, which the step then reduces
            # exactly; W^-1(lambda \ d_c) - H dx would carry the KKT solve's
            # rounding into z
            dz = (s.c * dtau[:, None] - _bmv(s.at, dy)
                  + (1.0 - gamma)[:, None] * s.r_d)
            dkappa = (d_tk - s.kappa * dtau) / s.tau
            return dx, dy, dtau, layout.gather(dx), layout.gather(dz), dkappa

        def step_limit(du_b, dv_b, dtau, dkappa):
            # tau and kappa limit the step only where they decrease
            amax = np.minimum(
                np.divide(-s.tau, dtau, out=np.full(nb, np.inf), where=dtau < 0.0),
                np.divide(-s.kappa, dkappa, out=np.full(nb, np.inf), where=dkappa < 0.0))
            for d in du_b:
                amax = np.minimum(amax, _max_step(s.uv[d], np.concatenate([du_b[d], dv_b[d]],
                                                                          axis=-2)))
            return amax

        # predictor (affine direction, sigma = 0)
        d_c_aff = {d: -_jprod(s.lam[d], s.lam[d]) for d in s.uu}
        _, _, dtaua, dua, dva, dkappaa = direction(np.zeros(nb), d_c_aff, -s.tau * s.kappa)
        alpha_aff = np.minimum(1.0, step_limit(dua, dva, dtaua, dkappaa))

        comp_aff = sum(
            np.sum((s.uu[d] + alpha_aff[:, None, None] * dua[d])
                   * (s.vv[d] + alpha_aff[:, None, None] * dva[d]), axis=(1, 2))
            for d in s.uu
        ) + (s.tau + alpha_aff * dtaua) * (s.kappa + alpha_aff * dkappaa)
        sigma = np.minimum(1.0, (np.maximum(comp_aff, 0.0) / s.comp) ** 3)

        # corrector (combined direction with Mehrotra second-order term)
        d_c = {}
        for d in s.uu:
            corr = _jprod(_bmv(s.winv[d], dua[d]), _bmv(s.w[d], dva[d]))
            target = -_jprod(s.lam[d], s.lam[d]) - corr
            target[..., 0] += (sigma * s.mu)[:, None]
            d_c[d] = target
        d_tk = sigma * s.mu - s.tau * s.kappa - dtaua * dkappaa
        dx, dy, dtau, du_b, dv_b, dkappa = direction(sigma, d_c, d_tk)

        alpha = np.minimum(1.0, _FRACTION_TO_BOUNDARY * step_limit(du_b, dv_b, dtau, dkappa))
        if trace is not None:
            trace({"iter": it, "sigma": float(sigma[0]), "alpha_aff": float(alpha_aff[0]),
                   "alpha": float(alpha[0]), "kkt": kkt_path, "factor_s": factor_s,
                   "refine_rounds": kkt.refine_rounds, "reg_retries": kkt.reg_retries})
        s.stalls = np.where(alpha <= _MIN_STEP, s.stalls + 1, 0)
        stalled = s.stalls >= 2
        if stalled.any():
            stop(stalled, "step_stall")

        s.x += alpha[:, None] * dx
        s.y += alpha[:, None] * dy
        layout.scatter_into(s.z, {d: s.vv[d] + alpha[:, None, None] * dv_b[d] for d in dv_b})
        s.tau = s.tau + alpha * dtau
        s.kappa = s.kappa + alpha * dkappa
        if stalled.any():
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
