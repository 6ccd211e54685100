"""Primal-dual interior-point solver for second-order cone programs.

Solves the standard-form pair

    minimize    c'x                maximize    b'y
    subject to  A x = b            subject to  A'y + z = c
                x in K                          z in K*

where K is a product of one free block and second-order cones
(sigma, u) with sigma >= ||u||, all of one dimension d.  The method is
path-following on the homogeneous self-dual embedding with Nesterov-Todd
scaling W, applied in closed form per cone, and a Mehrotra predictor-
corrector; infeasibility is detected through Farkas certificates.

The loop takes cone-only programs with independent rows and solves each
Newton system in NT-scaled variables, dxs = W^-1 dx, by a thin QR of
G' = W A'; W = I at the start, so the path test's QR of A' serves the first
iteration.  Any other program is presolved once (StageMatrix.presolve,
_presolve) and its answer lifted after the loop.  It needs numpy alone,
2.2 or later for the batched products np.vecdot and np.matvec.

One loop serves every program as a family (c, A and b with a leading
program axis), the programs of a solve_batch of one presolved shape
together.  A family is stored variables x programs so the cone algebra
makes one pass over it, each program's reductions on its own row with the
calls of a program alone: solve_batch returns what each program returns
alone.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

_FRACTION_TO_BOUNDARY = 0.99
_MIN_STEP = 1e-11
# the first solve's dl: lambda in the predictor's column, none in the tau direction's
_SECOND_COLUMN = np.array([0.0, 1.0])[:, None, None]

# statuses of a best-effort exit, whose iterate is returned as it stood: the
# iteration cap, a KKT factorization breakdown, an iterate pinned to the cone
# boundary and two stalled steps
BEST_EFFORT = ("max_iters", "kkt_breakdown", "cone_boundary", "step_stall")


def _integer(value) -> bool:
    """Whether a size or count is an integer: a bool, a float such as 3.0 or a string is not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_integer(name: str, value, least: int) -> None:
    """README's integer rule: ValueError naming name unless value is an integer >= least."""
    if not _integer(value) or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")


def _check_real(name: str, value, sign: str = "positive") -> None:
    """README's real rule: ValueError naming name unless value is a finite real of
    the sign, "positive", "nonnegative" or "finite" (any).  A bool or a string is no real."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        finite = real and math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        finite = False
    if not (finite and (sign == "finite" or (0 <= value if sign == "nonnegative" else 0 < value))):
        rule = sign if sign == "finite" else f"finite and {sign}"
        raise ValueError(f"{name} must be {rule}, got {value!r}")


@dataclass(frozen=True)
class ConeSpec:
    """Ordered cone structure of the variable vector: free block, then SOCs,
    all of one dimension."""

    n_free: int
    soc_dims: tuple[int, ...] = ()

    def __post_init__(self):
        # whether a size is an integer depends on its type alone: check one of each
        for size in {type(s): s for s in (self.n_free, *self.soc_dims)}.values():
            if not _integer(size):
                raise ValueError(f"cone sizes must be integers, got {size!r}")
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
class StageMatrix:
    """Equality matrix of a staged program, held as its O(m) blocks D_j =
    diag[j] (d, d) and C_j = cones[j] (d, w).  Stage j < m owns the free x_j
    (d variables) and cone j (w), x runs (x_0, ..., x_{m-1}, cone 0, ...,
    cone m-1), and the m + 1 row blocks of d rows are D_0 x_0, then
    D_{j+1} x_{j+1} - D_j x_j - C_j cone_j, then D_{m-1} x_{m-1} + C_{m-1}
    cone_{m-1}: block m less all the others cancels every state by
    construction.  A @ v (a vector or (n, k) columns) and v @ A (a vector or
    (k, p) rows) are batched block products; np.asarray(A) is dense.  The
    solver presolves such a program once per solve and lifts its answer."""

    diag: np.ndarray
    cones: np.ndarray
    ndim = 2
    # numpy defers v @ A to __rmatmul__ rather than densify A
    __array_ufunc__ = None

    @property
    def shape(self) -> tuple[int, int]:
        m, d, w = self.cones.shape
        return (m + 1) * d, m * (d + w)

    def __matmul__(self, v) -> np.ndarray:
        m, d, w = self.cones.shape
        v = np.asarray(v, dtype=float)
        cols = v.reshape(len(v), -1)
        states = self.diag @ cols[:m * d].reshape(m, d, -1)
        cones = self.cones @ cols[m * d:].reshape(m, w, -1)
        out = np.concatenate([states, states[-1:] + cones[-1:]])
        out[1:m] -= states[:-1] + cones[:-1]
        return out.reshape((-1,) + v.shape[1:])

    def __rmatmul__(self, v) -> np.ndarray:
        m, d, _ = self.cones.shape
        y = np.asarray(v, dtype=float)
        y = y.reshape(y.shape[:-1] + (m + 1, 1, d))
        # x_j meets y_j - y_{j+1} (y_{m-1} + y_m for the last), cone j -y_{j+1} (y_m)
        on_states = y[..., :-1, :, :] - y[..., 1:, :, :]
        on_states[..., -1, :, :] = y[..., -2, :, :] + y[..., -1, :, :]
        on_cones = -y[..., 1:, :, :]
        on_cones[..., -1, :, :] = y[..., -1, :, :]
        rows = (np.matmul(on_states, self.diag), np.matmul(on_cones, self.cones))
        return np.concatenate([r.reshape(y.shape[:-3] + (-1,)) for r in rows], axis=-1)

    def __array__(self, dtype=None, copy=None):
        m, d, w = self.cones.shape
        a = np.zeros(self.shape, dtype=dtype)
        states = a[:, :m * d].reshape(m + 1, d, m, d)
        cones = a[:, m * d:].reshape(m + 1, d, m, w)
        j = np.arange(m)
        states[j, :, j] = self.diag
        states[j[1:], :, j[:-1]] = -self.diag[:-1]
        states[m, :, m - 1] = self.diag[-1]
        cones[j[1:], :, j[:-1]] = -self.cones[:-1]
        cones[m, :, m - 1] = self.cones[-1]
        return a

    def presolve(self, problem: ConicProblem) -> ConicProblem:
        """The cone-only program of problem, whose A this is: row block m
        less the blocks before it cancels every state x_j and leaves c's
        cone part, Abar = [C_0, ..., C_{m-1}] and bbar = b_m - sum of b_j.
        The transcription's full form holds D_0 x0 in b_0 and zeros in
        b_1..b_{m-1}, so this is its condensed program itself, bit for bit."""
        m, s, _ = self.cones.shape
        abar, b = self.cones.transpose(1, 0, 2).reshape(s, -1), problem.b.reshape(-1, s)
        return ConicProblem(problem.c[m * s:], abar, b[-1] - np.sum(b[:-1], axis=0),
                            ConeSpec(0, problem.cones.soc_dims))

    def lift(self, x: np.ndarray, y: np.ndarray, z: np.ndarray, b: np.ndarray):
        """The program's (k, n) x and z and (k, p) y from rows x, y and z of
        the presolved program, the states solving row blocks 0..m-1 with
        right-hand sides b (k, p): D_j x_j = sum_{i<=j} b_i + sum_{i<j} C_i
        xc_i, and y = (-ybar, ..., -ybar, ybar), whose A'y is zero on the
        states and Abar'ybar on the cones."""
        k = len(x)
        m, s, c = self.cones.shape
        sums = np.cumsum(b.reshape(k, m + 1, s)[:, :-1], axis=1)
        sums[:, 1:] += np.cumsum(np.matvec(self.cones[:-1], x.reshape(k, m, c)[:, :-1]), axis=1)
        states = np.linalg.solve(self.diag, sums[..., None])[..., 0]
        return (np.concatenate([states.reshape(k, -1), x], axis=1),
                np.concatenate([np.tile(-y, m), y], axis=1),
                np.concatenate([np.zeros((k, m * s)), z], axis=1))


@dataclass(frozen=True)
class ConicProblem:
    """Standard-form conic program data, for one program or a family.

    A family carries one leading program axis: c (K, n), A (K, p, n) and
    b (K, p), all sharing the cone structure and var_map.  One program's A
    may be a StageMatrix.  var_map is free-form metadata of the assembly
    (e.g. where each impulse lives in x); the solver ignores it.
    """

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    cones: ConeSpec
    var_map: Optional[dict] = None

    def __post_init__(self):
        c, b = (np.asarray(v, dtype=float) for v in (self.c, self.b))
        a = self.A if isinstance(self.A, StageMatrix) else np.asarray(self.A, dtype=float)
        if (a.ndim not in (2, 3) or c.shape != a.shape[:-2] + a.shape[-1:]
                or b.shape != a.shape[:-1]):
            raise ValueError(f"dimension mismatch: c {c.shape}, A {a.shape} and b {b.shape} are "
                             "neither one program nor a family of K programs on one axis")
        if self.cones.dim != a.shape[-1]:
            raise ValueError(f"dimension mismatch: cones dim {self.cones.dim}, n {a.shape[-1]}")
        if isinstance(a, StageMatrix):
            m, d, w = a.cones.shape
            if (self.cones.n_free, self.cones.soc_dims) != (m * d, (w,) * m):
                raise ValueError(f"a StageMatrix of {m} stages needs {m * d} free variables "
                                 f"and {m} cones of dimension {w}, got {self.cones}")
            if np.any(c[:m * d]):
                raise ValueError("the states of a StageMatrix program carry no cost")
        for name, value in (("c", c), ("A", a), ("b", b)):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class SolverSettings:
    gap_tol: float = 1e-9
    feas_tol: float = 1e-9
    max_iters: int = 100

    def __post_init__(self):
        _check_real("gap_tol", self.gap_tol)
        _check_real("feas_tol", self.feas_tol)
        _check_integer("max_iters", self.max_iters, 1)


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
    residuals: Residuals
    iterations: int
    solve_time: float
    objective: float = math.nan

    @property
    def gap(self) -> float:
        return self.residuals.gap


def _single(problem: ConicProblem, caller: str):
    if problem.A.ndim != 2:
        raise ValueError(f"{caller} takes one program, not a family of {problem.A.shape[0]}")


def residuals(problem: ConicProblem, x, y, z) -> Residuals:
    """Relative primal/dual residuals and duality gap of a candidate triple."""
    _single(problem, "residuals")
    x, y, z = (np.asarray(v, dtype=float).reshape(-1) for v in (x, y, z))
    n, p = problem.c.size, problem.b.size
    if x.size != n or z.size != n or y.size != p:
        raise ValueError(f"dimension mismatch: expected x,z of size {n} and y of size {p}, "
                         f"got {x.size}, {z.size}, {y.size}")
    pcost = float(problem.c @ x)
    primal = np.linalg.norm(problem.A @ x - problem.b) / (1.0 + np.linalg.norm(problem.b))
    dual = np.linalg.norm(y @ problem.A + z - problem.c) / (1.0 + np.linalg.norm(problem.c))
    gap = abs(pcost - float(problem.b @ y)) / (1.0 + abs(pcost))
    return Residuals(primal=float(primal), dual=float(dual), gap=float(gap))


# -- batched second-order cone algebra -------------------------------------
#
# The g cones of K programs are processed together as (..., d, g K) arrays,
# the leading axes, if any, stacking right-hand sides or rows of A.


class _ConeLayout:
    """The solver's variable order of a cone-only program, perm (undone by
    unperm): the heads of the g cones of dimension d, their first tail
    components, and so on.  An iterate is stored variables x programs, so
    it is one (d, g K) view over the whole family, whose last axis runs
    over the cones and, within each cone, the programs."""

    def __init__(self, spec: ConeSpec):
        self.g = spec.n_cones
        # any dimension serves the empty block of a program without cones
        self.d = spec.soc_dims[0] if spec.soc_dims else 2
        self.perm = (np.arange(self.d)[:, None] + self.d * np.arange(self.g)).reshape(-1)
        self.unperm = np.argsort(self.perm)

    def blocks(self, v: np.ndarray) -> np.ndarray:
        """(..., d, g K) view of v, whose last two axes are variables x programs."""
        return v.reshape(v.shape[:-2] + (self.d, self.g * v.shape[-1]))

    def scale(self, wbar: np.ndarray, eta: np.ndarray, v: np.ndarray) -> np.ndarray:
        """W v for the NT scaling W = eta Wbar(wbar) of each cone."""
        out = np.empty(v.shape)
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


def _norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each program's row, as np.linalg.norm of one row."""
    return np.sqrt(np.vecdot(v, v))


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


def _max_step(lbar: np.ndarray, rdet: np.ndarray, du: np.ndarray, programs: int) -> np.ndarray:
    """Largest alpha with lambda + alpha du in every cone, per program (1e300
    without a bound), for (..., d, g K) steps du and lbar = lambda / rdet,
    rdet = sqrt(det(lambda)).  u = Wbar(J lbar) du / rdet sends lambda to e
    and the cone onto itself, and e + alpha u stays in the cone while
    alpha (||u_1|| - u_0) <= 1 (CVXOPT's max_step)."""
    l0, l1, d0, d1 = lbar[0], lbar[1:], du[..., 0, :], du[..., 1:, :]
    s = _csum(l1 * d1)
    u1 = d1 - (d0 - s / (1.0 + l0))[..., None, :] * l1
    t = (np.sqrt(_csum(u1 * u1)) - (l0 * d0 - s)) / rdet
    return 1.0 / np.maximum.reduce(t.reshape(-1, programs), axis=0, initial=1e-300)


# -- the KKT system ----------------------------------------------------------


class _ScaledQRKKT:
    """The loop's Newton system.  With H = W^-2 and dxs = W^-1 dx, -H dx +
    A'dy = r1 + W^-1 dl, A dx = r2 reads -dxs + G'dy = W r1 + dl, G dxs = r2.
    A thin QR G' = QR (n x p) gives u = R^-T r2 + Q'W r1, dy = R^-1 u and
    dxs = Q u - W r1 on each program's rows, at O(n p^2).  One stacked QR
    factors all programs, unless first hands over (G', Q, R); singular flags
    each whose R has an exactly zero pivot.  solve takes W r1 (columns, n,
    programs), dl stacked alike or broadcasting, and r2 (programs, columns,
    p); it returns dxs as (programs, columns, n) rows and as (columns, n,
    programs), and dy (programs, columns, p).  gty gives G'dy."""

    def __init__(self, wbar: np.ndarray, eta: np.ndarray, a: np.ndarray, layout: _ConeLayout,
                 first: Optional[list] = None):
        if first is None:
            # the rows of G = A W are W times the rows of A, (p, n, programs);
            # G' is kept as each program's contiguous (n, p) block for its products
            gt = np.ascontiguousarray(layout.scale(wbar, eta, a).transpose(2, 1, 0))
            first = (gt, *np.linalg.qr(gt))
        self.gt, self.q, r = first
        self.qt = self.q.transpose(0, 2, 1)
        self.singular = np.any(np.diagonal(r, axis1=-2, axis2=-1) == 0.0, axis=-1)
        if not self.singular.any():
            # R^-1 (back substitution, R being triangular) once per
            # factorization: each triangular solve is one batched product
            self.rinv = np.linalg.inv(r)
            self.rinvt = self.rinv.transpose(0, 2, 1)

    def solve(self, wr1: np.ndarray, dl: np.ndarray, r2: np.ndarray):
        wr1 = (wr1 + dl).transpose(2, 0, 1).copy()
        u = r2 @ self.rinv + wr1 @ self.q
        dxs = u @ self.qt - wr1
        return dxs, dxs.transpose(1, 2, 0).copy(), u @ self.rinvt

    def gty(self, dy: np.ndarray) -> np.ndarray:
        """G'dy from the factored G', (n, programs)."""
        return np.matvec(self.gt, dy).T


# -- presolve and dispatch ---------------------------------------------------


def _scaled_qr_path(problem: ConicProblem):
    """Whether each program of a cone-only family has independent rows, and
    the family's QR [G', Q, R] of (..., n, p) G' = A' in the solver's order:
    no rows, more rows than columns or a pivot within rounding of zero (as
    matrix_rank's tolerance) sends a program to _presolve."""
    gt = np.swapaxes(problem.A, -1, -2).take(_ConeLayout(problem.cones).perm, axis=-2)
    n, p = gt.shape[-2:]
    q, r = np.linalg.qr(gt)
    pivots = np.abs(np.diagonal(r, axis1=-2, axis2=-1))
    tol = np.max(pivots, axis=-1, initial=0.0) * n * np.finfo(float).eps
    return (0 < p <= n) & (np.min(pivots, axis=-1, initial=np.inf) > tol), [gt, q, r]


def _split(m: np.ndarray, rhs: np.ndarray, tol: float, sign: float):
    """The columns of m that each add, in order, a pivot above the path
    test's rounding tolerance to the QR of those kept before it; or, when a
    dropped one's rhs misfits the kept ones' by more than tol, v with m v = 0
    to rounding and rhs'v = sign: a Farkas vector or a ray."""
    pivots = np.abs(np.diagonal(np.linalg.qr(m, mode="r")))
    eps = np.max(pivots, initial=0.0) * m.shape[0] * np.finfo(float).eps
    if m.shape[1] <= m.shape[0] and np.all(pivots > eps):
        return list(range(m.shape[1]))
    keep = []
    for j in range(m.shape[1]):
        if len(keep) < m.shape[0] and abs(np.linalg.qr(m[:, keep + [j]], mode="r")[-1, -1]) > eps:
            keep.append(j)
    drop = np.setdiff1d(np.arange(m.shape[1]), keep)
    w = np.linalg.lstsq(m[:, keep], m[:, drop], rcond=None)[0]
    misfit = rhs[drop] - rhs[keep] @ w
    if np.all(np.abs(misfit) <= tol):
        return keep
    j = np.argmax(np.abs(misfit))
    v = np.zeros(m.shape[1])
    v[drop[j]], v[keep] = 1.0, -w[:, j]
    return v / (sign * misfit[j])


def _presolve(problem: ConicProblem, gt: np.ndarray, st: SolverSettings, norms):
    """One program as (cone-only program with independent rows, objective
    offset, lift) or as its answer (x, y, z, status).  _split keeps rows (gt = A'), then free
    columns F, within feas_tol of norms (1 + |b|, 1 + |c|).  F_k = [Q1 Q2] R1
    leaves Q2'A_c x_c = Q2'b at cost cbar = c_c - A_c'y0, y0 = Q1 R1^-T c_k;
    the lift restores x_k = R1^-1 Q1'(b - A_c x_c) and y = y0 + Q2 ybar.
    Without rows, x = 0 is optimal if cbar is in K* = K, else the cone
    cbar = (s, u) leaves most gives the ray (1, -u/|u|)."""
    b, c, nf = problem.b, problem.c, problem.cones.n_free
    zeros, rows = np.zeros(c.size), _split(gt, b, st.feas_tol * norms[0], 1.0)
    if isinstance(rows, np.ndarray):
        return zeros, rows, zeros, "primal_infeasible"
    f, ac, bk = problem.A[rows, :nf], problem.A[rows, nf:], b[rows]
    keep = _split(f, c[:nf], st.feas_tol * norms[1], -1.0)
    if isinstance(keep, np.ndarray):
        return np.concatenate([keep, zeros[nf:]]), np.zeros(b.size), zeros, "dual_infeasible"
    q, r = np.linalg.qr(f[:, keep], mode="complete")
    q1, q2, r1 = q[:, :len(keep)], q[:, len(keep):], r[:len(keep)]
    y0 = q1 @ np.linalg.solve(r1.T, c[keep])

    def lift(x, y, z, sol):
        xf, yp = np.zeros(nf), np.zeros(b.size)
        xf[keep] = np.linalg.solve(r1, (bk * sol - ac @ x) @ q1)
        yp[rows] = y0 * sol + q2 @ y
        return np.concatenate([xf, x]), yp, np.concatenate([zeros[:nf], z])

    cbar, cones = c[nf:] - y0 @ ac, ConeSpec(0, problem.cones.soc_dims)
    if len(rows) > len(keep):
        return ConicProblem(cbar, q2.T @ ac, q2.T @ bk, cones), float(y0 @ bk), lift
    cbar = cbar.reshape(-1, _ConeLayout(cones).d)
    tail = np.linalg.norm(cbar[:, 1:], axis=1)
    excess = np.maximum(tail - cbar[:, 0], 0.0)
    x, z = np.zeros_like(cbar), cbar.copy()
    if np.linalg.norm(excess) <= st.feas_tol * norms[1]:
        z[:, 0] = np.maximum(cbar[:, 0], tail)  # each head raised to its tail's norm
        return (*lift(x.reshape(-1), np.zeros(0), z.reshape(-1), True), "optimal")
    j = np.argmax(excess)
    x[j, 0], x[j, 1:] = 1.0, -cbar[j, 1:] / (tail[j] or 1.0)
    x = x.reshape(-1) / excess[j]
    return (*lift(x, np.zeros(0), np.zeros(x.size), False), "dual_infeasible")


class _Active:
    """Per-program arrays of the programs still iterating.  The data rows in
    rows carry the program axis first; every other array carries it last,
    and on the per-cone arrays in cones that axis is cones x programs."""

    rows = ("a", "at", "b", "c_prog", "y", "x_prog", "r_p")
    cones = ("wbar", "eta", "det")

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


def _solve_batch(problem: ConicProblem, st: SolverSettings,
                 trace: Optional[Callable[[dict], None]], first: Optional[list], path: str,
                 norms: list) -> list[ConicSolution]:
    """The interior-point loop over a cone-only family with independent
    rows, with the path test's QR or None; trace gets a family of one's
    records.  It stops on the residuals of the programs they stand for, of
    norms 1 + |b|, 1 + |c| and objective offset."""
    c, b = problem.c, problem.b
    (nb, n), p = c.shape, b.shape[1]
    layout = _ConeLayout(problem.cones)
    perm, unperm = layout.perm, layout.unperm
    nu = problem.cones.n_cones + 1

    t_start = time.perf_counter()
    s = _Active()
    s.ids = np.arange(nb)
    # A x and c'x add in the program's order, as residuals() does, each row
    # contiguous so that its products add alike in any batch
    s.b, s.c_prog = b, c
    s.a, s.at = problem.A, np.swapaxes(problem.A, 1, 2)
    s.a_perm = problem.A.transpose(1, 2, 0).take(perm, axis=1)
    s.norm_b1, s.norm_c1, s.offset = norms
    s.feas_b, s.feas_c = st.feas_tol * s.norm_b1, st.feas_tol * s.norm_c1
    # x, z, c and r_d stacked, variables x programs: one W product gives
    # lambda = W z, W c and W r_d, and one transposed copy the rows of x and z
    s.v = np.zeros((4, n, nb))
    layout.blocks(s.v[:2])[:, 0] = 1.0
    s.v[2] = c.T.take(perm, axis=0)
    s.y = np.zeros((nb, p))
    s.tau, s.kappa = np.ones(nb), np.ones(nb)
    # whether each program's last step was below _MIN_STEP: two in a row stall it
    s.small = np.zeros(nb, dtype=bool)

    out: list[Optional[ConicSolution]] = [None] * nb

    def finish(stopped, status, scale=None):
        """Record the solutions of the stopped programs (a mask over the active ones)."""
        if not stopped.any():
            return
        sk = (s.tau if scale is None else scale)[stopped, None]
        x = s.x_prog[stopped] / sk
        y = s.y[stopped] / sk
        z = s.v[1][:, stopped].T.take(unperm, axis=-1) / sk
        objectives = np.vecdot(s.c_prog[stopped], x).tolist()
        res = [Residuals(*v) for v in zip(s.pres[stopped].tolist(), s.dres[stopped].tolist(),
                                          s.gap[stopped].tolist())]
        solve_time = time.perf_counter() - t_start
        for i, xk, yk, zk, rk, objective in zip(s.ids[stopped].tolist(), x, y, z, res, objectives):
            out[i] = ConicSolution(x=xk, y=yk, z=zk, status=status, residuals=rk,
                                   iterations=it, solve_time=solve_time, objective=objective)

    def stop(stopped, reason):
        """Best-effort exit before the iteration cap, reported and traced as its cause."""
        if trace is not None:
            trace({"iter": it, "stop": reason})
        finish(stopped, reason)

    def factor(start=None):
        """The KKT factorization of the active programs, and which broke down."""
        try:
            kkt = _ScaledQRKKT(s.wbar, s.eta, s.a_perm, layout, start)
        except np.linalg.LinAlgError:
            # a breakdown with finite iterates returns the best effort
            return None, np.ones(s.ids.size, dtype=bool)
        return kkt, kkt.singular

    for it in range(st.max_iters + 1):
        # each program's row of x and z in the solver's order, and of x in its own
        x_rows, z_rows = s.v[:2].transpose(0, 2, 1).copy()
        s.x_prog = x_rows.take(unperm, axis=-1)
        ax = np.matvec(s.a, s.x_prog)
        atyz = np.matvec(s.at, s.y).take(perm, axis=-1) + z_rows
        cx = np.vecdot(s.c_prog, s.x_prog)
        by = np.vecdot(s.b, s.y)
        s.r_p = ax - s.b * s.tau[:, None]
        r_d_rows = s.v[2].T * s.tau[:, None] - atyz
        s.v[3] = r_d_rows.T
        s.r_g = by - cx - s.kappa
        s.mu = (np.vecdot(x_rows, z_rows) + s.tau * s.kappa) / nu

        # residuals of the scaled point (x, y, z) / tau; the gap is
        # residuals()'s of the x / tau and y / tau that finish returns
        s.pres = _norm(s.r_p) / (s.tau * s.norm_b1)
        s.dres = _norm(r_d_rows) / (s.tau * s.norm_c1)
        cx_tau = np.vecdot(s.c_prog, s.x_prog / s.tau[:, None])
        s.gap = (np.abs(cx_tau - np.vecdot(s.b, s.y / s.tau[:, None]))
                 / (1.0 + np.abs(cx_tau + s.offset)))
        if trace is not None:
            trace({"iter": it, "mu": float(s.mu[0]), "pres": float(s.pres[0]),
                   "dres": float(s.dres[0]), "gap": float(s.gap[0]),
                   "tau": float(s.tau[0]), "kappa": float(s.kappa[0])})

        # a sum of the six is finite only where each one is
        failed = ~np.isfinite(s.pres + s.dres + s.gap + s.mu + s.tau + s.kappa)
        done = failed.copy()
        optimal = ~done & (s.pres <= st.feas_tol) & (s.dres <= st.feas_tol) & (s.gap <= st.gap_tol)
        done |= optimal
        infeasible = ~done & (by > 0.0) & (_norm(atyz) <= s.feas_c * by)
        done |= infeasible
        unbounded = ~done & (cx < 0.0) & (_norm(ax) <= s.feas_b * -cx)
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

        # an iterate pinned to the cone boundary can center no further
        xzb = layout.blocks(s.v[:2])
        s.det = _jdot(xzb, xzb)
        pinned = ~done & (np.minimum.reduce(s.det.reshape(-1, s.ids.size), axis=0,
                                            initial=np.inf) <= 0.0)
        if pinned.any():
            stop(pinned, "cone_boundary")
            done |= pinned
            any_done = True
        if any_done:
            s.take(~done)
            if not s.ids.size:
                break
            xzb = layout.blocks(s.v[:2])

        # NT scaling W
        s.wbar, s.eta = _nt_scaling(xzb[0], xzb[1], s.det[0], s.det[1])

        t_factor = time.perf_counter()
        # W = I at the start: iteration 0 takes over the path test's G', Q and R
        kkt, broken = factor([v[s.ids] for v in first] if first and it == 0 else None)
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

        # lambda = W z = W^-1 x, W c and W r_d, and lambda normalized
        wv = layout.scale(s.wbar, s.eta, s.v[1:])
        lam = wv[0]
        lam_b = layout.blocks(lam)
        det_lam = _jdot(lam_b, lam_b)
        rdet = np.sqrt(det_lam)
        lbar = lam_b / rdet
        wc_rows = wv[1].T.copy()

        def direction(gamma, d_tk, dxs1, cdx1, bdy1, dy1):
            """Newton direction targeting residual reduction factor (gamma - 1)
            from the first solve's column and its c'dx and b'dy: the scaled
            step dxs = W^-1 dx, dy, dtau and dkappa."""
            dtau = ((gamma - 1.0) * s.r_g + d_tk / s.tau + cdx1 - bdy1) / den
            dkappa = (d_tk - s.kappa * dtau) / s.tau
            return dxs1 + dtau * dxs2, dy1 + dtau[:, None] * dy2, dtau, dkappa

        def step_limit(steps, dtau, dkappa, frac):
            """frac times the largest step, capped at 1; tau and kappa limit it
            only where they decrease."""
            t = np.maximum(-dtau / s.tau, -dkappa / s.kappa)
            # x + alpha dx = W(lambda + alpha dxs) and z + alpha dz =
            # W^-1(lambda + alpha dzs), and W maps the cone onto itself
            return np.minimum(frac / np.maximum(t, frac),
                              frac * _max_step(lbar, rdet, layout.blocks(steps), nb))

        # the tau direction (right-hand side [c; b]) and the predictor's
        # (affine, sigma = 0: W r1 = W r_d + lambda) in one two-column solve
        dxs_rows, dxs, dy = kkt.solve(
            wv[1:], lam * _SECOND_COLUMN, np.concatenate([s.b[:, None], -s.r_p[:, None]], axis=1))
        # c'dx = (W c)'dxs, W being symmetric, and b'dy of each column
        cdx, bdy = np.matvec(dxs_rows, wc_rows), np.matvec(dy, s.b)
        dxs2, dy2 = dxs[0], dy[:, 0]
        den = s.kappa / s.tau - cdx[:, 0] + bdy[:, 0]

        # predictor: the affine step is complementary, so the complementarity
        # it reaches is (1 - alpha_aff) times mu's, and sigma its cube
        dxsa, dya, dtaua, dkappaa = direction(0.0, -s.tau * s.kappa, dxs[1], cdx[:, 1],
                                              bdy[:, 1], dy[:, 1])
        # its scaled dual step W dz = dtau W c - G'dy + W r_d
        steps = np.concatenate([dxsa[None], (dtaua * wv[1] - kkt.gty(dya) + wv[2])[None]])
        alpha_aff = step_limit(steps, dtaua, dkappaa, 1.0)
        sigma = (1.0 - alpha_aff) ** 3

        # corrector: d_c = sigma mu e - lambda o lambda - dxsa o dzsa (the Mehrotra
        # term), W r1 = (1 - sigma) W r_d - lambda \ d_c = ... + dl, with dl =
        # lambda + lambda \ (dxsa o dzsa - sigma mu e)
        steps_b = layout.blocks(steps)
        corr = _jprod(steps_b[0], steps_b[1])
        corr.reshape(layout.d, -1, nb)[0] -= sigma * s.mu
        dl = lam.copy()
        layout.blocks(dl)[...] += _jsolve(lam_b, det_lam, corr)
        d_tk = sigma * s.mu - s.tau * s.kappa - dtaua * dkappaa
        rs = 1.0 - sigma
        dxs1_rows, dxs1, dy1 = kkt.solve((rs * wv[2])[None], dl, (-rs[:, None] * s.r_p)[:, None])
        dxs, dy, dtau, dkappa = direction(sigma, d_tk, dxs1[0], np.matvec(dxs1_rows, wc_rows)[:, 0],
                                          np.matvec(dy1, s.b)[:, 0], dy1[:, 0])
        # dz from the linear dual equation, which the step then reduces exactly
        dz = s.v[2] * dtau - np.matvec(s.at, dy).T.take(perm, axis=0) + rs * s.v[3]
        # one W product gives W dxs (the x update's dx) and the scaled dual step
        steps = np.concatenate([dxs[None], dz[None]])
        wsteps = layout.scale(s.wbar, s.eta, steps)
        steps[1] = wsteps[1]

        alpha = step_limit(steps, dtau, dkappa, _FRACTION_TO_BOUNDARY)
        if trace is not None:
            trace({"iter": it, "sigma": float(sigma[0]), "alpha_aff": float(alpha_aff[0]),
                   "alpha": float(alpha[0]), "kkt": path, "factor_s": factor_s})
        small = alpha <= _MIN_STEP
        stalled = small & s.small
        s.small = small
        any_stalled = stalled.any()
        if any_stalled:
            stop(stalled, "step_stall")

        s.v[0] += alpha * wsteps[0]
        s.y += alpha[:, None] * dy
        s.v[1] += alpha * dz
        s.tau, s.kappa = s.tau + alpha * dtau, s.kappa + alpha * dkappa
        if any_stalled:
            s.take(~stalled)
            if not s.ids.size:
                break

    return out


def _dispatch(family: ConicProblem, settings: SolverSettings | None,
              trace: Optional[Callable[[dict], None]] = None,
              staged: Optional[ConicProblem] = None) -> list[ConicSolution]:
    """Solve each program of a family, in order: those that the path test
    passes in one loop, which takes over its QR, and the others that
    _presolve leaves in one loop per shape, their answers lifted.  trace and
    staged, a StageMatrix program that it stands for, serve a family of one."""
    st, t_start = settings or SolverSettings(), time.perf_counter()
    path, normed = ("scaled_qr", family) if staged is None else ("stage_qr", staged)
    norms = [1.0 + _norm(np.atleast_2d(v)) for v in (normed.b, normed.c)]
    ids = np.arange(len(family.c))
    if family.cones.n_free:
        # rows are judged on A, as the rotation that eliminates F rounds
        loop, first = np.zeros(ids.size, dtype=bool), [np.swapaxes(family.A, 1, 2)]
    else:
        loop, first = _scaled_qr_path(family)
    out: list[Optional[ConicSolution]] = [None] * ids.size
    if loop.any():
        part = ConicProblem(family.c[loop], family.A[loop], family.b[loop], family.cones)
        sols = _solve_batch(part, st, trace, [v[loop] for v in first], path,
                            [v[loop] for v in norms] + [np.zeros(loop.sum())])
        for k, sol in zip(ids[loop], sols):
            out[k] = sol
    groups: dict = {}
    for k in ids[~loop]:
        member = ConicProblem(family.c[k], family.A[k], family.b[k], family.cones)
        presolved = _presolve(member, first[0][k], st, [v[k] for v in norms])
        if trace is not None:
            trace({"iter": 0, "presolve": presolved[-1] if len(presolved) == 4 else "reduced"})
        if len(presolved) == 3:
            groups.setdefault(presolved[0].A.shape, []).append((k, member, *presolved))
            continue
        x, y, z, status = presolved
        out[k] = ConicSolution(x, y, z, status, residuals(member, x, y, z), 0,
                               time.perf_counter() - t_start, float(member.c @ x))
    for group in groups.values():
        ks, members, reduced, offsets, lifts = zip(*group)
        stack = ConicProblem(*(np.stack([getattr(r, v) for r in reduced]) for v in "cAb"),
                             reduced[0].cones)
        sols = _solve_batch(stack, st, trace, None, path,
                            [v[list(ks)] for v in norms] + [np.array(offsets)])
        for k, member, sol, offset, lift in zip(ks, members, sols, offsets, lifts):
            # a certificate solves the program with b or c zero
            solution = sol.status not in ("primal_infeasible", "dual_infeasible")
            sol.x, sol.y, sol.z = lift(sol.x, sol.y, sol.z, solution)
            sol.residuals = residuals(member, sol.x, sol.y, sol.z)
            sol.objective += offset * solution
            out[k] = sol
    return out


def solve(problem: ConicProblem, settings: SolverSettings | None = None,
          trace: Optional[Callable[[dict], None]] = None) -> ConicSolution:
    """Solve a conic program; deterministic for identical inputs.

    On status "optimal", (x, y, z) is the scaled primal-dual solution.
    On "primal_infeasible", (y, z) is a Farkas certificate normalized to
    b'y = 1; on "dual_infeasible", x is a ray normalized to c'x = -1.
    A status in BEST_EFFORT returns the last iterate; "numerical_failure"
    means it was no longer finite.  A presolved answer has iteration 0.
    A family raises ValueError; solve it with solve_batch.  trace, if
    given, receives the iteration records as dicts (fields in README.md).
    """
    _single(problem, "solve")
    staged = problem if isinstance(problem.A, StageMatrix) else None
    loop = problem if staged is None else problem.A.presolve(problem)
    loop = ConicProblem(loop.c[None], loop.A[None], loop.b[None], loop.cones)
    sol = _dispatch(loop, settings, trace, staged)[0]
    if staged is not None:
        # a solution's states solve A x = b, a certificate's A x = 0
        solution = sol.status not in ("primal_infeasible", "dual_infeasible")
        lifted = problem.A.lift(sol.x[None], sol.y[None], sol.z[None], problem.b[None] * solution)
        sol.x, sol.y, sol.z = (v[0] for v in lifted)
        sol.residuals = residuals(problem, sol.x, sol.y, sol.z)
    return sol


def solve_batch(problem: ConicProblem,
                settings: SolverSettings | None = None) -> list[ConicSolution]:
    """Solve each program of a family (c, A and b with a program axis).

    Returns, in order, what solve returns for each program alone, except
    that solve_time is the family's wall time until the program stopped.
    The programs of one presolved shape advance together in one loop.
    """
    if problem.A.ndim != 3:
        raise ValueError("solve_batch takes a family: c, A and b with a program axis")
    return _dispatch(problem, settings)
