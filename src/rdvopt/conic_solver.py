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
dependent rows use a dense symmetric quasi-definite factorization of the
statically regularized KKT matrix, with iterative refinement against the
unregularized system.

Free variables sit natively in the KKT system; they are never split
into cone differences.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg import lapack

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
    """Standard-form conic program data.

    var_map is free-form metadata for the builder (e.g. where each
    impulse lives in x); the solver ignores it.
    """

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    cones: ConeSpec
    var_map: Optional[dict] = None

    def __post_init__(self):
        object.__setattr__(self, "c", np.asarray(self.c, dtype=float).reshape(-1))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float).reshape(-1))
        a = np.asarray(self.A, dtype=float)
        if a.ndim != 2:
            raise ValueError("A must be a 2-D matrix")
        object.__setattr__(self, "A", a)
        if self.cones.dim != self.c.size or a.shape[1] != self.c.size:
            raise ValueError(
                f"dimension mismatch: cones dim {self.cones.dim}, "
                f"len(c) {self.c.size}, A columns {a.shape[1]}"
            )
        if a.shape[0] != self.b.size:
            raise ValueError(f"A has {a.shape[0]} rows but b has {self.b.size}")


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


def residuals(problem: ConicProblem, x, y, z) -> Residuals:
    """Relative primal/dual residuals and duality gap of a candidate triple."""
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
# Cone blocks of equal dimension are processed together as (g, d) arrays.


class _ConeLayout:
    def __init__(self, spec: ConeSpec):
        self.n_free = spec.n_free
        self.dims = spec.soc_dims
        starts = np.cumsum([spec.n_free] + list(spec.soc_dims[:-1])) if spec.soc_dims else []
        self.index = {}
        for d in sorted(set(spec.soc_dims)):
            s = np.array([st for st, dd in zip(starts, spec.soc_dims) if dd == d])
            self.index[d] = s[:, None] + np.arange(d)[None, :]

    def gather(self, x: np.ndarray) -> dict:
        return {d: x[idx] for d, idx in self.index.items()}

    def scatter_into(self, x: np.ndarray, blocks: dict):
        for d, idx in self.index.items():
            x[idx] = blocks[d]


def _jdet(u: np.ndarray) -> np.ndarray:
    return u[:, 0] ** 2 - np.sum(u[:, 1:] ** 2, axis=1)


def _jprod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.empty_like(a)
    out[:, 0] = np.sum(a * b, axis=1)
    out[:, 1:] = a[:, :1] * b[:, 1:] + b[:, :1] * a[:, 1:]
    return out


def _jsolve(lam: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Solve lam o w = d for w (inverse of the arrow operator of lam)."""
    det = _jdet(lam)
    out = np.empty_like(d)
    out[:, 0] = (lam[:, 0] * d[:, 0] - np.sum(lam[:, 1:] * d[:, 1:], axis=1)) / det
    out[:, 1:] = (d[:, 1:] - out[:, :1] * lam[:, 1:]) / lam[:, :1]
    return out


def _bmv(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Batched matrix-vector product of (g, d, d) blocks with (g, d) rows."""
    return np.matmul(m, v[:, :, None])[:, :, 0]


def _wbar_blocks(wbar: np.ndarray) -> np.ndarray:
    """Dense (g, d, d) blocks of the unit-determinant NT scaling for wbar."""
    w0 = wbar[:, 0]
    w1 = wbar[:, 1:]
    d = wbar.shape[1]
    out = np.empty((wbar.shape[0], d, d))
    out[:, 0, 0] = w0
    out[:, 0, 1:] = w1
    out[:, 1:, 0] = w1
    out[:, 1:, 1:] = w1[:, :, None] * (w1 / (1.0 + w0)[:, None])[:, None, :]
    di = np.arange(1, d)
    out[:, di, di] += 1.0
    return out


def _nt_scaling(u: np.ndarray, v: np.ndarray):
    """Nesterov-Todd scaling of interior primal/dual cone blocks.

    Returns (W, W^-1) as (g, d, d) blocks with W v = W^-1 u = lambda.
    W = eta * Wbar(wbar), and Wbar^-1 is Wbar of the reflected point
    (wbar_0, -wbar_1).
    """
    du = _jdet(u)
    dv = _jdet(v)
    ubar = u / np.sqrt(du)[:, None]
    vbar = v / np.sqrt(dv)[:, None]
    gamma = np.sqrt(0.5 * (1.0 + np.sum(ubar * vbar, axis=1)))
    wbar = ubar.copy()
    wbar[:, 0] += vbar[:, 0]
    wbar[:, 1:] -= vbar[:, 1:]
    wbar /= (2.0 * gamma)[:, None]
    eta = ((du / dv) ** 0.25)[:, None, None]
    w = eta * _wbar_blocks(wbar)
    wbar[:, 1:] *= -1.0
    return w, _wbar_blocks(wbar) / eta


def _max_step(u: np.ndarray, du: np.ndarray) -> float:
    """Largest alpha with u + alpha*du in the cone, for interior u (may be inf).

    The boundary crossing is the smallest positive root of the quadratic
    det(u + alpha*du) = 0; det(u) > 0 guarantees no root at zero.
    """
    a = _jdet(du)
    bq = 2.0 * (u[:, 0] * du[:, 0] - np.sum(u[:, 1:] * du[:, 1:], axis=1))
    cq = _jdet(u)
    if a.size == 0:
        return math.inf
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
    return float(np.min(out))


# -- main solver ------------------------------------------------------------


class _DenseKKT:
    """Regularized symmetric quasi-definite factorization with refinement.

    Used when free variables sit in the KKT system (the full
    formulation) or equality rows are dependent; handles the indefinite
    block structure and the rank deficiency natively.
    """

    def __init__(self, h: np.ndarray, a: np.ndarray):
        n = h.shape[0]
        p = a.shape[0]
        k = np.zeros((n + p, n + p))
        k[:n, :n] = -h
        k[n:, :n] = a
        k[:n, n:] = a.T
        self.k = k
        kreg = k.copy()
        di = np.arange(n + p)
        kreg[di[:n], di[:n]] -= _STATIC_REG
        kreg[di[n:], di[n:]] += _STATIC_REG
        for attempt in range(3):
            ldu, ipiv, info = lapack.dsytrf(kreg, lower=1)
            if info == 0:
                break
            # singular pivot: strengthen the regularization and retry
            kreg[di[:n], di[:n]] -= _STATIC_REG * 10.0 ** (2 * attempt + 2)
            kreg[di[n:], di[n:]] += _STATIC_REG * 10.0 ** (2 * attempt + 2)
        else:
            raise np.linalg.LinAlgError("KKT factorization failed")
        self._ldu = ldu
        self._ipiv = ipiv

    def _backsolve(self, rhs2: np.ndarray) -> np.ndarray:
        sol, info = lapack.dsytrs(self._ldu, self._ipiv, rhs2, lower=1)
        if info != 0:
            raise np.linalg.LinAlgError("KKT backsolve failed")
        return sol

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs2 = rhs if rhs.ndim == 2 else rhs[:, None]
        sol = self._backsolve(rhs2)
        scale = 1.0 + float(np.max(np.abs(rhs2)))
        best = math.inf
        for _ in range(_REFINEMENT_ROUNDS):
            resid = rhs2 - self.k @ sol
            rnorm = float(np.max(np.abs(resid)))
            if rnorm <= 1e-14 * scale or rnorm >= best:
                break
            best = rnorm
            sol = sol + self._backsolve(resid)
        return sol if rhs.ndim == 2 else sol[:, 0]


class _ScaledQRKKT:
    """KKT solver for cone-only programs with independent equality rows.

    Works in Nesterov-Todd scaled variables: with W the block-diagonal NT
    scaling (H = W^-2) and dx = W dxs, the system -H dx + A'dy = r1,
    A dx = r2 becomes -dxs + G'dy = W r1, G dxs = r2 with G' = W A'.  A
    thin QR G' = QR (n x p) gives u = R^-T r2 + Q'W r1, dy = R^-1 u and
    dxs = Q u - W r1.  Neither W^2 nor W^-2 is formed, so the step keeps
    the accuracy of the scaled problem as the iterates approach the cone
    boundary, and each factorization costs O(n p^2).
    """

    def __init__(self, w: dict, layout: "_ConeLayout", a_blocks: dict, p: int):
        self.w = w
        self.layout = layout
        self.n = n = sum(idx.size for idx in layout.index.values())
        gt = np.empty((n, p))
        for d, idx in layout.index.items():
            gt[idx.reshape(-1)] = np.matmul(w[d], a_blocks[d]).reshape(-1, p)
        self.q, self.r = np.linalg.qr(gt)

    def _triangular(self, rhs: np.ndarray, trans: int) -> np.ndarray:
        sol, info = lapack.dtrtrs(self.r, rhs, trans=trans)
        if info != 0:
            raise np.linalg.LinAlgError("scaled constraint matrix is rank deficient")
        return sol

    def _w_apply(self, v: np.ndarray) -> np.ndarray:
        out = np.empty_like(v)
        for d, idx in self.layout.index.items():
            out[idx] = _bmv(self.w[d], v[idx])
        return out

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        n = self.n
        wr1 = self._w_apply(rhs[:n])
        u = self._triangular(rhs[n:], trans=1) + self.q.T @ wr1
        dy = self._triangular(u, trans=0)
        return np.concatenate([self._w_apply(self.q @ u - wr1), dy])


def solve(
    problem: ConicProblem,
    settings: SolverSettings | None = None,
    trace: Optional[Callable[[dict], None]] = None,
) -> ConicSolution:
    """Solve a conic program; deterministic for identical inputs.

    On status "optimal", (x, y, z) is the scaled primal-dual solution.
    On "primal_infeasible", (y, z) is a Farkas certificate normalized to
    b'y = 1; on "dual_infeasible", x is a ray normalized to c'x = -1.
    """
    st = settings or SolverSettings()
    a_mat, b, c = problem.A, problem.b, problem.c
    n, p = c.size, b.size
    layout = _ConeLayout(problem.cones)
    nf = layout.n_free
    ncones = problem.cones.n_cones
    nu = ncones + 1

    t_start = time.perf_counter()

    x = np.zeros(n)
    z = np.zeros(n)
    for idx in layout.index.values():
        x[idx[:, 0]] = 1.0
        z[idx[:, 0]] = 1.0
    y = np.zeros(p)
    tau, kappa = 1.0, 1.0

    norm_b = np.linalg.norm(b)
    norm_c = np.linalg.norm(c)

    def finish(status, iters, pres, dres, gap, scale=None):
        s = scale if scale is not None else tau
        res = Residuals(primal=float(pres), dual=float(dres), gap=float(gap))
        return ConicSolution(
            x=x / s, y=y / s, z=z / s, status=status, gap=float(gap),
            residuals=res, iterations=iters,
            solve_time=time.perf_counter() - t_start,
            objective=float(c @ x / s),
        )

    def stop(reason, iters, pres, dres, gap):
        """Best-effort exit reported as max_iters; the trace names the cause."""
        if trace is not None:
            trace({"iter": iters, "stop": reason})
        return finish("max_iters", iters, pres, dres, gap)

    # The KKT path follows the structure of the program: cone-only programs
    # with independent equality rows use the scaled thin QR.  Free variables,
    # or dependent rows (W A' is then rank deficient), need the regularized
    # dense factorization.
    scaled_qr = nf == 0 and ncones > 0 and np.linalg.matrix_rank(a_mat) == p
    kkt_path = "scaled_qr" if scaled_qr else "dense"
    if scaled_qr:
        a_blocks = {d: np.ascontiguousarray(a_mat[:, idx].transpose(1, 2, 0))
                    for d, idx in layout.index.items()}

    stalls = 0
    for it in range(st.max_iters + 1):
        ax = a_mat @ x
        aty = a_mat.T @ y
        cx = float(c @ x)
        by = float(b @ y)
        r_p = ax - b * tau
        r_d = -aty - z + c * tau
        r_g = by - cx - kappa

        uu = layout.gather(x)
        vv = layout.gather(z)
        comp = sum(float(np.sum(uu[d] * vv[d])) for d in uu) + tau * kappa
        mu = comp / nu

        # residuals of the scaled point (x, y, z) / tau
        pres = np.linalg.norm(r_p) / (tau * (1.0 + norm_b))
        dres = np.linalg.norm(r_d) / (tau * (1.0 + norm_c))
        gap = abs(cx - by) / (tau + abs(cx))
        if trace is not None:
            trace({"iter": it, "mu": mu, "pres": pres, "dres": dres,
                   "gap": gap, "tau": tau, "kappa": kappa})

        if not all(map(math.isfinite, (pres, dres, gap, mu, tau, kappa))):
            return finish("numerical_failure", it, pres, dres, gap)
        if pres <= st.feas_tol and dres <= st.feas_tol and gap <= st.gap_tol:
            return finish("optimal", it, pres, dres, gap)

        if by > 0.0:
            if np.linalg.norm(aty + z) / by <= st.feas_tol * (1.0 + norm_c):
                return finish("primal_infeasible", it, pres, dres, gap, scale=by)
        if cx < 0.0:
            if np.linalg.norm(ax) / (-cx) <= st.feas_tol * (1.0 + norm_b):
                return finish("dual_infeasible", it, pres, dres, gap, scale=-cx)

        if it == st.max_iters:
            return finish("max_iters", it, pres, dres, gap)

        w = {}
        winv = {}
        lam = {}
        for d in uu:
            if np.any(_jdet(uu[d]) <= 0.0) or np.any(_jdet(vv[d]) <= 0.0):
                # iterate pinned to the cone boundary at rounding level:
                # no further centering is possible, return best effort
                return stop("cone_boundary", it, pres, dres, gap)
            w[d], winv[d] = _nt_scaling(uu[d], vv[d])
            lam[d] = _bmv(w[d], vv[d])

        try:
            if scaled_qr:
                kkt = _ScaledQRKKT(w, layout, a_blocks, p)
            else:
                h = np.zeros((n, n))
                for d, idx in layout.index.items():
                    h[idx[:, :, None], idx[:, None, :]] = np.matmul(winv[d], winv[d])
                kkt = _DenseKKT(h, a_mat)
            sol2 = kkt.solve(np.concatenate([c, b]))
        except np.linalg.LinAlgError:
            # factorization breakdown with finite iterates: let the caller
            # see the best effort rather than a hard failure
            return stop("kkt_breakdown", it, pres, dres, gap)
        dx2, dy2 = sol2[:n], sol2[n:]
        den = kappa / tau - float(c @ dx2) + float(b @ dy2)

        def direction(gamma, d_c, d_tk):
            """Newton direction targeting residual reduction factor (gamma - 1)."""
            gvec = np.zeros(n)
            layout.scatter_into(gvec, {d: _bmv(winv[d], _jsolve(lam[d], d_c[d])) for d in d_c})
            rd_hat = (1.0 - gamma) * r_d - gvec
            rp_hat = (gamma - 1.0) * r_p
            sol1 = kkt.solve(np.concatenate([rd_hat, rp_hat]))
            dx1, dy1 = sol1[:n], sol1[n:]
            num = (gamma - 1.0) * r_g + d_tk / tau + float(c @ dx1) - float(b @ dy1)
            dtau = num / den
            dx = dx1 + dtau * dx2
            dy = dy1 + dtau * dy2
            # dz from the linear dual equation, which the step then reduces
            # exactly; W^-1(lambda \ d_c) - H dx would carry the KKT solve's
            # rounding into z
            dz = c * dtau - a_mat.T @ dy + (1.0 - gamma) * r_d
            dkappa = (d_tk - kappa * dtau) / tau
            return dx, dy, dtau, layout.gather(dx), layout.gather(dz), dkappa

        def step_limit(du_b, dv_b, dtau, dkappa):
            amax = math.inf
            for d in du_b:
                amax = min(amax, _max_step(uu[d], du_b[d]), _max_step(vv[d], dv_b[d]))
            if dtau < 0.0:
                amax = min(amax, -tau / dtau)
            if dkappa < 0.0:
                amax = min(amax, -kappa / dkappa)
            return amax

        # predictor (affine direction, sigma = 0)
        d_c_aff = {d: -_jprod(lam[d], lam[d]) for d in uu}
        _, _, dtaua, dua, dva, dkappaa = direction(0.0, d_c_aff, -tau * kappa)
        alpha_aff = min(1.0, step_limit(dua, dva, dtaua, dkappaa))

        comp_aff = sum(
            float(np.sum((uu[d] + alpha_aff * dua[d]) * (vv[d] + alpha_aff * dva[d])))
            for d in uu
        ) + (tau + alpha_aff * dtaua) * (kappa + alpha_aff * dkappaa)
        sigma = min(1.0, max(0.0, (max(comp_aff, 0.0) / comp) ** 3))

        # corrector (combined direction with Mehrotra second-order term)
        d_c = {}
        for d in uu:
            corr = _jprod(_bmv(winv[d], dua[d]), _bmv(w[d], dva[d]))
            target = -_jprod(lam[d], lam[d]) - corr
            target[:, 0] += sigma * mu
            d_c[d] = target
        d_tk = sigma * mu - tau * kappa - dtaua * dkappaa
        dx, dy, dtau, du_b, dv_b, dkappa = direction(sigma, d_c, d_tk)

        alpha = min(1.0, _FRACTION_TO_BOUNDARY * step_limit(du_b, dv_b, dtau, dkappa))
        if trace is not None:
            trace({"iter": it, "sigma": sigma, "alpha_aff": alpha_aff, "alpha": alpha,
                   "kkt": kkt_path})
        if alpha <= _MIN_STEP:
            stalls += 1
            if stalls >= 2:
                return stop("step_stall", it, pres, dres, gap)
        else:
            stalls = 0

        x += alpha * dx
        y += alpha * dy
        for d, idx in layout.index.items():
            z[idx] += alpha * dv_b[d]
        tau += alpha * dtau
        kappa += alpha * dkappa

    # not reached: loop returns at it == max_iters
    raise AssertionError("unreachable")
