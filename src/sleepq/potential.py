"""Performance potentials: the policy Poisson equation and its solvers.

The potential vector g solves B g = eta*e - f. Because B is singular with
rank n + m, the first row and column are dropped: with script-B the reduced
matrix, h the reduced f - eta*e, and g(0,0) anchored to a free constant,

    phi = (-scriptB)^{-1} h + anchor * mu1 (-scriptB)^{-1} e_1.

The rows of the generator sum to zero, so (-scriptB) e = mu1 e_1 and the
anchor term is exactly the all-ones vector: potentials are fixed only up to
an additive constant, and phi = phi_h + anchor with phi_h = (-scriptB)^{-1} h.
One right-hand side is solved per call.

Three independent routes produce that inverse application: the dense
inverse of the reduced matrix, formed once and applied by matmul (oracle);
a UL-type factorization of the reduced matrix into scalar U/R/G measures,
applied in O(n+m) by one backward R sweep, a division by -U and a running
sum; and the explicit form, which builds the running R products as one
dense triangle, applies it by a matvec and sums the result down. On this
birth-death chain the factorization is closed form: by induction from the
top state U_k = -nu_k (the death rate of reduced state k),
R_k = lambda / nu_{k+1} and G_k = 1 (see rg_factorize). With G = 1 the
unit lower factor (I - G_L)^{-1} is a cumulative sum, so no route forms
it as a matrix. A route only factorizes a policy record: it returns its
inverse application, which the record keeps, so a route factorizes each
record once. The rg and explicit routes share the record's RG factors
(_rg_factors). solve_poisson owns the rest,
once for every route: the generator's bands, pi, f and eta of the policy
record (one scalar pass of the closed form, shared through the chain
module's memo with the other per-policy calls); the tail's operands, kept
on the record too (_poisson_tail: h, h in extended precision, the negated
reduced bands in extended precision and the gate's scale, built by the
policy's first solve and shared by every route and every later call);
and, on every call, the starting solve, its extended-precision refinement
and the residual gate. The refinement and the gate multiply by the
generator through the one tridiagonal product, _band_product, so the rg
route is O(n+m) in time and memory; only the dense and explicit routes
form k x k arrays, the inverse and the one triangle, each kept on its
record. All three routes must
agree to solver tolerance.
Potential differences are anchor-free; the "fundamental" normalization
picks the anchor that makes pi . g = eta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace as dc_replace

import numpy as np

from .chain import (ChainSolution, Generator, PolicyRecord, _generator,
                    _policy_record, _require_finite, _stationary)
from .errors import ConsistencyError, NumericalError
from .model import ModelParams, Policy, ReadOnlyRecord
from .reward import _eta, _reward


@dataclass(frozen=True)
class RGFactors(ReadOnlyRecord):
    """Scalar U and R measures of the UL factorization of the reduced matrix.

    u[k] = -nu_k < 0 is the k-th diagonal factor, minus the death rate of
    reduced state k, and r[k] = lambda / nu_{k+1} > 0 couples level k to
    k+1 (indices 0-based over the n+m reduced states). The G measures that
    couple level k+1 to k are all exactly 1, so no field holds them.
    Reassembling (I - R_U) U_D (I - G_L) with G_L the unit subdiagonal
    recovers the reduced matrix.
    """

    u: np.ndarray
    r: np.ndarray


@dataclass(frozen=True)
class PotentialSolution(ReadOnlyRecord):
    """A solved potential vector with its provenance.

    g covers the full state space (entry 0 is the anchor state), and
    g[1:] = phi_h + anchor. phi_h, the refined (-scriptB)^{-1} h, is kept so
    the anchor can be moved without re-solving. residual is the max-norm
    defect of B g = eta*e - f at g(0,0) = 0, that is of g = (0, phi_h): the
    anchor term is in the null space of B, so every anchor has this one
    residual, and reanchor keeps it.
    """

    g: np.ndarray
    eta: float
    normalization: str
    anchor: float
    residual: float
    method: str
    phi_h: np.ndarray


def reduced_matrix(gen: Generator) -> np.ndarray:
    return gen.matrix[1:, 1:].copy()


def poisson_residual(gen: Generator, g: np.ndarray, eta: float,
                     f: np.ndarray) -> float:
    """Max-norm of B g - (eta*e - f)."""
    return float(np.abs(_band_product(gen.sub, gen.diag, gen.sup, g)
                        - (eta - f)).max())


def rg_factorize(gen: Generator) -> RGFactors:
    """UL-type factorization of the reduced matrix, read off its bands.

    The U, R, G measures of the reduced matrix satisfy the backward
    recursion

        U_k = diag_k + super_k * (-U_{k+1})^{-1} * sub_{k+1},
        R_k = super_k * (-U_{k+1})^{-1},
        G_k = (-U_k)^{-1} * sub_k,

    from U_last = diag_last, where sub_k = nu_k is the death rate of state
    k (sub_0 = mu1 leads into the dropped state). Every row of the generator
    sums to zero, so diag_k = -(lambda + nu_k) below the top state and
    -nu_last at it. Hence U_last = -nu_last, and if U_{k+1} = -nu_{k+1} then
    U_k = -(lambda + nu_k) + lambda = -nu_k: by induction U = -nu,
    R_k = lambda / nu_{k+1} and G = 1. A death rate that is not strictly
    positive means the generator is malformed.
    """
    death = gen.sub
    if not (death > 0).all():
        raise NumericalError("factorization failed: nonpositive death rate")
    return RGFactors(-death, gen.sup[1:] / death[1:])


def _triangles(factors: RGFactors) -> np.ndarray:
    """(I - R_U)^{-1} as a dense upper triangle, built in one float array.

    Entry (i, c) is r_i r_{i+1} ... r_{c-1}: one in-place cumprod along the
    rows of the tiled factor row [1, r_0, ...], with the entries outside
    each running product set to 1, so every product is formed in the same
    order as a loop that extends it one factor at a time. The strict lower
    part is then zeroed. G = 1, so (I - G_L)^{-1} is the unit lower
    triangle, which its users apply as a cumulative sum instead.
    """
    k = factors.u.shape[0]
    upper = np.tile(np.concatenate(([1.0], factors.r)), (k, 1))
    idx = np.arange(k)
    # Column c carries the factor that extends a running product to c.
    outside = idx[None, :] <= idx[:, None]
    upper[outside] = 1.0
    np.cumprod(upper, axis=1, out=upper)
    np.fill_diagonal(outside, False)
    upper[outside] = 0.0
    return upper


def invert_reduced(factors: RGFactors) -> np.ndarray:
    """Dense inverse of (-reduced matrix) from the factor products.

    The inverse is (I - G_L)^{-1} (-U_D)^{-1} (I - R_U)^{-1}: the upper
    triangle of running R products, its rows divided by -U = nu, summed
    down the rows by the unit lower triangle, that is, a cumulative sum
    along axis 0. Entrywise positive.
    """
    upper = _triangles(factors)
    upper /= (-factors.u)[:, None]
    return np.cumsum(upper, axis=0, out=upper)


def _band_product(sub, diag, sup, x):
    """Tridiagonal matrix times x, each row summed in sub, diag, super order."""
    y = diag * x
    y[1:] = sub * x[:-1] + y[1:]
    y[:-1] += sup * x[1:]
    return y


def _refine(bands, apply_inverse, x, rhs_ld):
    """Iterative refinement of neg_b @ x = rhs, given neg_b by its bands
    and rhs as rhs_ld, both in extended precision.

    The residual is evaluated in extended precision so corrections are not
    limited by cancellation in the residual itself; the correction reuses
    whatever inverse application produced x. At most two corrections are
    made, and one that does not lower the residual ends the refinement.
    """

    def residual(v):
        return rhs_ld - _band_product(*bands, v.astype(np.longdouble))

    best = x
    best_r = residual(best)
    best_res = float(np.abs(best_r).max())
    for _ in range(2):
        candidate = best + apply_inverse(best_r.astype(float))
        r = residual(candidate)
        res = float(np.abs(r).max())
        if res >= best_res:
            break
        best, best_r, best_res = candidate, r, res
    return best


def _rg_factors(record: PolicyRecord) -> RGFactors:
    """rg_factorize of a policy record's generator, shared by the rg and
    explicit routes and by every later solve of the record."""
    return rg_factorize(record.value(_generator))


def _solve_dense(record):
    """The inverse of the reduced matrix, formed once, applied by matmul."""
    try:
        inverse = np.linalg.inv(-record.value(_generator).matrix[1:, 1:])
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"reduced system is singular: {exc}") from exc

    def apply_inverse(rhs):
        return inverse @ rhs

    return apply_inverse


def _solve_rg(record):
    """Apply the factors by a scalar sweep and a running sum; no inverse is
    formed.

    (-scriptB)^{-1} = (I - G_L)^{-1} (-U_D)^{-1} (I - R_U)^{-1}, so one
    backward sweep y_i = h_i + r_i y_{i+1}, a division by -u_i = nu_i and,
    because G = 1, a cumulative sum x_i = x_{i-1} + y_i / nu_i apply it in
    O(k).
    """
    factors = record.value(_rg_factors)
    nu, r = -factors.u, factors.r.tolist()
    k = nu.shape[0]

    def apply_inverse(rhs):
        y = rhs.tolist()
        for i in range(k - 2, -1, -1):
            y[i] += r[i] * y[i + 1]
        return np.cumsum(np.array(y) / nu)

    return apply_inverse


def _solve_explicit(record):
    """The factorized inverse with its running products spelled out.

    The dense upper triangle holds the running R products toward higher
    states and weights h into one bracket per state by a matvec; the
    brackets, divided by nu, are summed down by a running sum (G = 1). This
    is the matrix form of the sums the factorization yields state by
    state, kept as an independent route.
    """
    factors = record.value(_rg_factors)
    upper = _triangles(factors)
    nu = -factors.u

    def apply_inverse(rhs):
        return np.cumsum((upper @ rhs) / nu)

    return apply_inverse


def _poisson_tail(record: PolicyRecord) -> tuple:
    """(h, h_ld, bands, scale): what every solve of a policy record shares
    after its route. h = f[1:] - eta;
    h_ld is h in extended precision, the refinement's right-hand side;
    bands are the negated reduced bands in extended precision, the
    refinement's product; scale = max(1, |eta|, max|f|) is the gate's."""
    gen = record.value(_generator)
    f = record.value(_reward)
    eta = record.value(_eta)
    h = f[1:] - eta
    h_ld = h.astype(np.longdouble)
    bands = tuple(-band[1:].astype(np.longdouble)
                  for band in (gen.sub, gen.diag, gen.sup))
    return h, h_ld, bands, max(1.0, abs(eta), float(np.abs(f).max()))


_SOLVERS = {"rg": _solve_rg, "dense": _solve_dense, "explicit": _solve_explicit}
SOLVE_METHODS = tuple(_SOLVERS)


def solve_poisson(
    params: ModelParams,
    d: Policy,
    eta: float | None = None,
    normalization: str = "anchored",
    anchor: float = 1.0,
    method: str = "rg",
) -> PotentialSolution:
    """Solve B g = eta*e - f for the potential vector g.

    eta, if supplied, must match the recomputed average profit to 1e-12
    relative (a NaN or infinite eta never does); the Poisson equation is
    only consistent for the true eta. normalization "anchored" fixes
    g(0,0) = anchor; "fundamental" picks the anchor with pi . g = eta. A
    NaN or infinite anchor raises ValueError. method selects the solver
    route ("rg", "dense", or "explicit"). Potentials that are not finite
    (heavy load) raise NumericalError before the residual gate; a residual
    the gate refuses raises NumericalError naming the span of the death
    rates, the U measures of the factorization.
    """
    if method not in _SOLVERS:
        raise ValueError(f"unknown method {method!r}")
    if normalization not in ("anchored", "fundamental"):
        raise ValueError(f"unknown normalization {normalization!r}")

    record = _policy_record(params, d)
    gen = record.value(_generator)
    pi = record.value(_stationary)
    f = record.value(_reward)
    eta_computed = record.value(_eta)
    if eta is not None:
        # Written so that a NaN eta fails it too.
        if not abs(eta - eta_computed) <= 1e-12 * max(1.0, abs(eta_computed)):
            raise ConsistencyError(
                f"supplied eta={eta!r} disagrees with recomputed "
                f"eta={eta_computed!r}"
            )
    eta = eta_computed

    apply_inverse = record.value(_SOLVERS[method])
    h, h_ld, bands, scale = record.value(_poisson_tail)
    # The routes' running products of lambda/nu can overflow where pi does not.
    with np.errstate(over="ignore", invalid="ignore"):
        phi_h = _refine(bands, apply_inverse, apply_inverse(h), h_ld)
        _require_finite(phi_h, "potentials")
        g = _anchored(phi_h, anchor)
        # B e = 0 holds only in exact arithmetic: the gate reads the
        # potentials with g(0,0) = 0, so an anchor's rounding is not taken
        # for solver error and every anchor gets one residual.
        residual = poisson_residual(gen, _anchored(phi_h, 0.0), eta, f)
    # Written so that a NaN residual fails it too. The death rates are the
    # factorization's U measures: their span says how far products of them
    # can lose precision.
    if not residual <= 1e-9 * scale:
        raise NumericalError(
            f"Poisson residual {residual:.3e} exceeds tolerance; the death "
            f"rates span {gen.sub.max() / gen.sub.min():.2e}"
        )
    solution = PotentialSolution(
        g=g, eta=eta, normalization="anchored", anchor=anchor,
        residual=residual, method=method, phi_h=phi_h,
    )
    if normalization == "fundamental":
        solution = normalize_fundamental(solution, pi)
    return solution


def _anchored(phi_h: np.ndarray, anchor: float) -> np.ndarray:
    """g with g(0,0) = anchor: the all-ones anchor term adds it everywhere.

    A NaN or infinite anchor raises ValueError: it would reach every entry.
    """
    if not math.isfinite(anchor):
        raise ValueError(f"anchor must be finite, got {anchor!r}")
    g = np.empty(phi_h.shape[0] + 1)
    g[0] = anchor
    g[1:] = phi_h + anchor
    return g


def reanchor(solution: PotentialSolution, anchor: float) -> PotentialSolution:
    """Move the anchor without re-solving; bit-equal to solving with it.

    A NaN or infinite anchor raises ValueError, as in solve_poisson.
    """
    return dc_replace(solution, g=_anchored(solution.phi_h, anchor),
                      anchor=anchor, normalization="anchored")


def normalize_fundamental(solution: PotentialSolution,
                          pi: ChainSolution) -> PotentialSolution:
    """Re-anchor so that pi . g = eta.

    pi . g = anchor * (pi . e) + varpi . phi_h with varpi the stationary
    probabilities of the reduced states, and pi . e = 1, so the anchor is
    eta - varpi . phi_h. Idempotent, as re-anchoring keeps phi_h.
    """
    anchor = solution.eta - float(pi.pi[1:] @ solution.phi_h)
    out = reanchor(solution, anchor)
    return dc_replace(out, normalization="fundamental")
