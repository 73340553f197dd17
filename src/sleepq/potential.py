"""Performance potentials: the policy Poisson equation and its solvers.

The potential vector g solves B g = eta*e - f. Because B is singular with
rank n + m, the first row and column are dropped: with script-B the reduced
matrix, h the reduced f - eta*e, and g(0,0) anchored to a free constant,

    phi = (-scriptB)^{-1} h + anchor * mu1 (-scriptB)^{-1} e_1.

Three independent routes produce the two inverse applications: a dense
linear solve (oracle), a UL-type factorization of the reduced matrix into
scalar U/R/G measures with a product-form inverse, and the fully expanded
scalar sums that the factorization yields state by state. All three must
agree to solver tolerance.

Because (-scriptB) e = mu1 e_1, the vector mu1 (-scriptB)^{-1} e_1 is
exactly the all-ones vector: changing the anchor shifts every potential by
the same constant, so potential differences are anchor-free. The
"fundamental" normalization instead picks the anchor that makes pi . g =
eta.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace as dc_replace

import numpy as np

from .chain import ChainSolution, Generator, build_generator, stationary_closed_form
from .errors import ConsistencyError, NumericalError
from .model import ModelParams, Policy
from .reward import average_profit, build_reward

#: Warn when the spread of the U measures makes products untrustworthy.
CONDITION_SPAN_LIMIT = 1e12

SOLVE_METHODS = ("rg", "dense", "explicit")


@dataclass(frozen=True)
class RGFactors:
    """Scalar U, R, G measures of the UL factorization of the reduced matrix.

    u[k] < 0 is the k-th diagonal factor, r[k] > 0 couples level k to k+1,
    and g[k] > 0 couples level k+1 to k (indices 0-based over the n+m
    reduced states). Reassembling (I - R_U) U_D (I - G_L) recovers the
    reduced matrix.
    """

    u: np.ndarray
    r: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        self.u.setflags(write=False)
        self.r.setflags(write=False)
        self.g.setflags(write=False)


@dataclass(frozen=True)
class PotentialSolution:
    """A solved potential vector with its provenance.

    g covers the full state space (entry 0 is the anchor state). phi_h and
    e1_term retain the two inverse applications so the anchor can be moved
    without re-solving. residual is the max-norm defect of B g = eta*e - f.
    """

    g: np.ndarray
    eta: float
    normalization: str
    anchor: float
    residual: float
    method: str
    phi_h: np.ndarray
    e1_term: np.ndarray
    factors: RGFactors | None = None

    def __post_init__(self):
        self.g.setflags(write=False)
        self.phi_h.setflags(write=False)
        self.e1_term.setflags(write=False)


def reduced_matrix(gen: Generator) -> np.ndarray:
    return gen.matrix[1:, 1:].copy()


def poisson_residual(gen: Generator, g: np.ndarray, eta: float,
                     f: np.ndarray) -> float:
    """Max-norm of B g - (eta*e - f)."""
    return float(np.max(np.abs(gen.matrix @ g - (eta - f))))


def rg_factorize(gen: Generator) -> RGFactors:
    """UL-type factorization of the reduced matrix by backward recursion.

    With diag/sub/super the three bands of the reduced matrix, the last U
    equals the last diagonal entry and

        U_k = diag_k + super_k * (-U_{k+1})^{-1} * sub_{k+1},
        R_k = super_k * (-U_{k+1})^{-1},
        G_k = (-U_k)^{-1} * sub_k,

    where sub_1 is the death rate mu1 back into the dropped state. Every U
    must come out strictly negative; anything else means the generator is
    malformed.
    """
    reduced = gen.matrix[1:, 1:]
    k = reduced.shape[0]
    diag = np.diagonal(reduced).copy()
    sup = np.diagonal(reduced, offset=1).copy()
    # Death rate of each reduced state; entry 0 exits toward the anchor.
    sub = np.empty(k)
    sub[0] = gen.matrix[1, 0]
    sub[1:] = np.diagonal(reduced, offset=-1)

    u = np.empty(k)
    u[k - 1] = diag[k - 1]
    for i in range(k - 2, -1, -1):
        if u[i + 1] >= 0:
            raise NumericalError(f"factorization failed: U_{i + 2} >= 0")
        u[i] = diag[i] + sup[i] * sub[i + 1] / (-u[i + 1])
    if np.any(u >= 0):
        raise NumericalError("factorization failed: nonnegative U measure")

    r = sup / (-u[1:])
    g = sub / (-u)

    span = np.max(np.abs(u)) / np.min(np.abs(u))
    if span > CONDITION_SPAN_LIMIT:
        warnings.warn(
            f"U measures span {span:.2e}; factorization products may lose "
            "precision",
            RuntimeWarning,
            stacklevel=2,
        )
    return RGFactors(u, r, g)


def invert_reduced(factors: RGFactors) -> np.ndarray:
    """Dense inverse of (-reduced matrix) from the factor products.

    (I - R_U)^{-1} is upper triangular with running R products, (I - G_L)^{-1}
    lower triangular with running G products, and the inverse is their
    product around the diagonal 1/(-U). Entrywise positive.
    """
    k = factors.u.shape[0]
    upper = np.zeros((k, k))
    lower = np.zeros((k, k))
    for i in range(k):
        upper[i, i] = 1.0
        lower[i, i] = 1.0
        prod_r = 1.0
        for c in range(i + 1, k):
            prod_r *= factors.r[c - 1]
            upper[i, c] = prod_r
        prod_g = 1.0
        for c in range(i - 1, -1, -1):
            prod_g *= factors.g[c + 1]
            lower[i, c] = prod_g
    return lower @ np.diag(1.0 / (-factors.u)) @ upper


def _refine(neg_b, apply_inverse, x, rhs, iters=2):
    """Iterative refinement of neg_b @ x = rhs in place.

    The residual is evaluated in extended precision so corrections are not
    limited by cancellation in the residual itself; the correction reuses
    whatever inverse application produced x.
    """
    neg_b_ld = neg_b.astype(np.longdouble)
    rhs_ld = rhs.astype(np.longdouble)
    best = x
    best_res = float(np.max(np.abs(rhs_ld - neg_b_ld @ best.astype(np.longdouble))))
    for _ in range(iters):
        r = np.asarray(rhs_ld - neg_b_ld @ best.astype(np.longdouble),
                       dtype=float)
        candidate = best + apply_inverse(r)
        res = float(np.max(np.abs(
            rhs_ld - neg_b_ld @ candidate.astype(np.longdouble))))
        if res >= best_res:
            break
        best, best_res = candidate, res
    return best


def _solve_dense(gen, h):
    b_reduced = gen.matrix[1:, 1:]
    neg_b = -b_reduced
    mu1 = gen.matrix[1, 0]
    rhs = np.zeros((h.shape[0], 2))
    rhs[:, 0] = h
    rhs[0, 1] = mu1
    try:
        solved = np.linalg.solve(neg_b, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"reduced system is singular: {exc}") from exc

    def apply_inverse(r):
        return np.linalg.solve(neg_b, r)

    phi_h = _refine(neg_b, apply_inverse, solved[:, 0], rhs[:, 0])
    e1_term = _refine(neg_b, apply_inverse, solved[:, 1], rhs[:, 1])
    return phi_h, e1_term, None


def _solve_rg(gen, h):
    factors = rg_factorize(gen)
    inv = invert_reduced(factors)
    neg_b = -gen.matrix[1:, 1:]
    mu1 = gen.matrix[1, 0]
    e1 = np.zeros(h.shape[0])
    e1[0] = mu1

    def apply_inverse(r):
        return inv @ r

    phi_h = _refine(neg_b, apply_inverse, inv @ h, h)
    e1_term = _refine(neg_b, apply_inverse, mu1 * inv[:, 0], e1)
    return phi_h, e1_term, factors


def _solve_explicit(gen, h):
    """State-by-state expansion of the factorized inverse.

    For each reduced state the inner bracket accumulates h weighted by the
    running R products toward higher states; the outer sum carries those
    brackets down with running G products. The e1 term is the vector of
    partial G products. This is the fully spelled-out form of what
    invert_reduced does in matrix shape, kept as an independent route.
    """
    factors = rg_factorize(gen)
    u, r, g = factors.u, factors.r, factors.g
    k = u.shape[0]

    bracket = np.empty(k)
    for i in range(k):
        acc = h[i]
        prod_r = 1.0
        for t in range(i + 1, k):
            prod_r *= r[t - 1]
            acc += prod_r * h[t]
        bracket[i] = acc / (-u[i])

    phi_h = np.empty(k)
    for i in range(k):
        acc = bracket[i]
        prod_g = 1.0
        for t in range(i - 1, -1, -1):
            prod_g *= g[t + 1]
            acc += prod_g * bracket[t]
        phi_h[i] = acc

    e1_term = np.cumprod(g)
    return phi_h, e1_term, factors


_SOLVERS = {"dense": _solve_dense, "rg": _solve_rg, "explicit": _solve_explicit}


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
    relative; the Poisson equation is only consistent for the true eta.
    normalization "anchored" fixes g(0,0) = anchor; "fundamental" picks the
    anchor with pi . g = eta. method selects the solver route ("rg",
    "dense", or "explicit").
    """
    if method not in _SOLVERS:
        raise ValueError(f"unknown method {method!r}")
    if normalization not in ("anchored", "fundamental"):
        raise ValueError(f"unknown normalization {normalization!r}")

    gen = build_generator(params, d)
    pi = stationary_closed_form(params, d)
    f = build_reward(params, d)
    eta_computed = average_profit(pi, f)
    if eta is not None:
        if abs(eta - eta_computed) > 1e-12 * max(1.0, abs(eta_computed)):
            raise ConsistencyError(
                f"supplied eta={eta!r} disagrees with recomputed "
                f"eta={eta_computed!r}"
            )
    eta = eta_computed

    h = f[1:] - eta
    phi_h, e1_term, factors = _SOLVERS[method](gen, h)

    solution = _assemble(gen, f, eta, anchor, "anchored", method,
                         phi_h, e1_term, factors)
    if normalization == "fundamental":
        solution = normalize_fundamental(solution, pi)
    return solution


def _assemble(gen, f, eta, anchor, normalization, method,
              phi_h, e1_term, factors):
    g = np.empty(gen.matrix.shape[0])
    g[0] = anchor
    g[1:] = phi_h + anchor * e1_term
    residual = poisson_residual(gen, g, eta, f)
    scale = max(1.0, abs(eta), float(np.max(np.abs(f))))
    if residual > 1e-9 * scale:
        raise NumericalError(
            f"Poisson residual {residual:.3e} exceeds tolerance"
        )
    return PotentialSolution(
        g=g, eta=eta, normalization=normalization, anchor=anchor,
        residual=residual, method=method, phi_h=phi_h, e1_term=e1_term,
        factors=factors,
    )


def reanchor(solution: PotentialSolution, anchor: float) -> PotentialSolution:
    """Move the anchor without re-solving; differences of g are unchanged."""
    g = np.empty_like(solution.g)
    g[0] = anchor
    g[1:] = solution.phi_h + anchor * solution.e1_term
    return dc_replace(solution, g=g, anchor=anchor, normalization="anchored")


def normalize_fundamental(solution: PotentialSolution,
                          pi: ChainSolution) -> PotentialSolution:
    """Re-anchor so that pi . g = eta.

    The anchor is (eta - varpi . phi_h) / (pi(0,0) + varpi . e1_term) with
    varpi the stationary probabilities of the reduced states; since the
    e1 term is the all-ones vector the denominator is exactly 1, so this
    always exists. Idempotent.
    """
    varpi = pi.pi[1:]
    numerator = solution.eta - float(varpi @ solution.phi_h)
    denominator = float(pi.pi[0] + varpi @ solution.e1_term)
    anchor = numerator / denominator
    out = reanchor(solution, anchor)
    return dc_replace(out, normalization="fundamental")


def potential_for_price(params: ModelParams, d: Policy, price: float,
                        method: str = "rg", anchor: float = 1.0) -> PotentialSolution:
    """Solve the Poisson equation with the service price overridden."""
    return solve_poisson(dc_replace(params, price=price), d,
                         anchor=anchor, method=method)
