"""Perturbation realization factors, critical prices, difference formulas.

The realization factor G(n,j) = g(n,j-1) - g(n,j) measures the profit
effect of moving one queued job down a level; together with the constant
c = R - (P2W - P2S) C1 / mu2 it carries the whole dependence of the
average profit on single policy coordinates:

    eta' - eta = mu2 * pi'(n,j) * (d'_j - d_j) * [G(n,j) + c],

valid when both coordinate values lie in {0..j} (above j the service rate
saturates while the energy draw keeps rising, and the closed form no
longer matches the general difference equation).

On this birth-death chain the RG-factorization of the Poisson equation
collapses to a scalar recursion. With D_K = g_K - g_{K+1} over the states
K = 0..N (N = n + m) and nu_K the death rate of state K, balance at each
state gives it from either end of the chain: the tail recursion

    D_{N-1} = (eta - f_N) / nu_N,
    D_{K-1} = (lambda * D_K + eta - f_K) / nu_K,

and the head recursion

    D_{-1} = 0,
    D_K = (nu_K * D_{K-1} - (eta - f_K)) / lambda,

and G(n,j) = D_{n+j-1}. They are the two forms of the cut identity
lambda pi_K D_K = -sum_{i<=K} pi_i (eta - f_i) = sum_{i>K} pi_i (eta - f_i),
and each multiplies an error by a ratio of stationary probabilities on its
way, which stays below 1 only while it runs toward the mass. So each cut
K takes the side with less mass: the head recursion while the head mass
sum_{i<=K} pi_i is at most 1/2, the tail recursion above the median.
Under heavy load pi rises over most levels, and the tail recursion alone
would lose a digit per level there. No stationary probability is divided
by, and no Poisson equation is solved. One body (_split_recursion) runs
the recursions on one policy's rates, in Python floats. It forms G's
lines (_lines) and the magnitudes behind their error bounds
(_record_bounds).

f = R*a - b, so G and G + c are affine in the price R, and one function
(_g_plus_c) forms every G + c from a policy's lines at a price. By balance
the cut identity's R-slope of G + c at K = n + j - 1 is the product of
positive terms s_j = pi_N H_K / pi_K, H_K = sum_{i<=K} pi_i, so level j's
root in R, its critical price, is (k - I_j) / s_j with I_j the intercept
of G(n,j)'s line (_record_roots), infinite where the float s_j is 0.

The largest and smallest roots over a policy space are the global prices
R_H and R_L that delimit the all-awake and all-asleep optimal regimes.
With xi the weights, W and B the sums of xi and of xi*b on either side of
the cut K = n + j - 1 and k = (P2W - P2S) C1 / mu2, the cut identity puts
level j's root at

    lambda R = alpha W_> / xi_N + (k lambda xi_K - B_>) / xi_N,
    alpha = (B_<= + k lambda xi_K) / W_<=,

where alpha depends only on the levels below j, and the rest only on
levels j..m, with a positive coefficient of alpha. So in a product space
two per-level DPs give R_H and R_L (_largest_roots), and no policy is
enumerated (critical_prices_global).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .chain import (
    PolicyRecord,
    _cost_scale,
    _generator,
    _policy_record,
    _require_finite,
    _stationary,
    _value_rates,
    _weights,
    stationary_closed_form,
)
from .errors import ConsistencyError, NumericalError
from .model import (
    ModelParams,
    Policy,
    ReadOnlyRecord,
    _check_count,
    _level_values,
    require_valid,
    threshold_policy,
)
from .potential import _band_product, solve_poisson
from .reward import _reward

#: Below this magnitude sign_conservation_check treats a G+c value as degenerate.
DEGENERATE_EPS = 1e-12


@dataclass(frozen=True)
class SensitivityReport(ReadOnlyRecord):
    """Realization factors and critical prices of one policy.

    prf[j-1] = G(n,j); crit_prices[j-1] is the root of G(n,j)+c in R, never
    NaN, and -inf or inf past the double range (_record_roots);
    signs[j-1] = sign(G(n,j)+c) at the instance's own price.
    """

    prf: np.ndarray
    c: float
    crit_prices: np.ndarray
    signs: np.ndarray


@dataclass(frozen=True)
class CriticalPrices:
    """Global critical prices over a policy space.

    r_high = max{0, roots}; r_low = min{roots}. exact is True for the full
    space, whose prices bound every policy's roots, and False for the
    others; the critical-prices command prints it and the benchmark's
    oracle reads it.
    """

    r_high: float
    r_low: float
    search_space: str
    exact: bool


@dataclass(frozen=True)
class SignConservationReport:
    """Both sides of the sign-conservation ratio for one coordinate change.

    ratio = [G^d(n,j)+c] / [G^d'(n,j)+c]; pi_ratio is the stationary
    probability ratio it must equal. degenerate marks near-zero G+c values
    where the ratio is not testable.
    """

    ratio: float
    pi_ratio: float
    rel_error: float
    degenerate: bool
    value_d: float
    value_d_prime: float


def _wake_cost(params: ModelParams) -> float:
    """k = (P2W - P2S) C1 / mu2, so that c = R - k."""
    return (params.p2_work - params.p2_sleep) * params.c_energy / params.mu2


def price_constant(params: ModelParams) -> float:
    """c = R - (P2W - P2S) C1 / mu2."""
    return params.price - _wake_cost(params)


def _split_recursion(params: ModelParams, death: list, first: list, second: list,
                     head_cuts: int) -> tuple[list, list]:
    """The recursions of the module docstring on two lanes of per-state
    terms t_K, one list per lane: D_{K-1} = (lambda D_K + t_K) / nu_K from
    the top state down, and D_K = (nu_K D_{K-1} - t_K) / lambda from state 0
    up. The cuts K < head_cuts take the head side and the others the tail
    side, and each side runs only over its own cuts. The lanes' values at
    the cuts n..N-1 come back as two lists, level j's at j - 1.
    """
    lam, n, top = params.lambda_, params.n, len(death) - 1
    one, two = [None] * (top - n), [None] * (top - n)
    below_one = below_two = 0.0
    for j in range(top, head_cuts, -1):
        rate = death[j]
        below_one = (lam * below_one + first[j]) / rate
        below_two = (lam * below_two + second[j]) / rate
        one[j - 1 - n], two[j - 1 - n] = below_one, below_two
    above_one = above_two = 0.0
    for j in range(head_cuts if head_cuts > n else 0):
        rate = death[j]
        above_one = (rate * above_one - first[j]) / lam
        above_two = (rate * above_two - second[j]) / lam
        if j >= n:
            one[j - n], two[j - n] = above_one, above_two
    return one, two


def _lines(params: ModelParams, death: list, cost: list, means: tuple,
           ) -> tuple[np.ndarray, np.ndarray]:
    """(intercept, slope) of G(n,j) = price * slope + intercept, j = 1..m.

    death and cost are the per-state rates of _state_rates, and means
    their _means. The weights of _means come from _weights, as
    _stationary's do, and are normalized before they weight the rates,
    and every sum runs state by state. _split_recursion then
    runs on the two affine parts of eta - f = R (A - a) + (b - B), where
    A = pi . a and B = pi . b, taking the head side at the cuts whose head
    mass (the running sum of the weights) is at most half the total. A
    normalizer or a line that is not finite (the weights overflow under
    heavy load) raises NumericalError. Each line has shape (m,).
    """
    completion_rate, cost_rate, head_cuts, _ = means
    lines = np.array(_split_recursion(
        params, death, [rate - cost_rate for rate in cost],
        [completion_rate - rate for rate in death], head_cuts))
    _require_finite(lines, "realization factors")
    return lines[0], lines[1]


def _means(params: ModelParams, death: list, cost: list, weights: list) -> tuple:
    """(completion_rate, cost_rate, head_cuts, heads) of _lines: A = pi .
    death and B = pi . cost, summed state by state from the weights of
    chain._weights as Python floats, the number of cuts K that take the
    head side, and the running sums of the weights. The head mass only
    grows with K, so they are the first ones; below cut n no line is kept,
    so the count starts there. A normalizer that is not finite raises
    NumericalError.
    """
    heads = list(itertools.accumulate(weights))
    total = heads[-1]
    _require_finite(total, "realization factors")
    completion_rate = cost_rate = 0.0
    for weight, rate, state_cost in zip(weights, death, cost):
        share = weight / total
        completion_rate = completion_rate + share * rate
        cost_rate = cost_rate + share * state_cost
    half = 0.5 * total
    return (completion_rate, cost_rate,
            params.n + sum(mass <= half for mass in heads[params.n:-1]), heads)


def _record_means(record: PolicyRecord) -> tuple:
    """_means of a policy record, which its lines, bounds and roots share."""
    return _means(record.params, record.death, record.cost, record.value(_weights).tolist())


def _policy_lines(params: ModelParams, d: Policy) -> tuple[np.ndarray, np.ndarray]:
    """(intercept, slope) of G(n,j) for one policy, each of shape (m,):
    _lines on the Python floats of the policy record."""
    return _policy_record(params, d).value(_record_lines)


def _record_lines(record: PolicyRecord) -> tuple[np.ndarray, np.ndarray]:
    """_lines of a policy record."""
    return _lines(record.params, record.death, record.cost, record.value(_record_means))


def _record_roots(record: PolicyRecord) -> np.ndarray:
    """The root of G(n,j) + c in R for j = 1..m: (k - I_j) / s_j of the
    module docstring, s_j = (xi_N / xi_K) H_K with xi_N / xi_K a product of
    lambda / nu from the top state down and H_K from the heads of _means,
    and the infinity of the sign of k - I_j where the float s_j is 0: below
    the double range, or below a cut where the product underflowed. The
    exact root there can still be a double, with costs far below 1
    (ROADMAP item 29).
    """
    params = record.params
    lam, n, wake = params.lambda_, params.n, _wake_cost(params)
    heads = record.value(_record_means)[3]
    total, tail, roots = heads[-1], 1.0, []
    # From the top cut K = N - 1 down to K = n, with nu_{K+1} and H_K.
    for rate, head, intercept in zip(reversed(record.death[n + 1:]), reversed(heads[n:-1]),
                                     reversed(record.value(_record_lines)[0].tolist())):
        tail = tail * lam / rate
        slope, rise = tail * (head / total), wake - intercept
        roots.append(rise / slope if slope else math.copysign(math.inf, rise))
    return np.array(roots[::-1])


def _g_plus_c(params: ModelParams, lines, price: float) -> np.ndarray:
    """G(n,j) + c at a price R from a policy's lines (intercept, slope), one
    entry per level: (R slope + intercept) + (R - k), G at R plus c. Every
    G + c of the package is this value."""
    intercept, slope = lines
    return (price * slope + intercept) + (price - _wake_cost(params))


def _margins(params: ModelParams, d: Policy, price: float,
             skew: float) -> tuple[np.ndarray, np.ndarray]:
    """(value, bound) of policy d at a price R >= 0, one entry per level j.

    value is _g_plus_c of the policy's lines, the G(n,j) + c that
    perturbation_factors signs, and bound[j-1] = e_j bounds its distance
    from the exact G(n,j) + c, and from the exact price of waking level j
    on the model's float rates: the policy record's part (_record_bounds)
    plus skew, the model's part (_skew), which a search forms once.
    """
    record = _policy_record(params, d)
    base, per_price = record.value(_record_bounds)
    return (_g_plus_c(params, record.value(_record_lines), price),
            base + skew + price * per_price)


def _record_bounds(record: PolicyRecord) -> tuple[np.ndarray, np.ndarray]:
    """(base, per_price): e_j = base_j + _skew(params) + R per_price_j for
    prices R >= 0.

    The exact values are those of the float rates of the record taken as
    rationals (tests/exact.py). With u = 2**-53, N = n + m + 1 states and
    gamma_k = k u / (1 - k u) <= 2 k u, the float G + c of _margins is off
    by at most the sum of:
    - The recursions. On the side _lines takes, each line is a sum of the
      terms t_K (cost - B for the intercept, A - nu for the slope) times
      positive products of lambda/nu or nu/lambda, and each term passes at
      most 3N + 3 roundings on its way. So the error is at most
      gamma_{3N+3} times the same recursion on |t_K| (Higham, Accuracy and
      Stability of Numerical Algorithms, 2nd ed., 2002, sections 3.1 and
      5.1, the bound for Horner's rule).
    - The means. The weights (2 roundings a state), their sum, the shares
      and the sums of A and B pass at most 6N + 2 roundings, so |dA| <=
      gamma_{6N+2} A and |dB| <= gamma_{6N+2} pi.|cost| <= gamma_{6N+2}
      max|cost|. The lines are affine in B and A, with the recursion on
      t_K = 1 as coefficient.
    - The last four roundings of _g_plus_c, (R slope + intercept) +
      (R - k), and the three of k = (P2W - P2S) C1 / mu2: gamma_4 (R
      |slope| + |intercept| + R + k) + gamma_3 k, where R |slope| +
      |intercept| + R + k = R (1 + |slope|) + |intercept| + k.
    - Rates that are not affine in d_j. chain._rates forms nu = n mu1 +
      min(d_j, j) mu2 in 2 roundings and the cost in at most 10, each of
      a partial sum of terms whose magnitudes sum to at most C
      (chain._cost_scale). So the float cost of a value v <= j is within
      gamma_10 C of its exact affine form, and that of a value above j
      whose float cost is at most j's is within gamma_10 C of j's: its
      exact cost is at least j's. Between two values of level j of either
      kind with nu_v < nu_w the float rates then give a waking price
      (cost_w - cost_v) / (nu_w - nu_v) within gamma_10 (2 C + 2 k nu_j) /
      (mu2 - gamma_10 2 nu_j) of k, at most its value at the largest nu_j.
      The performance difference formula with that price in place of k is
      exact on the float rates, so a level whose margin clears e_j has the
      same optimal value among 0..j and any one value above j of float
      cost at most j's.
    16 N u covers the first two gammas and 16 u the last two. Twice the sum
    covers the bound's own roundings, so e_j is that: a bound that is not
    finite leaves its level undecided. The last term depends on the model
    alone: _skew gives it, and this the rest. The recursion on the |t_K|
    runs in _split_recursion, on the sides the lines take. Its head side
    subtracts the terms, so there it returns the sums negated, bit for bit,
    as every rounding is symmetric.
    """
    params, death, cost = record.params, record.death, record.cost
    completion_rate, cost_rate, head_cuts, _ = record.value(_record_means)
    spend = max(map(abs, cost))
    deep, shallow = 16 * len(death) * 2.0**-53, 16 * 2.0**-53
    intercept, slope = record.value(_record_lines)
    base, per_price = _split_recursion(
        params, death, [deep * (abs(rate - cost_rate) + spend) for rate in cost],
        [deep * (abs(completion_rate - rate) + completion_rate) for rate in death],
        head_cuts)
    wake = 2 * _wake_cost(params)
    return (np.array([2 * (abs(b) + shallow * (abs(i) + wake))
                      for b, i in zip(base, intercept.tolist())]),
            np.array([2 * (abs(b) + shallow * (1.0 + abs(s)))
                      for b, s in zip(per_price, slope.tolist())]))


def _skew(params: ModelParams) -> float:
    """The part of e_j that depends on the model alone: twice the bound of
    _record_bounds on the distance of the float waking price from k, at
    the largest nu_j, with 16 u for gamma_10 and C = chain._cost_scale."""
    shallow = 16 * 2.0**-53
    nu = params.n * params.mu1 + params.m * params.mu2
    room = params.mu2 - 2 * shallow * nu
    return (4 * shallow * (_cost_scale(params) + _wake_cost(params) * nu) / room
            if room > 0 else math.inf)


def realization_factors(params: ModelParams, d: Policy) -> np.ndarray:
    """G(n,j) = g(n,j-1) - g(n,j) for j = 1..m (anchor-free)."""
    intercept, slope = _policy_lines(params, d)
    return params.price * slope + intercept


def _factor_plus_c(params: ModelParams, d: Policy, j: int) -> np.float64:
    """G(n,j) + c of policy d at the instance's price (_g_plus_c)."""
    return _g_plus_c(params, _policy_lines(params, d), params.price)[j - 1]


def perturbation_factors(params: ModelParams, d: Policy) -> SensitivityReport:
    """Realization factors, critical prices, and signs for one policy."""
    record = _policy_record(params, d)
    lines = record.value(_record_lines)
    intercept, slope = lines
    return SensitivityReport(prf=params.price * slope + intercept,
                             c=price_constant(params), crit_prices=record.value(_record_roots),
                             signs=np.sign(_g_plus_c(params, lines, params.price)))


def _require_finite_root(root: float, j: int) -> float:
    """root, refused with NumericalError unless it is a finite double."""
    if not math.isfinite(root):
        raise NumericalError(f"a critical price of level {j} is not a finite double; "
                             "the running products of nu/lambda overflow")
    return root


def critical_price_state(params: ModelParams, d: Policy, j: int) -> float:
    """The price at which G(n,j) + c crosses zero under policy d.

    G + c is affine in R with a positive R-slope, so the root is
    (k - G|_{R=0}) / s_j with k = (P2W - P2S) C1 / mu2 and s_j the exact
    slope of _record_roots. A root past the double range raises
    NumericalError. A j that is not an integer in 1..m raises ValueError.
    """
    _check_count(j, f"j must be an integer in 1..{params.m}", params.m)
    roots = _policy_record(params, d).value(_record_roots)
    return _require_finite_root(float(roots[j - 1]), j)


def _largest_roots(lam: float, wake: float, base: tuple, pairs: list):
    """The largest root of G(n,j) + c over a product space, yielded for
    j = 1..m in turn, by the module docstring's form; wake = k lambda.

    pairs[j-1] holds level j's values as (r, b) = (nu / lambda, cost), and
    base the (P, Q) of the states (i, 0). As every r > 0:
    - Prefix. P = W_<= / xi_K and Q = B_<= / xi_K run P <- 1 + r P and
      Q <- b + r Q, and alpha = (Q + wake) / P. Its maximum over the levels
      below j comes by Dinkelbach's method (Management Science 13(7),
      1967): at a trial t, V <- max over a level's values of (b - t) + r V
      is exact level by level, and its path's alpha is the next t, until t
      no longer rises. Level j starts from level j - 1's best prefix,
      extended by its best value there.
    - Suffix. lambda root = X at the top state, with X = alpha + wake r - b
      at level j and X <- r X + (alpha - b) above, so the largest X at a
      level extends the largest X below.
    """
    p, q = base
    for j in range(len(pairs)):
        if j:
            _, p, q = max(((b + r * q + wake) / (1.0 + r * p), 1.0 + r * p, b + r * q)
                          for r, b in pairs[j - 1])
            t = (q + wake) / p
            while True:
                new_p, new_q = base
                v = new_q - t * new_p
                for level in pairs[:j]:
                    v, r, b = max(((b - t) + r * v, r, b) for r, b in level)
                    new_p, new_q = 1.0 + r * new_p, b + r * new_q
                alpha = (new_q + wake) / new_p
                if not alpha > t:
                    break
                t, p, q = alpha, new_p, new_q
        alpha = (q + wake) / p
        x = max(alpha + (wake * r - b) for r, b in pairs[j])
        for level in pairs[j + 1:]:
            x = max(r * x + (alpha - b) for r, b in level)
        yield x / lam


def critical_prices_global(params: ModelParams, space: str = "full") -> CriticalPrices:
    """R_H and R_L over a policy space.

    R_H = max{0, roots of G+c over all policies and levels}; R_L is the
    minimum root. params are validated as optimize validates them. The
    threshold space's m + 1 policies are taken one at a time, with the
    roots perturbation_factors reports (_record_roots).

    The product spaces take O(m^2) at any size: R_H from _largest_roots,
    and R_L as minus _largest_roots with every cost and k negated, bit for
    bit, as IEEE rounding is symmetric. A level's values enter only through
    nu and b: over 0..j both are affine in the value, and above j nu is
    constant and the cost rises, so every extreme lies at the level's least
    value, j or its largest, up to the rounding of the rates; only those
    are read. In every space the extremes are formed level by level, so a
    root that is not a finite double (the running products of nu / lambda
    overflow at light load) raises NumericalError at the first one.
    """
    require_valid(params)
    if space == "threshold":
        r_high, r_low = 0.0, math.inf
        for theta in range(1, params.m + 2):
            record = _policy_record(params, threshold_policy(params.m, theta))
            for j, root in enumerate(record.value(_record_roots).tolist(), start=1):
                r_high, r_low = max(r_high, root), min(r_low, _require_finite_root(root, j))
        return CriticalPrices(r_high=r_high, r_low=r_low, search_space=space, exact=False)
    n, lam, wake = params.n, params.lambda_, _wake_cost(params) * params.lambda_
    levels = [sorted({values[0], j, values[-1]})
              for j, values in enumerate(_level_values(params.m, space), start=1)]
    death, cost, start = _value_rates(params, levels)
    pairs = [(rate / lam, c) for rate, c in zip(death, cost)]
    p, q = 1.0, cost[0]
    for r, c in pairs[1:n + 1]:
        p, q = 1.0 + r * p, c + r * q
    pairs = [pairs[n + 1 + a:n + 1 + z] for a, z in zip(start, start[1:])]
    r_high, r_low = 0.0, math.inf
    for j, (top, bottom) in enumerate(zip(
            _largest_roots(lam, wake, (p, q), pairs),
            _largest_roots(lam, -wake, (p, -q),
                           [[(r, -c) for r, c in level] for level in pairs])), start=1):
        _require_finite_root(top, j)
        r_high, r_low = max(r_high, top), min(r_low, -_require_finite_root(bottom, j))
    return CriticalPrices(r_high=r_high, r_low=r_low, search_space=space,
                          exact=(space == "full"))


def performance_difference(params: ModelParams, d: Policy,
                           d_prime: Policy) -> float:
    """eta' - eta via the general difference equation.

    Returns pi'[(B' - B) g + (f' - f)] with g the potential of d; the
    anchor drops out because (B' - B) has zero row sums. g, B, f and pi'
    come from the policy records, one scalar pass per policy.
    """
    record, record_p = _policy_record(params, d), _policy_record(params, d_prime)
    sol = solve_poisson(params, d)
    b, b_prime = record.value(_generator), record_p.value(_generator)
    change = (b_prime.sub - b.sub, b_prime.diag - b.diag, b_prime.sup - b.sup)
    f = record.value(_reward)
    f_prime = record_p.value(_reward)
    pi_prime = record_p.value(_stationary).pi
    return float(pi_prime @ (_band_product(*change, sol.g) + (f_prime - f)))


def _single_change_level(params: ModelParams, d: Policy, d_prime: Policy,
                         j: int | None = None) -> tuple[int, Policy, Policy]:
    """(j, d, d_prime): the 1-based level where the checked int tuples of
    d and d_prime differ (and nowhere else), and those tuples: each policy
    record's own, so the calls that follow find the records unchecked."""
    d = _policy_record(params, d).policy
    d_prime = _policy_record(params, d_prime).policy
    diffs = [i + 1 for i in range(params.m) if d[i] != d_prime[i]]
    if len(diffs) > 1:
        raise ValueError(f"policies differ at levels {diffs}, expected one")
    if j is None:
        if not diffs:
            raise ValueError("policies are identical; no changed level")
        j = diffs[0]
    elif diffs and diffs != [j]:
        raise ValueError(f"policies differ at level {diffs[0]}, not {j}")
    if d[j - 1] > j or d_prime[j - 1] > j:
        raise ValueError(
            f"closed form needs both coordinate values in 0..{j}; "
            f"got {d[j - 1]} and {d_prime[j - 1]} at level {j}"
        )
    return j, d, d_prime


def single_coordinate_difference(params: ModelParams, d: Policy,
                                 d_prime: Policy) -> float:
    """eta' - eta for policies differing in one coordinate.

    Closed form mu2 * pi'(n,j) * (d'_j - d_j) * [G^d(n,j) + c]. Both
    coordinate values must lie in {0..j}.
    """
    j, d, d_prime = _single_change_level(params, d, d_prime)
    value = _factor_plus_c(params, d, j)
    pi_prime = stationary_closed_form(params, d_prime).pi
    return float(params.mu2 * pi_prime[params.n + j]
                 * (d_prime[j - 1] - d[j - 1]) * value)


def sign_conservation_check(params: ModelParams, d: Policy, d_prime: Policy,
                            j: int) -> SignConservationReport:
    """Check [G^d(n,j)+c] / [G^d'(n,j)+c] = pi^d(n,j) / pi^d'(n,j).

    Both sides are computed independently; disagreement beyond 1e-9
    relative raises. Near-zero G+c values make the left side untestable
    and are reported as degenerate instead. A j that is not an integer in
    1..m raises ValueError.
    """
    _check_count(j, f"j must be an integer in 1..{params.m}", params.m)
    _, d, d_prime = _single_change_level(params, d, d_prime, j)
    value_d = float(_factor_plus_c(params, d, j))
    value_dp = float(_factor_plus_c(params, d_prime, j))
    idx = params.n + j
    pi_ratio = float(stationary_closed_form(params, d).pi[idx]
                     / stationary_closed_form(params, d_prime).pi[idx])

    if min(abs(value_d), abs(value_dp)) < DEGENERATE_EPS:
        return SignConservationReport(
            ratio=np.nan, pi_ratio=pi_ratio, rel_error=np.nan,
            degenerate=True, value_d=value_d, value_d_prime=value_dp,
        )
    ratio = value_d / value_dp
    rel_error = abs(ratio - pi_ratio) / max(abs(pi_ratio), 1e-300)
    if rel_error > 1e-9:
        raise ConsistencyError(
            f"sign-conservation ratio {ratio!r} disagrees with stationary "
            f"ratio {pi_ratio!r} (rel error {rel_error:.3e})"
        )
    return SignConservationReport(
        ratio=ratio, pi_ratio=pi_ratio, rel_error=rel_error,
        degenerate=False, value_d=value_d, value_d_prime=value_dp,
    )
