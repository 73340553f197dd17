"""Exact rational reference values of one policy's chain, for the tests.

The float rates of chain._state_rates are taken as exact rationals
(fractions.Fraction), so what these values differ from is solver error
alone, not the rounding of the rates. Everything follows from the product
form and the cut identity

    lambda * pi_K * Delta_K = sum_{i<=K} pi_i (eta - f_i),

with Delta_K = g_{K+1} - g_K and f = R*a - b, a the completion rates and b
the cost rates of the states. f, and with it each G(n,j) + c, is affine in
the price R, so each level's root, the price where G(n,j) + c = 0, follows
from the cut identity at two prices. The potentials are anchored as solve_poisson
anchors them by default: g_0 = 1 and g_{K+1} = g_K + Delta_K.
"""

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from sleepq.chain import _state_rates


@dataclass(frozen=True)
class Exact:
    """pi, eta, Delta_K, the potentials g with g_0 = 1, G(n,j) =
    -Delta_{n+j-1} (j = 1..m), A = pi.a, B = pi.b and
    c = R - (P2W - P2S) C1 / mu2, all as Fractions."""

    pi: list
    eta: Fraction
    delta: list
    g: list
    prf: list
    a: Fraction
    b: Fraction
    c: Fraction


def exact(params, d) -> Exact:
    death, cost = (list(map(Fraction, rates)) for rates in _state_rates(params, d))
    lam, price = Fraction(params.lambda_), Fraction(params.price)
    weights = [Fraction(1)]
    for rate in death[1:]:
        weights.append(weights[-1] * lam / rate)
    total = sum(weights)
    pi = [w / total for w in weights]
    a = sum(p * rate for p, rate in zip(pi, death))
    b = sum(p * rate for p, rate in zip(pi, cost))
    eta = price * a - b
    delta, head = [], Fraction(0)
    for p, rate, state_cost in zip(pi[:-1], death, cost):
        head += p * (eta - (price * rate - state_cost))
        delta.append(head / (lam * p))
    wake_cost = ((Fraction(params.p2_work) - Fraction(params.p2_sleep))
                 * Fraction(params.c_energy) / Fraction(params.mu2))
    g = [Fraction(1)]
    for step in delta:
        g.append(g[-1] + step)
    return Exact(pi=pi, eta=eta, delta=delta, g=g,
                 prf=[-x for x in delta[params.n:]], a=a, b=b, c=price - wake_cost)


def _scaled(params, d) -> tuple:
    """(price, nu, b, scale, weights) of policy d as integers.

    The float rates are dyadic, so with lambda, the price and every rate
    times one power of two, scale, they are integers, and so are the
    weights times the product of the death rates: lam^i prod_{l>i} nu_l at
    state i, each from the last by an exact division, as in
    exact_root_pairs.
    """
    death, cost = _state_rates(params, d)
    ratios = [x.as_integer_ratio() for x in (params.lambda_, params.price, *death, *cost)]
    scale = max(den for _, den in ratios)
    lam, price, *rates = (num * (scale // den) for num, den in ratios)
    nu, b = rates[:len(death)], rates[len(death):]
    weights = [math.prod(nu[1:])]
    for rate in nu[1:]:
        weights.append(weights[-1] * lam // rate)
    return price, nu, b, scale, weights


def exact_weights(params, d) -> list:
    """The stationary weights of policy d times one common integer, as
    integers w_i, so the exact pi_i is w_i / sum(w)."""
    return _scaled(params, d)[-1]


def exact_eta(params, d) -> Fraction:
    """eta alone, equal to exact(params, d).eta, for enumerating a space,
    from the integer rates and weights of _scaled."""
    price, nu, b, scale, weights = _scaled(params, d)
    profit = sum(w * (price * rate - c * scale) for w, rate, c in zip(weights, nu, b))
    return Fraction(profit, sum(weights) * scale * scale)


@functools.lru_cache(maxsize=64)
def _wake_cost(p2_work, p2_sleep, c_energy, mu2) -> tuple:
    """(P2W - P2S) C1 / mu2 as an integer ratio, formed once per model for
    the many policies a test enumerates."""
    return ((Fraction(p2_work) - Fraction(p2_sleep))
            * Fraction(c_energy) / Fraction(mu2)).as_integer_ratio()


def exact_roots(params, d) -> list:
    """The root of G(n,j) + c in the price R for j = 1..m, as Fractions:
    those of exact_root_pairs."""
    return [Fraction(num, den) for num, den in exact_root_pairs(params, d)]


def exact_root_pairs(params, d) -> list:
    """The root of G(n,j) + c in the price R for j = 1..m, as an integer
    pair (numerator, denominator) each, not reduced, the denominator
    positive: the R-slope of G + c is positive.

    With the weights xi, T = sum xi and F(R) = sum xi f(R), the cut
    identity at K = n + j - 1 gives G(n,j) + c = -H(R) / Z + R - k, where
    H(R) = sum_{i<=K} xi_i (F(R) - T f_i(R)), Z = lambda xi_K T and
    k = (P2W - P2S) C1 / mu2. H is affine in R, so the root is
    (H(0) + k Z) / (H(0) - H(1) + Z). The float rates are dyadic, so with
    every rate and lambda times one power of two, and the weights times
    the product of the death rates, all but k are integers, and the
    common scales cancel from the root. The states below (n, 0) have the
    same rates under every policy, so their part of each sum is formed
    once per model and scale (_low_sums), and a policy costs O(m) big-int
    operations.
    """
    death, cost = _state_rates(params, d)
    # Floats are dyadic: scale, the largest denominator, clears them all.
    ratios = [x.as_integer_ratio() for x in (params.lambda_, *death, *cost)]
    scale = max(den for _, den in ratios)
    lam, *rates = (num * (scale // den) for num, den in ratios)
    nu, b = rates[:len(death)], rates[len(death):]
    n = params.n
    # The weight of state i is low_i * above below state n, with low_i of
    # _low_sums, and lam^n u_i from state n on, u_i = lam^(i-n) prod_{l>i}
    # nu_l, each u from the last by an exact division.
    low_mass, *low_profit, lam_n = _low_sums(lam, tuple(nu[:n + 1]), tuple(b[:n + 1]))
    above = math.prod(nu[n + 1:])
    tail = [above]
    for rate in nu[n + 1:]:
        tail.append(tail[-1] * lam // rate)
    weights = [lam_n * u for u in tail]
    total = above * low_mass + sum(weights)
    k, k_den = _wake_cost(params.p2_work, params.p2_sleep, params.c_energy, params.mu2)
    # H(R) = F(R) W_K - T Phi_K(R), with W_K and Phi_K(R) the sums of xi and
    # of xi f(R) over the states i <= K.
    heads = []
    for price, low in zip((0, 1), low_profit):
        terms = [w * (price * rate - c) for w, rate, c in zip(weights, nu[n:], b[n:])]
        profit = above * low + sum(terms)
        mass, head_profit, at_cuts = above * low_mass, above * low, []
        for w, term in zip(weights[:-1], terms):
            mass += w
            head_profit += term
            at_cuts.append(profit * mass - total * head_profit)
        heads.append(at_cuts)
    return [(at0 * k_den + k * z, (at0 - at1 + z) * k_den)
            for z, at0, at1 in zip((lam * w * total for w in weights), *heads)]


@functools.lru_cache(maxsize=64)
def _low_sums(lam, nu, b) -> tuple:
    """(S, Q(0), Q(1), lam^n) of exact_root_pairs' scaled lam and rates nu
    and b of the states 0..n, for the many policies a test enumerates:
    S = sum low_i and Q(R) = sum low_i (R nu_i - b_i) over the states
    i < n, with low_i = lam^i prod_{i<l<=n} nu_l, each from the last by an
    exact division, and low_n = lam^n."""
    low = [math.prod(nu[1:])]
    for rate in nu[1:]:
        low.append(low[-1] * lam // rate)
    return (sum(low[:-1]),
            *(sum(w * (price * rate - c) for w, rate, c in zip(low[:-1], nu, b))
              for price in (0, 1)),
            low[-1])
