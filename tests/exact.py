"""Exact rational reference values of one policy's chain, for the tests.

The float rates of chain._state_rates are taken as exact rationals
(fractions.Fraction), so what these values differ from is solver error
alone, not the rounding of the rates. Everything follows from the product
form and the cut identity

    lambda * pi_K * Delta_K = sum_{i<=K} pi_i (eta - f_i),

with Delta_K = g_{K+1} - g_K and f = R*a - b, a the completion rates and b
the cost rates of the states. The potentials are anchored as solve_poisson
anchors them by default: g_0 = 1 and g_{K+1} = g_K + Delta_K.
"""

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


def exact_eta(params, d) -> Fraction:
    """eta alone, equal to exact(params, d).eta, for enumerating a space."""
    death, cost = (list(map(Fraction, rates)) for rates in _state_rates(params, d))
    lam, price = Fraction(params.lambda_), Fraction(params.price)
    weights = [Fraction(1)]
    for rate in death[1:]:
        weights.append(weights[-1] * lam / rate)
    return (sum(w * (price * rate - c) for w, rate, c in zip(weights, death, cost))
            / sum(weights))
