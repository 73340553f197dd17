"""Model inputs, state space, and policies for the two-group server farm.

The system has n always-on servers (Group 1, rate mu1 each) and m servers
that can sleep (Group 2, rate mu2 each). There is no waiting room beyond the
Group-2 positions: states are (i, 0) for i = 0..n and (n, j) for j = 1..m,
and arrivals that find all n + m positions busy are lost. A policy assigns to
each state (n, j) the number of Group-2 servers kept awake there.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, GateError

# Policies are plain tuples of ints, one entry per state (n, 1)..(n, m).
Policy = tuple[int, ...]

POLICY_SPACES = ("full", "reduced", "bang_bang", "threshold")

#: The most policies enumerate_policies yields unless allow_large is set:
#: the full space at m = 8. As 11! < 9^8 < 12! < 2^26, the reduced space is
#: enumerated to m = 10 and bang_bang to m = 25.
SPACE_SIZE_LIMIT = 9 ** 8

_INT_FIELDS = ("n", "m")


@dataclass(frozen=True)
class ModelParams:
    """All rates, counts, power levels, prices, and costs of the model.

    Parameters
    ----------
    lambda_ : float
        Arrival rate (jobs per unit time). The config-file key is `lambda`;
        the trailing underscore only avoids the Python keyword.
    mu1, mu2 : float
        Per-server service rates of Group 1 and Group 2.
    n, m : int
        Server counts of Group 1 and Group 2.
    p1_work, p2_work, p2_sleep : float
        Power draw of a working Group-1 server, a working Group-2 server,
        and a sleeping Group-2 server.
    c_energy : float
        Price per unit of energy (applied to all power draw).
    c_hold_g1, c_hold_g2 : float
        Holding cost rates per job in Group 1 and Group 2.
    c_transfer : float
        Cost per job migrated from Group 2 to a freed Group-1 server.
    c_loss : float
        Opportunity cost per lost arrival.
    price : float
        Revenue per completed job.
    """

    lambda_: float
    mu1: float
    mu2: float
    n: int
    m: int
    p1_work: float
    p2_work: float
    p2_sleep: float
    c_energy: float
    c_hold_g1: float
    c_hold_g2: float
    c_transfer: float
    c_loss: float
    price: float


# Config-file key of each ModelParams field, in canonical order.
_FIELD_OF_KEY = {("lambda" if f.name == "lambda_" else f.name): f.name
                 for f in fields(ModelParams)}
CONFIG_KEYS = tuple(_FIELD_OF_KEY)
_FIELDS = tuple(_FIELD_OF_KEY.values())


@dataclass(frozen=True)
class ValidationReport:
    """Hard-invariant violations (errors) and advisory violations (warnings)."""

    errors: tuple[str, ...]
    warnings: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.errors


class ReadOnlyRecord:
    """Base of the frozen result records: every numpy array a record holds
    is set read-only when it is made, because records are shared (the
    policy memo hands one record's arrays to every layer)."""

    def __post_init__(self):
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)


def validate(params: ModelParams) -> ValidationReport:
    """Check the model invariants without raising.

    Errors reject the model; warnings flag violations of the advisory
    conditions (mu1 >= mu2 and c_hold_g1 <= c_hold_g2) under which moving a
    Group-2 job to a freed Group-1 server is economically sensible. The
    chain and every formula stay well defined without them.
    """
    errors = _model_errors(params, price_sign=True)
    warnings = []
    if not errors:
        if params.mu1 < params.mu2:
            warnings.append("fast condition violated: mu1 < mu2")
        if params.c_hold_g1 > params.c_hold_g2:
            warnings.append("cheap condition violated: c_hold_g1 > c_hold_g2")
    return ValidationReport(tuple(errors), tuple(warnings))


def _model_errors(params: ModelParams, price_sign: bool = False) -> list[str]:
    """The hard errors of validate, the one statement of a valid model.

    The price's sign counts only with price_sign: the profit is affine in
    the price, and a per-policy call at a negative critical price is a
    valid one. Type errors come alone, as the other rules compare numbers.
    """
    errors = []
    for name in _FIELDS:
        value = getattr(params, name)
        if name in _INT_FIELDS:
            if not isinstance(value, int) or isinstance(value, bool):
                errors.append(f"{name} must be an integer")
        elif not isinstance(value, (int, float)) or isinstance(value, bool):
            errors.append(f"{name} must be a number")
        elif value != value or value in (math.inf, -math.inf):
            errors.append(f"{name} must be finite")
    if errors:
        return errors

    if params.lambda_ <= 0:
        errors.append("lambda must be > 0")
    if params.mu1 <= 0:
        errors.append("mu1 must be > 0")
    if params.mu2 <= 0:
        errors.append("mu2 must be > 0")
    if params.n < 1:
        errors.append("n must be >= 1")
    if params.m < 1:
        errors.append("m must be >= 1")
    if params.p2_sleep <= 0:
        errors.append("p2_sleep must be > 0")
    elif params.p2_sleep >= params.p2_work:
        errors.append("p2_sleep must be < p2_work")
    signed = ["c_energy", "c_hold_g1", "c_hold_g2", "c_transfer", "c_loss"]
    if price_sign:
        signed.append("price")
    for name in signed:
        if getattr(params, name) < 0:
            errors.append(f"{name} must be >= 0")
    return errors


def require_valid(params: ModelParams) -> ModelParams:
    """Raise ConfigError if the hard invariants fail; return params."""
    errors = _model_errors(params, price_sign=True)
    if errors:
        raise ConfigError("; ".join(errors))
    return params


@dataclass(frozen=True)
class StateSpace:
    """Ordered state list (0,0), (1,0), ..., (n,0), (n,1), ..., (n,m).

    The index of (i, 0) is i and the index of (n, j) is n + j, so the chain
    is a birth-death process in this ordering.
    """

    n: int
    m: int

    @property
    def size(self) -> int:
        return self.n + self.m + 1

    @property
    def states(self) -> tuple[tuple[int, int], ...]:
        n, m = self.n, self.m
        return tuple((i, 0) for i in range(n + 1)) + tuple(
            (n, j) for j in range(1, m + 1)
        )

    def index(self, i: int, j: int) -> int:
        if j == 0 and 0 <= i <= self.n:
            return i
        if i == self.n and 1 <= j <= self.m:
            return self.n + j
        raise ValueError(f"({i}, {j}) is not a state of this space")


def state_space(params: ModelParams) -> StateSpace:
    return StateSpace(params.n, params.m)


def check_policy(d: Policy, m: int) -> Policy:
    """Validate length and entry range of a policy; return it as an int tuple.

    A tuple of plain ints is returned itself, not a copy.
    """
    plain = type(d) is tuple
    entries = []
    for j, value in enumerate(d, start=1):
        if type(value) is not int:
            if not _is_integer(value):
                raise ValueError(f"policy entry for level {j} must be an integer")
            value = int(value)
            plain = False
        if not 0 <= value <= m:
            raise ValueError(
                f"policy entry {value} for level {j} is outside 0..{m}"
            )
        entries.append(value)
    if len(entries) != m:
        raise ValueError(f"policy must have {m} entries, got {len(entries)}")
    return d if plain else tuple(entries)


def _is_integer(value) -> bool:
    """True for an Integral that is not a bool (numpy integers count)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_count(value, rule: str, most: float = math.inf) -> None:
    """ValueError(rule) unless value is an integer, not a bool, in 1..most."""
    if not _is_integer(value) or not 1 <= value <= most:
        raise ValueError(f"{rule}, got {value!r}")


def threshold_policy(m: int, theta: int) -> Policy:
    """Sleep everything below level theta, match jobs at and above it.

    For theta = 1..m+1: entries 1..theta-1 are 0 and entry j >= theta is j.
    theta = m + 1 keeps every Group-2 server asleep.
    """
    _check_count(theta, f"theta must be an integer in 1..{m + 1}", m + 1)
    return tuple(0 for _ in range(1, theta)) + tuple(range(theta, m + 1))


def _level_values(m: int, space: str) -> list:
    """The values each coordinate of a space takes, ascending.

    full allows {0..m} at every level, reduced {0..j} at level j, and
    bang_bang and threshold {0, j}, each a range or a tuple of ints. An
    unknown space raises ValueError.
    """
    if space == "full":
        return [range(m + 1)] * m
    if space == "reduced":
        return [range(j + 1) for j in range(1, m + 1)]
    if space in ("bang_bang", "threshold"):
        return [(0, j) for j in range(1, m + 1)]
    raise ValueError(f"unknown policy space {space!r}")


#: Each space's size in closed form, the product of the sizes of its
#: _level_values (the threshold family's m + 1 members excepted), with the
#: formula _size_text prints for it.
_SPACE_SIZES = {"full": ("(m+1)^m", lambda m: (m + 1) ** m),
                "reduced": ("(m+1)!", lambda m: math.factorial(m + 1)),
                "bang_bang": ("2^m", lambda m: 2 ** m),
                "threshold": ("m+1", lambda m: m + 1)}


def policy_space_size(m, space="full") -> int:
    """Number of policies in a space, an exact int at any m >= 1, in closed
    form (_SPACE_SIZES): (m+1)^m in full, (m+1)! in reduced, 2^m in
    bang_bang and m + 1 in threshold. An unknown space, or an m that is not
    an integer of at least 1, raises ValueError."""
    if space not in _SPACE_SIZES:
        raise ValueError(f"unknown policy space {space!r}")
    _check_count(m, "m must be >= 1 and an integer")
    return _SPACE_SIZES[space][1](int(m))


def _decimal_digits(n: int) -> int:
    """Number of decimal digits of an int n >= 1, from math.log10(n).

    log10 of an int is within a few ulps of the true value, so it can round
    across a power of ten only when it lies that close to an integer: only
    then is the power formed, to compare n with it.
    """
    log = math.log10(n)
    nearest = round(log)
    if abs(log - nearest) > 2.0 ** -30 * max(log, 1.0):
        return int(log) + 1
    return nearest + (n >= 10 ** nearest)


def _size_text(size: int, space: str) -> str:
    """A space's size, as its caller already holds it, as printed text: the
    exact int up to the 4300 digits Python writes of one, past that the
    space's formula and the digit count, such as "2^m (4301 digits)"."""
    digits = _decimal_digits(size)
    return str(size) if digits <= 4300 else f"{_SPACE_SIZES[space][0]} ({digits} digits)"


def enumerate_policies(m, space="full", allow_large=False):
    """Yield each policy of the requested space exactly once.

    Spaces and their sizes:
      full      - every entry in {0..m}; (m+1)^m policies
      reduced   - entry j limited to {0..j}; (m+1)! policies
      bang_bang - entry j limited to {0, j}; 2^m policies
      threshold - the m+1 threshold policies

    Enumeration is lexicographic (thresholds by rising theta), which callers
    rely on for deterministic tie-breaking. A space of more than
    SPACE_SIZE_LIMIT policies (full past m = 8, reduced past m = 10,
    bang_bang past m = 25) is refused with GateError unless allow_large is
    set; the refusal prints the size by _size_text.
    """
    size = policy_space_size(m, space)
    if size > SPACE_SIZE_LIMIT and not allow_large:
        raise GateError(
            f"{space} policy space has {_size_text(size, space)} members for m={m}; "
            "pass allow_large to enumerate anyway"
        )
    if space == "threshold":
        return (threshold_policy(m, theta) for theta in range(1, m + 2))
    return itertools.product(*_level_values(m, space))


def parse_policy(text: str, m: int) -> Policy:
    """Parse a comma-separated policy of length m, e.g. '0,2,1'."""
    items = [part.strip() for part in text.split(",")]
    try:
        values = tuple(int(part) for part in items)
    except ValueError as exc:
        raise ValueError(f"policy entries must be integers: {text!r}") from exc
    return check_policy(values, m)


def format_policy(d: Policy) -> str:
    return ",".join(str(v) for v in d)


def parse_params(text: str, source: str = "<config>") -> ModelParams:
    """Parse the flat key=value config format.

    One `key=value` per line, keys exactly the ModelParams field names (with
    `lambda` spelled plainly), `#` starts a comment, blank lines ignored.
    Every key is required; duplicates and unknown keys are rejected.
    """
    seen: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"{source}:{lineno}: empty value for {key!r}")
        seen[key] = value

    missing = [key for key in CONFIG_KEYS if key not in seen]
    if missing:
        raise ConfigError(f"{source}: missing keys: {', '.join(missing)}")

    kwargs = {}
    for key, value in seen.items():
        field = _FIELD_OF_KEY[key]
        try:
            kwargs[field] = int(value) if field in _INT_FIELDS else float(value)
        except ValueError as exc:
            rule = "must be an integer" if field in _INT_FIELDS else "is not a number"
            raise ConfigError(
                f"{source}: value for {key!r} {rule}: {value!r}"
            ) from exc
    return ModelParams(**kwargs)


def params_from_file(path) -> ModelParams:
    try:
        with open(path, "r", encoding="utf-8") as fp:
            text = fp.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_params(text, source=str(path))


def params_to_text(params: ModelParams) -> str:
    """Canonical config serialization (round-trips through parse_params)."""
    return "".join(f"{key}={getattr(params, field)!r}\n"
                   for key, field in _FIELD_OF_KEY.items())


def params_digest(params: ModelParams) -> str:
    """Short stable hash of the model, used to label emitted artifacts."""
    # Imported here: hashlib loads OpenSSL, which nothing else needs.
    import hashlib

    return hashlib.sha256(params_to_text(params).encode()).hexdigest()[:16]
