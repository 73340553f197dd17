"""Model inputs, state space, and policies for the two-group server farm.

The system has n always-on servers (Group 1, rate mu1 each) and m servers
that can sleep (Group 2, rate mu2 each). There is no waiting room beyond the
Group-2 positions: states are (i, 0) for i = 0..n and (n, j) for j = 1..m,
and arrivals that find all n + m positions busy are lost. A policy assigns to
each state (n, j) the number of Group-2 servers kept awake there.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, GateError

# Policies are plain tuples of ints, one entry per state (n, 1)..(n, m).
Policy = tuple[int, ...]

POLICY_SPACES = ("full", "reduced", "bang_bang", "threshold")

# Above this, (m+1)^m enumeration stops being a desk-scale computation.
FULL_SPACE_MAX_M = 8
# (m+1)! passes 40 million just above this.
REDUCED_SPACE_MAX_M = 10

#: Policies evaluated per vectorized block.
BLOCK_SIZE = 65536

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


@dataclass(frozen=True)
class ValidationReport:
    """Hard-invariant violations (errors) and advisory violations (warnings)."""

    errors: tuple[str, ...]
    warnings: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.errors


def validate(params: ModelParams) -> ValidationReport:
    """Check the model invariants without raising.

    Errors reject the model; warnings flag violations of the advisory
    conditions (mu1 >= mu2 and c_hold_g1 <= c_hold_g2) under which moving a
    Group-2 job to a freed Group-1 server is economically sensible. The
    chain and every formula stay well defined without them.
    """
    errors = []
    warnings = []

    for f in fields(ModelParams):
        value = getattr(params, f.name)
        if f.name in _INT_FIELDS:
            if not isinstance(value, int) or isinstance(value, bool):
                errors.append(f"{f.name} must be an integer")
        elif not isinstance(value, (int, float)) or isinstance(value, bool):
            errors.append(f"{f.name} must be a number")
        elif value != value or value in (float("inf"), float("-inf")):
            errors.append(f"{f.name} must be finite")
    if errors:
        return ValidationReport(tuple(errors), ())

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
    for name in ("c_energy", "c_hold_g1", "c_hold_g2", "c_transfer", "c_loss",
                 "price"):
        if getattr(params, name) < 0:
            errors.append(f"{name} must be >= 0")

    if not errors:
        if params.mu1 < params.mu2:
            warnings.append("fast condition violated: mu1 < mu2")
        if params.c_hold_g1 > params.c_hold_g2:
            warnings.append("cheap condition violated: c_hold_g1 > c_hold_g2")

    return ValidationReport(tuple(errors), tuple(warnings))


def require_valid(params: ModelParams) -> ModelParams:
    """Raise ConfigError if the hard invariants fail; return params."""
    report = validate(params)
    if not report.ok:
        raise ConfigError("; ".join(report.errors))
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
    """Validate length and entry range of a policy; return it as an int tuple."""
    entries = []
    for j, value in enumerate(d, start=1):
        if type(value) is not int:
            if not _is_integer(value):
                raise ValueError(f"policy entry for level {j} must be an integer")
            value = int(value)
        if not 0 <= value <= m:
            raise ValueError(
                f"policy entry {value} for level {j} is outside 0..{m}"
            )
        entries.append(value)
    if len(entries) != m:
        raise ValueError(f"policy must have {m} entries, got {len(entries)}")
    return tuple(entries)


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
    if not 1 <= theta <= m + 1:
        raise ValueError(f"theta must be in 1..{m + 1}, got {theta}")
    return tuple(0 for _ in range(1, theta)) + tuple(range(theta, m + 1))


def _level_values(m: int, space: str) -> list[np.ndarray]:
    """The values each coordinate of a product space takes, ascending.

    full allows {0..m} at every level, reduced {0..j} at level j, bang_bang
    {0, j}. A policy's rank is its digits in these radices with the last
    coordinate least significant, so rank order is lexicographic order.
    """
    if space == "full":
        return [np.arange(m + 1, dtype=np.int64)] * m
    if space == "reduced":
        return [np.arange(j + 1, dtype=np.int64) for j in range(1, m + 1)]
    if space == "bang_bang":
        return [np.array([0, j], dtype=np.int64) for j in range(1, m + 1)]
    raise ValueError(f"space {space!r} is not a product space")


def policy_space_size(m, space="full") -> int:
    """Number of policies in a space: the product of its level sizes."""
    if space == "threshold":
        return m + 1
    if space not in POLICY_SPACES:
        raise ValueError(f"unknown policy space {space!r}")
    return math.prod(values.size for values in _level_values(m, space))


def _gated_size(m: int, space: str, allow_large: bool) -> int:
    """Size of a policy space, refusing the ones too large to enumerate.

    The full space refuses m > 8 and the reduced space m > 10 unless
    allow_large is set; bang_bang and threshold are never refused.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    size = policy_space_size(m, space)
    limit = {"full": FULL_SPACE_MAX_M, "reduced": REDUCED_SPACE_MAX_M}.get(space)
    if limit is not None and m > limit and not allow_large:
        raise GateError(
            f"{space} policy space has {size} members for m={m}; "
            "pass allow_large to enumerate anyway"
        )
    return size


def enumerate_policies(m, space="full", allow_large=False):
    """Yield each policy of the requested space exactly once.

    Spaces and their sizes:
      full      - every entry in {0..m}; (m+1)^m policies
      reduced   - entry j limited to {0..j}; (m+1)! policies
      bang_bang - entry j limited to {0, j}; 2^m policies
      threshold - the m+1 threshold policies

    Enumeration is lexicographic (thresholds by rising theta), which callers
    rely on for deterministic tie-breaking. The full space refuses m > 8 and
    the reduced space m > 10 unless allow_large is set.
    """
    _gated_size(m, space, allow_large)
    if space == "threshold":
        return (threshold_policy(m, theta) for theta in range(1, m + 2))
    return itertools.product(*(values.tolist() for values in _level_values(m, space)))


def _policy_block(m: int, space: str, ranks: np.ndarray) -> np.ndarray:
    """The policies of an array of ranks, one integer row each.

    Product spaces unrank mixed-radix digits through _level_values, in the
    order enumerate_policies yields, all ranks in one pass; thresholds
    come by rising theta.
    """
    if space == "threshold":
        block = np.array([threshold_policy(m, t) for t in range(1, m + 2)],
                         dtype=np.int64)
        return block[ranks]
    levels = _level_values(m, space)
    idx = np.array(ranks, dtype=np.int64)
    block = np.empty((idx.shape[0], m), dtype=np.int64)
    for k in range(m - 1, -1, -1):
        block[:, k] = levels[k][idx % levels[k].size]
        idx //= levels[k].size
    return block


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
            raise ConfigError(
                f"{source}: value for {key!r} is not a number: {value!r}"
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
    return hashlib.sha256(params_to_text(params).encode()).hexdigest()[:16]
