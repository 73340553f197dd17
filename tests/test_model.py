"""Parameter parsing, validation, policy helpers, and the state space."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sleepq import (
    ConfigError,
    FULL_SPACE_MAX_M,
    GateError,
    ModelParams,
    check_policy,
    enumerate_policies,
    format_policy,
    params_digest,
    params_from_file,
    params_to_text,
    parse_params,
    parse_policy,
    policy_space_size,
    state_space,
    threshold_policy,
    validate,
    ValidationReport,
)
from conftest import micro_params


def test_config_round_trip(micro):
    text = params_to_text(micro)
    assert parse_params(text) == micro
    # digest is a function of the canonical text only
    assert params_digest(micro) == params_digest(parse_params(text))


def test_config_uses_plain_lambda_key(micro):
    text = params_to_text(micro)
    assert "lambda=" in text and "lambda_" not in text


def test_parse_params_rejects_unknown_key(micro):
    text = params_to_text(micro) + "bogus=1\n"
    with pytest.raises(ConfigError, match="unknown key"):
        parse_params(text)


def test_parse_params_rejects_duplicate_and_missing():
    text = params_to_text(micro_params())
    with pytest.raises(ConfigError, match="duplicate"):
        parse_params(text + "price=3\n")
    with pytest.raises(ConfigError, match="missing"):
        parse_params("lambda=1.0\n")


def test_parse_params_rejects_empty_value(micro):
    text = params_to_text(micro).replace("price=10.0", "price=  ")
    with pytest.raises(ConfigError, match=r":14: empty value for 'price'"):
        parse_params(text)


def test_parse_params_rejects_non_numeric(micro):
    text = params_to_text(micro).replace("price=10.0", "price=ten")
    with pytest.raises(ConfigError, match="not a number"):
        parse_params(text)


def test_params_from_file_missing(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        params_from_file(tmp_path / "absent.cfg")


def test_comments_and_blank_lines_ignored(tmp_path, micro):
    text = "# header\n\n" + params_to_text(micro).replace(
        "price=10.0", "price=10.0  # revenue per job")
    path = tmp_path / "m.cfg"
    path.write_text(text)
    assert params_from_file(path) == micro


def test_validate_accepts_micro(micro):
    report = validate(micro)
    assert report.ok and report.errors == () and report.warnings == ()


def test_validate_errors():
    bad = micro_params(lambda_=0.0, p2_sleep=2.0, c_loss=-1.0)
    report = validate(bad)
    assert not report.ok
    joined = " ".join(report.errors)
    assert "lambda" in joined
    assert "p2_sleep" in joined
    assert "c_loss" in joined


@pytest.mark.parametrize("overrides, error", [
    (dict(n=2.0), "n must be an integer"),
    (dict(m=True), "m must be an integer"),
    (dict(mu1="1"), "mu1 must be a number"),
    (dict(price=False), "price must be a number"),
    (dict(c_loss=float("inf")), "c_loss must be finite"),
    (dict(mu2=float("nan")), "mu2 must be finite"),
    (dict(lambda_=0.0), "lambda must be > 0"),
    (dict(mu1=-1.0), "mu1 must be > 0"),
    (dict(mu2=0.0), "mu2 must be > 0"),
    (dict(n=0), "n must be >= 1"),
    (dict(m=0), "m must be >= 1"),
    (dict(p2_sleep=0.0), "p2_sleep must be > 0"),
    (dict(p2_sleep=1.0), "p2_sleep must be < p2_work"),
    *((dict([(name, -1.0)]), f"{name} must be >= 0")
      for name in ("c_energy", "c_hold_g1", "c_hold_g2", "c_transfer",
                   "c_loss", "price")),
])
def test_validate_names_each_field(overrides, error):
    assert validate(micro_params(**overrides)) == ValidationReport((error,), ())


def test_validate_warns_on_advisory_conditions():
    report = validate(micro_params(mu1=0.5, mu2=1.0, c_hold_g1=2.0))
    assert report.ok
    assert len(report.warnings) == 2


def test_check_policy_accepts_numpy_integers():
    assert check_policy(np.array([0, 2, 1]), 3) == (0, 2, 1)
    out = check_policy((np.int64(1), 2, np.int32(0)), 3)
    assert out == (1, 2, 0) and all(type(v) is int for v in out)


@pytest.mark.parametrize("entry", [True, np.True_, 0.5, np.float64(1.0)])
def test_check_policy_rejects_non_integer_entries(entry):
    with pytest.raises(ValueError, match="integer"):
        check_policy((0, entry), 2)


def test_check_policy_rejects_bad_entries():
    with pytest.raises(ValueError, match="integer"):
        check_policy((0.5, 1), 2)
    with pytest.raises(ValueError, match="outside"):
        check_policy((0, 3), 2)
    with pytest.raises(ValueError, match="entries"):
        check_policy((0,), 2)


def test_threshold_policy_shape():
    assert threshold_policy(4, 1) == (1, 2, 3, 4)
    assert threshold_policy(4, 3) == (0, 0, 3, 4)
    assert threshold_policy(4, 5) == (0, 0, 0, 0)
    with pytest.raises(ValueError):
        threshold_policy(4, 0)


def test_enumerate_full_space_is_lexicographic():
    policies = list(enumerate_policies(2, "full"))
    assert policies == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2),
                        (2, 0), (2, 1), (2, 2)]
    assert len(policies) == policy_space_size(2, "full")


def test_enumerate_other_spaces():
    assert list(enumerate_policies(2, "bang_bang")) == [
        (0, 0), (0, 2), (1, 0), (1, 2)]
    assert list(enumerate_policies(3, "threshold")) == [
        (1, 2, 3), (0, 2, 3), (0, 0, 3), (0, 0, 0)]
    reduced = list(enumerate_policies(3, "reduced"))
    assert all(all(v <= j for j, v in enumerate(d, start=1)) for d in reduced)
    assert len(reduced) == policy_space_size(3, "reduced")


def test_unknown_space_and_empty_level_set_are_refused():
    with pytest.raises(ValueError, match="unknown policy space 'bogus'"):
        policy_space_size(3, "bogus")
    with pytest.raises(ValueError, match="m must be >= 1"):
        enumerate_policies(0)


def test_space_size_gate():
    with pytest.raises(GateError, match="allow_large"):
        list(enumerate_policies(FULL_SPACE_MAX_M + 1, "full"))
    # threshold spaces stay linear and are never gated
    assert len(list(enumerate_policies(40, "threshold"))) == 41


def test_policy_parse_format_round_trip():
    assert parse_policy("0, 2,1", 3) == (0, 2, 1)
    assert format_policy((0, 2, 1)) == "0,2,1"
    with pytest.raises(ValueError):
        parse_policy("0,x", 2)


def test_state_space_layout():
    ss = state_space(micro_params(n=2, m=2))
    assert ss.size == 5
    assert ss.states == ((0, 0), (1, 0), (2, 0), (2, 1), (2, 2))
    assert ss.index(2, 1) == 3
    for i, j in ((1, 1), (3, 0), (2, 3), (-1, 0)):
        with pytest.raises(ValueError, match=rf"\({i}, {j}\) is not a state"):
            ss.index(i, j)
    assert ss.index(1, 0) == 1


@given(st.integers(min_value=1, max_value=6), st.data())
def test_policy_round_trip_property(m, data):
    d = tuple(data.draw(st.integers(min_value=0, max_value=m))
              for _ in range(m))
    assert parse_policy(format_policy(d), m) == d


@given(st.integers(min_value=1, max_value=5))
def test_threshold_policies_cover_scan_order(m):
    scanned = list(enumerate_policies(m, "threshold"))
    assert scanned == [threshold_policy(m, theta) for theta in range(1, m + 2)]


def test_digest_changes_with_any_field(micro):
    base = params_digest(micro)
    for f in dataclasses.fields(ModelParams):
        bumped = dataclasses.replace(
            micro, **{f.name: getattr(micro, f.name) + 1})
        assert params_digest(bumped) != base
