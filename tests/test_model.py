"""Parameter parsing, validation, policy helpers, and the state space."""

import dataclasses
import decimal
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import sleepq
from sleepq import (
    ConfigError,
    ModelParams,
    SimConfig,
    affine_decomposition,
    build_generator,
    build_reward,
    check_policy,
    critical_prices_global,
    format_policy,
    params_digest,
    params_from_file,
    params_to_text,
    parse_params,
    parse_policy,
    perturbation_factors,
    policy_space_size,
    reanchor,
    rg_factorize,
    simulate,
    solve_poisson,
    state_space,
    stationary_closed_form,
    stationary_numeric,
    threshold_policy,
    threshold_scan,
    validate,
    ValidationReport,
    verify_monotonicity,
)
from sleepq.model import _decimal_digits, _level_values, _size_text
from sleepq.optimize import price_sweep
from block import enumerate_policies
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


@pytest.mark.parametrize("key, value", [("n", "1.0"), ("m", "2.5"), ("n", "one")])
def test_parse_params_states_the_integer_rule(micro, key, value):
    text = params_to_text(micro).replace(f"{key}=1\n", f"{key}={value}\n")
    with pytest.raises(ConfigError) as exc:
        parse_params(text)
    assert str(exc.value) == f"<config>: value for {key!r} must be an integer: {value!r}"


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


@pytest.mark.parametrize("theta", [True, 1.5, 0, 6])
def test_threshold_policy_takes_only_an_integer_in_range(theta):
    with pytest.raises(ValueError, match=r"theta must be an integer in 1\.\.5"):
        threshold_policy(4, theta)


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


@pytest.mark.parametrize("space", ["full", "reduced", "bang_bang", "threshold"])
def test_space_size_is_the_enumeration_count_and_exact_at_scale(space, monkeypatch):
    for m in range(1, 7):
        assert policy_space_size(m, space) == sum(1 for _ in enumerate_policies(m, space))
    if space != "threshold":
        for m in range(1, 31):
            assert policy_space_size(m, space) == math.prod(map(len, _level_values(m, space)))
    m = 1000
    exact = {"full": (m + 1) ** m, "reduced": math.factorial(m + 1),
             "bang_bang": 2 ** m, "threshold": m + 1}[space]
    size = policy_space_size(m, space)
    assert type(size) is int and size == exact

    # The sizes come in closed form: math.prod over the level sizes is
    # quadratic in m.
    def forbidden(*args):
        raise AssertionError("math.prod was called")

    monkeypatch.setattr(math, "prod", forbidden)
    assert _size_text(policy_space_size(20000, space), space) == {
        "full": "(m+1)^m (86022 digits)", "reduced": "(m+1)! (77342 digits)",
        "bang_bang": "2^m (6021 digits)", "threshold": "20001"}[space]


@pytest.mark.parametrize("d", [4300, 86022])
def test_digit_count_matches_the_written_int(d):
    # The count reads math.log10 and forms a power of ten only where the
    # log lies near an integer: on both sides of a power of ten it must
    # agree with the written int, past the digits Python writes by default.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit = getattr(sys, "set_int_max_str_digits", lambda _: None)
    set_limit(0)
    try:
        for n in (10 ** d - 1, 10 ** d, 10 ** d + 1):
            assert _decimal_digits(n) == len(str(n))
    finally:
        set_limit(limit)


def test_unknown_space_and_empty_level_set_are_refused(micro):
    for refuse in (lambda: policy_space_size(3, "bogus"),
                   lambda: critical_prices_global(micro, "bogus"),
                   lambda: price_sweep(micro, [0.0, 1.0], "bogus")):
        with pytest.raises(ValueError, match="unknown policy space 'bogus'"):
            refuse()
    with pytest.raises(ValueError, match="m must be >= 1"):
        threshold_policy(0, 1)


@pytest.mark.parametrize("space, m", [("full", 9), ("reduced", 11), ("bang_bang", 26)])
def test_ranking_evaluations_are_the_space_size(space, m):
    # Spaces of 6.7e7 to 1e9 policies: optimize ranks each by Lawler's
    # partition, and counts the whole space as its evaluations.
    ranked = sleepq.optimize(micro_params(m=m), space, top_k=2)
    assert ranked.evaluations == policy_space_size(m, space)


@pytest.mark.parametrize("space, m", [
    ("full", 1370), ("full", 1371), ("full", 2000),
    ("reduced", 1557), ("reduced", 1558), ("reduced", 2000)])
def test_size_text_and_optimize_past_the_digits_python_writes(space, m):
    # Python writes no int of more than 4300 digits: past that, the size
    # text gives the size's formula and digit count instead, and optimize,
    # which enumerates nothing, answers and counts the space.
    size = policy_space_size(m, space)
    digits = decimal.Decimal(size).adjusted() + 1
    formula = {"full": "(m+1)^m", "reduced": "(m+1)!"}[space]
    text = str(size) if digits <= 4300 else f"{formula} ({digits} digits)"
    params = micro_params(lambda_=2.0, n=2, m=m)
    res = sleepq.optimize(params, space)
    assert len(res.best_policy) == m and res.evaluations == size
    assert sleepq.optimize(params, space, top_k=1).ranking == [(res.best_policy,
                                                                res.best_eta)]
    assert _size_text(size, space) == text


@pytest.mark.parametrize("space", sleepq.POLICY_SPACES)
@pytest.mark.parametrize("m", [0, -1, -2, 2.0, 2.5, True, "2", None])
def test_space_size_refuses_an_m_that_is_not_a_count(space, m):
    # Before the check, m = 0 gave 1 in every space, m = -1 0.5 in
    # bang_bang and ZeroDivisionError in full, m = 2.0 9.0 in full and
    # m = True 2; threshold_policy gave () at m = 0 and TypeError at m = 2.0.
    with pytest.raises(ValueError, match="m must be >= 1 and an integer"):
        policy_space_size(m, space)
    with pytest.raises(ValueError, match="m must be >= 1 and an integer"):
        threshold_policy(m, 1)


def test_space_size_is_an_exact_int_of_a_numpy_count():
    for space, want in (("full", 21 ** 20), ("reduced", math.factorial(21)),
                        ("bang_bang", 2 ** 20), ("threshold", 21)):
        size = policy_space_size(np.int64(20), space)
        assert type(size) is int and size == want


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


@pytest.mark.parametrize("make, names", [
    (stationary_closed_form, ("pi", "xi")),
    (lambda p, d: stationary_numeric(build_generator(p, d)), ("pi", "xi")),
    (build_generator, ("sub", "diag", "sup")),
    (build_reward, None),
    (affine_decomposition, ("a", "b")),
    (lambda p, d: rg_factorize(build_generator(p, d)), ("u", "r")),
    (solve_poisson, ("g", "phi_h")),
    (lambda p, d: solve_poisson(p, d, normalization="fundamental"), ("g", "phi_h")),
    (lambda p, d: reanchor(solve_poisson(p, d), 3.0), ("g", "phi_h")),
    (perturbation_factors, ("prf", "crit_prices", "signs")),
    (lambda p, d: threshold_scan(p), ("eta_by_theta",)),
    (lambda p, d: verify_monotonicity(p, d, 2), ("values", "etas")),
    (lambda p, d: simulate(p, d, SimConfig(horizon=2000, seed=1)),
     ("pi_hat", "replication_etas", "batch_records", "batch_pi")),
], ids=["stationary", "numeric", "generator", "reward", "affine", "rg",
        "poisson", "fundamental", "reanchor", "factors", "threshold",
        "monotonicity", "simulate"])
def test_result_arrays_are_read_only(make, names):
    # The policy memo hands one record's arrays to every caller, so no
    # caller may write into them. build_reward returns f itself.
    result = make(micro_params(n=2, m=3), (0, 2, 3))
    if names is None:
        arrays = {"f": result}
    else:
        arrays = {name: value for name, value in vars(result).items()
                  if isinstance(value, np.ndarray)}
        assert sorted(arrays) == sorted(names)
    for array in arrays.values():
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = 0


def test_import_leaves_hashlib_unloaded_and_the_digest_pinned(micro):
    # hashlib loads OpenSSL; of sleepq's modules only params_digest needs it,
    # and imports it there. numpy may load it on some versions: where it
    # does, only the digest is checked.
    code = ("import sys\n"
            "import numpy\n"
            "print('hashlib' in sys.modules)\n"
            "import sleepq\n"
            "print('hashlib' in sys.modules)\n"
            "print(sleepq.params_digest(sleepq.parse_params(sys.stdin.read())))\n")
    src = str(Path(sleepq.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", code], input=params_to_text(micro),
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    by_numpy, loaded, digest = run.stdout.split()
    assert by_numpy == "True" or loaded == "False"
    assert digest == "babe50cc03dd8a95"
