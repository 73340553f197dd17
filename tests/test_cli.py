"""Command-line interface: exit codes, table output, and CSV files."""

import argparse
import importlib
import itertools
import warnings
from pathlib import Path

import pytest

from sleepq import (params_digest, params_to_text, policy_space_size,
                    stationary_closed_form)
from sleepq.cli import build_parser, main
from sleepq.model import _size_text
from conftest import micro_params, sleepy_params


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.cfg"
    path.write_text(params_to_text(micro_params()))
    return str(path)


@pytest.fixture
def sleepy_file(tmp_path):
    path = tmp_path / "sleepy.cfg"
    path.write_text(params_to_text(sleepy_params()))
    return str(path)


def write_model(tmp_path, name="alt.cfg", **overrides):
    path = tmp_path / name
    path.write_text(params_to_text(micro_params(**overrides)))
    return str(path)


def test_validate_ok(model_file, capsys):
    assert main(["validate", "--model", model_file]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_validate_reports_warnings(tmp_path, capsys):
    path = write_model(tmp_path, mu1=0.5, mu2=1.0)
    assert main(["validate", "--model", path]) == 0
    out = capsys.readouterr().out
    assert "warning:" in out and out.strip().endswith("ok")


def test_validate_reports_errors(tmp_path, capsys):
    path = write_model(tmp_path, p2_sleep=2.0, p2_work=1.0)
    assert main(["validate", "--model", path]) == 2
    assert "error:" in capsys.readouterr().out


@pytest.mark.parametrize("command", [
    ["stationary", "--policy", "1"],
    ["reward", "--policy", "1"],
    ["potentials", "--policy", "1"],
    ["sensitivity", "--policy", "1"],
    ["critical-prices"],
    ["price-sweep", "--from", "1"],
    ["optimize"],
])
def test_invalid_model_is_config_error(tmp_path, capsys, command):
    # Without the check, mu1=0 printed NaN with exit 0 or blamed overflow.
    path = write_model(tmp_path, mu1=0.0)
    assert main([command[0], "--model", path, *command[1:]]) == 2
    captured = capsys.readouterr()
    assert "config error: mu1 must be > 0" in captured.err
    assert captured.out == ""


def test_missing_model_file(tmp_path, capsys):
    assert main(["stationary", "--model", str(tmp_path / "nope.cfg"),
                 "--policy", "1"]) == 2
    assert "config error" in capsys.readouterr().err


def test_malformed_config(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("lambda=1.0\nthis is not a key value line\n")
    assert main(["validate", "--model", str(path)]) == 2


def test_unknown_command_is_usage_error(model_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--model", model_file])
    assert exc.value.code == 1


def test_missing_required_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["stationary"])  # --model is required
    assert exc.value.code == 1


def test_missing_policy_is_usage_error(model_file, capsys):
    assert main(["stationary", "--model", model_file]) == 1
    assert "--policy is required" in capsys.readouterr().err


def test_every_command_documents_its_options():
    sub, = (action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction))

    def helps(option):
        return {name: action.help for name, p in sub.choices.items()
                for action in p._actions if option in action.option_strings}

    policy = {"stationary", "reward", "potentials", "sensitivity",
              "monotonicity", "simulate"}
    search = {"critical-prices", "optimize", "price-sweep"}
    assert helps("--policy") == dict.fromkeys(policy, "comma-separated policy")
    assert helps("--space").keys() == search
    assert helps("--allow-large") == {}
    assert {name for name, p in sub.choices.items()
            if p.get_default("handler") is None} == {"validate"}


def test_fractional_count_in_model_is_config_error(tmp_path, capsys):
    path = tmp_path / "frac.cfg"
    path.write_text(params_to_text(micro_params()).replace("m=1\n", "m=2.5\n"))
    assert main(["validate", "--model", str(path)]) == 2
    assert "value for 'm' must be an integer: '2.5'" in capsys.readouterr().err


def test_bad_policy_string(model_file, capsys):
    assert main(["stationary", "--model", model_file,
                 "--policy", "2"]) == 1  # entry above m


def test_stationary_table(model_file, capsys):
    assert main(["stationary", "--model", model_file, "--policy", "1"]) == 0
    out = capsys.readouterr().out
    assert "loss probability: 0.2" in out
    lines = out.strip().splitlines()
    assert lines[-4].split() == ["i", "j", "xi", "pi"]
    assert lines[-3].split() == ["0", "0", "1", "0.4"]
    assert lines[-1].split() == ["1", "1", "0.5", "0.2"]


def test_csv_output(model_file, tmp_path, capsys):
    out_path = tmp_path / "pi.csv"
    assert main(["stationary", "--model", model_file, "--policy", "1",
                 "--output", str(out_path)]) == 0
    lines = out_path.read_text().splitlines()
    digest = params_digest(micro_params())
    assert lines[0] == f"# model={digest}"
    assert lines[1] == "# command=stationary"
    assert lines[2].startswith("# version=")
    assert lines[3] == "# policy=1"
    assert lines[4] == "# loss_probability=0.2"
    assert lines[5] == "i,j,xi,pi"
    assert lines[6] == "0,0,1,0.4"
    assert lines[8] == "1,1,0.5,0.2"


def test_csv_is_bit_stable(model_file, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert main(["optimize", "--model", model_file,
                     "--output", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_reward_table(model_file, capsys):
    assert main(["reward", "--model", model_file, "--policy", "1"]) == 0
    out = capsys.readouterr().out
    assert "eta: 3.86" in out
    rows = [line.split() for line in out.strip().splitlines()[-3:]]
    assert [r[4] for r in rows] == ["-2.5", "7", "10.3"]


def test_potentials_methods_via_cli(model_file, capsys):
    assert main(["potentials", "--model", model_file, "--policy", "1",
                 "--normalization", "fundamental", "--method",
                 "explicit"]) == 0
    out = capsys.readouterr().out
    assert "eta: 3.86" in out
    assert out.strip().splitlines()[-3].split()[2] == "-0.6"


def test_sensitivity_table(model_file, capsys):
    assert main(["sensitivity", "--model", model_file, "--policy", "1"]) == 0
    out = capsys.readouterr().out
    assert "price constant c: 9.5" in out
    row = out.strip().splitlines()[-1].split()
    assert row == ["1", "-3.22", "-5.7", "1"]


def test_critical_prices(model_file, capsys):
    assert main(["critical-prices", "--model", model_file]) == 0
    out = capsys.readouterr().out
    assert "r_high" in out and "-5.7" in out


def test_optimize_table(model_file, capsys):
    assert main(["optimize", "--model", model_file, "--top-k", "2"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[-2].split() == ["1", "1", "3.86"]
    assert "best policy: 1" in out


def test_negative_top_k_is_usage_error(model_file, capsys):
    assert main(["optimize", "--model", model_file, "--top-k", "-1"]) == 1
    assert "top_k must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["optimize", "price-sweep"])
@pytest.mark.parametrize("threads", ["0", "-1"])
def test_bad_threads_is_usage_error(model_file, capsys, command, threads):
    # Every search runs on the calling thread: neither command has the flag.
    argv = [command, "--model", model_file, "--threads", threads]
    if command == "price-sweep":
        argv += ["--from", "1"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "unrecognized arguments: --threads" in capsys.readouterr().err


@pytest.mark.parametrize("anchor", ["nan", "inf"])
def test_non_finite_anchor_is_usage_error(model_file, capsys, anchor):
    argv = ["potentials", "--model", model_file, "--policy", "1",
            "--anchor", anchor]
    assert main(argv) == 1
    streams = capsys.readouterr()
    assert "anchor must be finite" in streams.err
    assert streams.out == ""


@pytest.mark.parametrize("argv, status, text", [
    (["potentials", "--policy", "1", "--anchor", "-1e5"], 0, "\n0  0  -100000\n"),
    (["potentials", "--policy", "1", "--anchor", "-1.2e-05"], 0, "\n0  0  -1.2e-05\n"),
    (["monotonicity", "--policy", "1", "--j", "1", "--r-high", "-5.7e0"], 0,
     "ok: true"),
    (["price-sweep", "--from", "-1e308"], 1, "prices must be >= 0"),
], ids=["anchor", "anchor-as-printed", "r-high", "from"])
def test_negative_numbers_in_exponent_form_parse(model_file, capsys, argv, status,
                                                 text):
    # %.12g writes a small negative critical price as -1.2e-05; pasted back
    # into a flag it is a number, not an unknown option.
    assert main([argv[0], "--model", model_file, *argv[1:]]) == status
    streams = capsys.readouterr()
    assert text in (streams.out if status == 0 else streams.err)


def test_policy_from_an_args_file(tmp_path, capsys):
    # A 30 000-level ladder is longer than the 128 KiB that Linux lets one
    # argument take, so it can only reach the parser through @FILE.
    path = write_model(tmp_path, lambda_=2.0, n=2, m=30_000)
    ladder = ",".join(str(j) for j in range(1, 30_001))
    assert len(ladder) > 128 * 1024
    args = tmp_path / "ladder.args"
    args.write_text(f"--policy\n{ladder}\n")
    out_csv = tmp_path / "wide.csv"
    assert main(["potentials", "--model", path, f"@{args}", "--method", "rg",
                 "--output", str(out_csv)]) == 0
    capsys.readouterr()
    lines = out_csv.read_text().splitlines()
    rows = [line for line in lines if not line.startswith("#")][1:]
    assert len(rows) == 30_003


def test_full_space_ranking_answers_at_a_billion_policies(tmp_path, capsys):
    # The enumeration walk refused the 10^9 policies of full m = 9 with
    # exit 3; the policy iteration and Lawler's partition enumerate none.
    path = write_model(tmp_path, m=9)
    assert main(["optimize", "--model", path, "--space", "full"]) == 0
    best = capsys.readouterr().out
    assert "policies evaluated: 1000000000\n" in best
    assert main(["optimize", "--model", path, "--space", "full", "--top-k", "3"]) == 0
    ranked = capsys.readouterr().out
    assert best.splitlines()[:3] == ranked.splitlines()[:3]


def test_critical_prices_answer_at_a_billion_policies(tmp_path, capsys):
    # The critical prices' per-level DPs enumerate nothing, so the 10^9
    # policies of the full space at m = 9 meet no size gate.
    path = write_model(tmp_path, m=9)
    assert main(["critical-prices", "--model", path]) == 0
    out = capsys.readouterr().out
    assert "R_H: " in out and "R_L: " in out


@pytest.mark.parametrize("m", [1371, 1558, 2000, 20000])
def test_optimize_answers_past_the_digits_python_writes(tmp_path, capsys, m):
    # A size of more than 4300 digits is printed as the evaluations of
    # optimize, which enumerates nothing, with or without a ranking: at
    # m = 20 000, "(m+1)^m (86022 digits)" and "(m+1)! (77342 digits)"
    # (test_model.py pins those texts). The critical prices enumerate
    # nothing either, and refuse level 1's smallest root, which is not a
    # double from m = 200.
    path = write_model(tmp_path, lambda_=2.0, n=2, m=m)
    for command in (["critical-prices"],
                    ["price-sweep", "--space", "full", "--from", "0", "--to", "1",
                     "--steps", "2"]):
        assert main([*command, "--model", path]) == 4
        assert "level 1 is not a finite double" in capsys.readouterr().err
    for space, rank in itertools.product(("full", "reduced"), ([], ["--top-k", "1"])):
        assert main(["optimize", "--space", space, "--model", path, *rank]) == 0
        size = _size_text(policy_space_size(m, space), space)
        assert f"policies evaluated: {size}\n" in capsys.readouterr().out


@pytest.mark.parametrize("space", ["full", "reduced", "bang_bang", "threshold"])
def test_optimize_command_forms_the_space_size_once(tmp_path, capsys, monkeypatch,
                                                     space):
    # The size optimize returns as its evaluations is the one printed.
    sizes = []

    def counted(m, space):
        sizes.append((m, space))
        return policy_space_size(m, space)

    for name in ("sleepq.model", "sleepq.optimize"):
        monkeypatch.setattr(importlib.import_module(name), "policy_space_size", counted)
    path = write_model(tmp_path, lambda_=2.0, n=2, m=20)
    assert main(["optimize", "--space", space, "--model", path]) == 0
    want = _size_text(policy_space_size(20, space), space)
    assert f"policies evaluated: {want}\n" in capsys.readouterr().out
    assert sizes == [(20, space)]
    # A ranking forms it once too.
    sizes.clear()
    path = write_model(tmp_path, lambda_=2.0, n=2, m=4)
    assert main(["optimize", "--space", space, "--top-k", "2", "--model", path]) == 0
    capsys.readouterr()
    assert sizes == [(4, space)]


def test_bang_bang_critical_prices_answer_at_scale(tmp_path, capsys):
    # The critical prices of the 2^100 bang-bang policies, in price-sweep
    # too, were enumerated by a call that never returned, and then refused
    # by the size gate; the per-level DPs answer.
    path = write_model(tmp_path, lambda_=2.0, n=2, m=100)
    for command in (["critical-prices"],
                    ["price-sweep", "--from", "0", "--to", "20", "--steps", "25"]):
        assert main([*command, "--space", "bang_bang", "--model", path]) == 0
        assert "R_L: -4.69822549969e+131" in capsys.readouterr().out


def test_threshold_critical_prices_print_the_bang_bang_r_low(tmp_path, capsys):
    # The threshold space skipped the levels whose R-slope cancelled and
    # printed R_L -4.57e14 here. Its witness, level 1 of the all-awake
    # policy, is a threshold policy, so its R_L is bang-bang's.
    path = write_model(tmp_path, lambda_=2.0, n=2, m=100)
    r_low = {}
    for space in ("threshold", "bang_bang"):
        assert main(["critical-prices", "--space", space, "--model", path]) == 0
        [r_low[space]] = [line for line in capsys.readouterr().out.splitlines()
                          if line.startswith("R_L: ")]
    assert r_low["threshold"] == r_low["bang_bang"] == "R_L: -4.69822549969e+131"


def test_threshold_table(model_file, capsys):
    assert main(["threshold", "--model", model_file]) == 0
    out = capsys.readouterr().out
    assert "theta*: 1" in out
    assert out.strip().splitlines()[-2].split() == ["1", "3.86", "true"]


def test_monotonicity_ok(model_file, capsys):
    assert main(["monotonicity", "--model", model_file, "--policy", "1",
                 "--j", "1", "--r-high", "-5.7"]) == 0
    out = capsys.readouterr().out
    assert "ok: true" in out


def test_monotonicity_violation_exits_4(model_file, capsys):
    # price 10 sits far above R_L, so claiming a decreasing profile fails
    assert main(["monotonicity", "--model", model_file, "--policy", "1",
                 "--j", "1", "--r-low", "20"]) == 4
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", [
    "threshold", "critical-prices", "critical-prices --space bang_bang",
    "critical-prices --space reduced", "critical-prices --space threshold",
    "optimize --space bang_bang", "optimize --space full",
    "optimize --space reduced", "optimize --space threshold",
    "optimize --space threshold --top-k 3", "optimize --space full --top-k 3",
    "price-sweep --from 0 --to 5 --steps 3 --space bang_bang",
    "price-sweep --from 0 --to 5 --steps 3 --space threshold",
    "monotonicity --policy 1,2,3 --j 2"])
def test_heavy_load_commands_exit_4(tmp_path, capsys, command):
    # The stationary weights overflow, so every profit is NaN: every command
    # that reads the level tables or a policy's realization factors refuses
    # the load. The critical prices of a product space read neither: their
    # per-level DPs sum ratios of weights, which stay bounded, and answer
    # (test_sensitivity.py checks their values against exact ones).
    path = write_model(tmp_path, n=1000, lambda_=1000.0, mu1=1.0, m=3)
    name, *rest = command.split()
    if name == "critical-prices" and "threshold" not in rest:
        assert main([name, "--model", path, *rest]) == 0
        assert "R_L: -5.10" in capsys.readouterr().out
        return
    assert main([name, "--model", path, *rest]) == 4
    err = capsys.readouterr().err
    assert "numerical failure" in err and "not finite" in err


@pytest.mark.parametrize("space", ["bang_bang", "threshold"])
def test_overflowing_price_sweep_walk_exits_4(tmp_path, capsys, space):
    # Every policy's weights sum to about e^700, so the realization factors,
    # which normalize them first, and the critical prices are finite. The
    # sweep's own profits (the policy iteration's answer's, or the threshold
    # family's) multiply the weights by profit rates near 1e7 at R = 1e4 and
    # must refuse, not warn.
    path = write_model(tmp_path, n=1000, lambda_=700.0, m=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["critical-prices", "--model", path]) == 0
        capsys.readouterr()
        assert main(["price-sweep", "--model", path, "--from", "0", "--to",
                     "10000", "--steps", "3", "--space", space]) == 4
    assert "profits are not finite" in capsys.readouterr().err


@pytest.mark.parametrize("m", [14284, 14285])
def test_optimize_prints_a_size_past_the_digits_python_writes(tmp_path, capsys, m):
    # The policy iteration answers at any m. 2^14284 has the 4300 digits
    # Python writes of an int; 2^14285 has one more, so its formula is
    # printed.
    evaluations = str(2 ** m) if m == 14284 else "2^m (4301 digits)"
    path = write_model(tmp_path, mu2=1e-12, m=m)
    out = tmp_path / "out.csv"
    assert main(["optimize", "--model", path, "--space", "bang_bang",
                 "--output", str(out)]) == 0
    assert f"policies evaluated: {evaluations}\n" in capsys.readouterr().out
    assert f"# evaluations={evaluations}\n" in out.read_text()


def test_overflowing_potentials_exit_4_on_every_route(tmp_path, capsys):
    # The first heavy_instance of default_rng(2201), cut to m = 12, with
    # lambda doubled until a weight passes 1e300 (conftest.overflowed):
    # pi is finite, but the routes' running products of lambda/nu are not.
    # rg and explicit refuse their potentials, dense its singular matrix.
    path = write_model(
        tmp_path, lambda_=6039199695790318.0, mu1=2.7601829794950614,
        mu2=2.488858686555652, n=9, m=12, p1_work=3.607185974602384,
        p2_work=2.8614193801790764, p2_sleep=0.3556675212446409,
        c_energy=4.080952659893521, c_hold_g1=4.445961869462037,
        c_hold_g2=2.4264435715983996, c_transfer=1.6521605558644077,
        c_loss=4.0184035186240346, price=6.510268670452531)
    policy = "12,12,12,12,12,12,11,12,12,12,12,12"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["stationary", "--model", path, "--policy", policy]) == 0
        for method in ("rg", "dense", "explicit"):
            capsys.readouterr()
            assert main(["potentials", "--model", path, "--policy", policy,
                         "--method", method]) == 4
            err = capsys.readouterr().err
            assert method == "dense" or "not finite" in err


@pytest.mark.filterwarnings("error")
def test_wide_span_potentials_exit_4_on_every_route(tmp_path, capsys):
    # The death rates run from mu1 = 1e-12 to 2: the routes' products lose
    # so much that each residual fails the gate, and the refusal names the
    # span. rg and explicit used to warn about it first and exit 1 under
    # warnings as errors.
    path = write_model(tmp_path, mu1=1e-12, mu2=1.0, n=1, m=2)
    for method in ("rg", "dense", "explicit"):
        assert main(["potentials", "--model", path, "--policy", "1,2",
                     "--method", method]) == 4
        err = capsys.readouterr().err
        assert "exceeds tolerance; the death rates span 2.00e+12" in err, method


def test_heavy_load_stationary_exits_4(tmp_path, capsys):
    # The all-asleep weights overflow near level 440 of 500; the law used
    # to come back with NaN entries and exit 0.
    path = write_model(tmp_path, n=2, m=500, lambda_=10.0, mu1=1.0, mu2=0.5)
    policy = ",".join(["0"] * 500)
    assert main(["stationary", "--model", path, "--policy", policy]) == 4
    assert "numerical failure" in capsys.readouterr().err


def test_simulate_with_trace(model_file, tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    assert main(["simulate", "--model", model_file, "--policy", "1",
                 "--horizon", "2000", "--warmup", "200", "--seed", "11",
                 "--batch-count", "4", "--trace-out", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "eta_hat:" in out
    lines = trace.read_text().splitlines()
    assert lines[0].startswith("# model=")
    header_at = next(k for k, line in enumerate(lines)
                     if not line.startswith("#"))
    assert lines[header_at] == "time,i_before,j_before,event,i_after,j_after"
    assert len(lines) - header_at - 1 == 2000


def test_simulate_csv_is_bit_stable(model_file, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert main(["simulate", "--model", model_file, "--policy", "1",
                     "--horizon", "3000", "--seed", "4",
                     "--output", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_price_sweep_annotates_crossings(sleepy_file, capsys):
    assert main(["price-sweep", "--model", sleepy_file, "--from", "0",
                 "--to", "130", "--steps", "6", "--space", "reduced"]) == 0
    out = capsys.readouterr().out
    assert "crosses R_L" in out and "crosses R_H" in out
    assert "low" in out and "high" in out


def test_price_sweep_single_point(model_file, capsys):
    assert main(["price-sweep", "--model", model_file, "--from", "10"]) == 0
    row = capsys.readouterr().out.strip().splitlines()[-1].split()
    assert row[0] == "10" and row[1] == "1" and row[2] == "3.86"


def test_price_sweep_needs_to_with_steps(model_file, capsys):
    assert main(["price-sweep", "--model", model_file, "--from", "0",
                 "--steps", "5"]) == 1
    assert "--to is required" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["monotonicity", "--policy", "1"], "--j is required"),
    (["simulate", "--policy", "1"], "--horizon is required"),
    (["price-sweep", "--from", "0", "--steps", "0"], "--steps must be >= 1"),
])
def test_missing_or_bad_command_value_is_usage_error(model_file, capsys, argv,
                                                     message):
    assert main([argv[0], "--model", model_file, *argv[1:]]) == 1
    assert message in capsys.readouterr().err


GOLDEN = Path(__file__).parent / "golden"


def pinned(text):
    """CSV lines that must not change between versions of the package."""
    return [line for line in text.splitlines(keepends=True)
            if not line.startswith("# version=")]


# 45 states, so a time-mode batch ends on a clipped dwell and each
# replication outruns the uniform buffer.
WIDE_TIME_MODEL = micro_params(lambda_=8.0, n=4, m=40)
WIDE_TIME_POLICY = ",".join(str(j // 2) for j in range(1, 41))


@pytest.mark.parametrize("golden, params, argv, traced", [
    ("simulate_micro_events.csv", micro_params(),
     ["--policy", "1", "--horizon", "20000", "--seed", "4",
      "--batch-count", "8"], False),
    ("simulate_wide_time.csv", WIDE_TIME_MODEL,
     ["--policy", WIDE_TIME_POLICY, "--horizon", "1500", "--warmup", "150",
      "--unit", "time", "--replications", "3", "--batch-count", "5",
      "--seed", "9"], False),
    ("simulate_micro_traced.csv", micro_params(),
     ["--policy", "1", "--horizon", "1000", "--warmup", "100", "--seed", "11",
      "--batch-count", "4"], True),
])
def test_simulate_csv_bytes_are_pinned(tmp_path, golden, params, argv, traced):
    # The golden files hold what the simulator wrote before its kernel was
    # last rewritten: a seeded run must reproduce them bit for bit.
    model, out = tmp_path / "model.cfg", tmp_path / "sim.csv"
    trace = tmp_path / "trace.csv"
    model.write_text(params_to_text(params))
    extra = ["--trace-out", str(trace)] if traced else []
    assert main(["simulate", "--model", str(model), "--output", str(out),
                 *argv, *extra]) == 0
    assert pinned(out.read_text()) == pinned((GOLDEN / golden).read_text())
    if traced:
        want = (GOLDEN / golden.replace(".csv", "_trace.csv")).read_text()
        assert pinned(trace.read_text()) == pinned(want)


@pytest.mark.parametrize("golden, params, argv", [
    ("price_sweep_sleepy_reduced.csv", sleepy_params(),
     ["--from", "0", "--to", "130", "--steps", "6", "--space", "reduced"]),
    ("price_sweep_micro.csv", micro_params(),
     ["--from", "0", "--to", "12", "--steps", "25"]),
    ("price_sweep_sleepy_m4.csv", sleepy_params(m=4),
     ["--from", "0", "--to", "130", "--steps", "25"]),
])
def test_price_sweep_csv_bytes_are_pinned(tmp_path, golden, params, argv):
    # The golden files hold what the per-point search wrote, one optimize
    # call per grid price; only the package version may differ.
    model, out = tmp_path / "model.cfg", tmp_path / "sweep.csv"
    model.write_text(params_to_text(params))
    assert main(["price-sweep", "--model", str(model), "--output", str(out),
                 *argv]) == 0
    assert pinned(out.read_text()) == pinned((GOLDEN / golden).read_text())


@pytest.mark.parametrize("argv", [["--from", "inf"],
                                  ["--from", "nan"],
                                  ["--from", "0", "--to", "inf", "--steps", "3"]])
def test_price_sweep_refuses_non_finite_prices(model_file, capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["price-sweep", "--model", model_file, *argv]) == 2
    assert "price must be finite" in capsys.readouterr().err


def test_one_parser_serves_every_call(model_file, tmp_path, capsys):
    # The parser is built once per process; a call after others, a usage
    # error among them, must print and write what a fresh parser gives.
    calls = [
        (["validate", "--model", model_file], 0),
        (["stationary", "--model", model_file, "--policy", "1"], 0),
        (["simulate", "--model", model_file, "--policy", "1",
          "--horizon", "3000", "--seed", "4"], 0),
        (["stationary", "--model", model_file, "--bogus"], 1),
        (["stationary", "--model", model_file, "--policy", "1"], 0),
    ]

    def run(argv, code, fresh):
        if fresh:
            build_parser.cache_clear()
        out = tmp_path / "out.csv"
        out.unlink(missing_ok=True)
        try:
            got = main([*argv, "--output", str(out)])
        except SystemExit as exc:
            got = exc.code
        assert got == code
        streams = capsys.readouterr()
        return streams.out, streams.err, out.read_bytes() if out.exists() else None

    shared = [run(argv, code, fresh=False) for argv, code in calls]
    fresh = [run(argv, code, fresh=True) for argv, code in calls]
    assert shared == fresh
    assert shared[2][2] is not None and b"# command=simulate" in shared[2][2]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("sleepq ")


def test_unwritable_output_exits_2(model_file, tmp_path, capsys):
    target = str(tmp_path / "no" / "such" / "dir" / "out.csv")
    assert main(["stationary", "--model", model_file, "--policy", "1",
                 "--output", target]) == 2
    assert "cannot write output" in capsys.readouterr().err
