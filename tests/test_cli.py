import contextlib
import csv
import io
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwblock.cli import SWEEP_HEADER, build_parser, main
from qwblock.errors import NonPositiveRate
from qwblock.oracle import solve_prelimit

ARGS = ["--lambda1", "3", "--lambda2", "5", "--mu2", "2", "--grid-size", "64"]


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_missing_rates_is_an_error(capsys):
    code = main(["solve", "--a", "1"])
    assert code == 1
    assert "lambda1" in capsys.readouterr().err


def test_prelimit_without_lambda1_names_it(capsys):
    code = main(["prelimit", "--lambda2", "5", "--nu", "3"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "lambda1" in err
    assert "lambda2" not in err and "Traceback" not in err


def test_unstable_rates_exit_code(capsys):
    code = main(["solve", "--lambda1", "1", "--lambda2", "5",
                 "--mu2", "2"])
    assert code == 1
    assert "Unstable" in capsys.readouterr().err


def test_solve_json_document(capsys):
    code, out = run(capsys, ["solve", *ARGS, "--a", "2"])
    assert code == 0
    doc = json.loads(out)
    np.testing.assert_allclose(doc["blocking"]["b1"], 0.64227, atol=2e-4)
    np.testing.assert_allclose(doc["blocking"]["b2"], 0.61464, atol=2e-4)
    assert doc["normalization_residual"] < 1e-10


def test_solve_config_file(tmp_path, capsys):
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps({"lambda1": 3, "lambda2": 5, "mu1": 1,
                               "mu2": 2, "c1": 1, "c2": 1, "a": 2}))
    code, out = run(capsys, ["solve", "--config", str(cfg),
                             "--grid-size", "64"])
    assert code == 0
    doc = json.loads(out)
    np.testing.assert_allclose(doc["blocking"]["b1"], 0.64227, atol=2e-4)


def test_solve_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, _ = run(capsys, ["solve", *ARGS, "-o", str(target)])
    assert code == 0
    doc = json.loads(target.read_text())
    assert "blocking" in doc


def test_sweep_csv(capsys):
    code, out = run(capsys, ["sweep", *ARGS, "--a-min", "0", "--a-max", "3"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == SWEEP_HEADER
    assert len(rows) == 5
    b1 = [float(r[1]) for r in rows[1:]]
    assert b1 == sorted(b1)


def test_sweep_to_the_largest_threshold(capsys):
    # base sits at its isolation limit from a = 62 on; every threshold
    # up to the CLI's 200 is answered
    code, out = run(capsys, ["sweep", "--lambda1", "3", "--lambda2", "5",
                             "--mu2", "2", "--a-max", "200"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == SWEEP_HEADER
    assert [int(r[0]) for r in rows[1:]] == list(range(201))


def test_sweep_json_format(capsys):
    code, out = run(capsys, ["sweep", *ARGS, "--a-min", "1", "--a-max", "2",
                             "--format", "json"])
    assert code == 0
    docs = json.loads(out)
    assert [d["a"] for d in docs] == [1, 2]


def test_sweep_rejects_bad_range(capsys):
    code = main(["sweep", *ARGS, "--a-min", "5", "--a-max", "1"])
    assert code == 1


def test_oracle_document(capsys, golden):
    code, out = run(capsys, ["oracle", *ARGS[:6], "--a", "2",
                             "--box", "60", "62"])
    assert code == 0
    doc = json.loads(out)
    row = golden[("base", 2)]
    np.testing.assert_allclose(doc["B1"], row["B1"], rtol=1e-12)
    np.testing.assert_allclose(doc["B2"], row["B2"], rtol=1e-12)


def test_prelimit_document(capsys):
    code, out = run(capsys, ["prelimit", "--lambda1", "0.8", "--lambda2",
                             "0.5", "--a", "3", "--nu", "3"])
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"nu", "B1", "B2"}
    assert 0.0 < doc["B1"] < 1.0


def test_compare_passes_within_tolerance(capsys):
    code, out = run(capsys, ["compare", *ARGS, "--a", "2",
                             "--box", "60", "62"])
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert max(doc["delta"]["B1"], doc["delta"]["B2"]) <= 5e-3


def test_compare_fails_with_absurd_tolerance(capsys):
    # the (15, 17) box truncates B1 by 1.6e-8; on the golden box (60, 62)
    # analytic and oracle differ by one ulp, which any change of rounding
    # in either solve can close
    code, out = run(capsys, ["compare", *ARGS, "--a", "2",
                             "--box", "15", "17", "--tol", "0"])
    assert code == 2
    assert json.loads(out)["pass"] is False


@pytest.mark.parametrize("argv", [["oracle", "--box", "60", "62"],
                                  ["prelimit", "--nu", "3"]], ids=" ".join)
def test_grid_size_is_refused_where_it_is_not_read(capsys, argv):
    # only the analytic solve reads the grid; odd sizes would go unnoticed
    with pytest.raises(SystemExit) as exc:
        main([*argv, *ARGS[:6], "--grid-size", "7"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --grid-size 7" in capsys.readouterr().err


def test_parser_lists_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for name in ("solve", "sweep", "oracle", "prelimit", "compare"):
        assert name in text


def test_solve_at_grid_1024(monkeypatch, capsys):
    monkeypatch.setenv("QW_GRID_SIZE", "1024")
    code, out = run(capsys, ["solve", "--lambda1", "3", "--lambda2", "5",
                             "--mu2", "2", "--a", "2"])
    assert code == 0
    np.testing.assert_allclose(json.loads(out)["blocking"]["b1"], 0.64227,
                               atol=2e-4)


def test_solve_threshold_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps({"lambda1": 3, "lambda2": 5, "mu1": 1,
                               "mu2": 2, "c1": 1, "c2": 1, "a": 2}))
    code, out = run(capsys, ["solve", "--config", str(cfg), "--a", "0",
                             "--grid-size", "64"])
    assert code == 0
    assert json.loads(out)["boundary"] == [json.loads(out)["p00"]]


def test_prelimit_reads_config(tmp_path, capsys):
    flags = ["--lambda1", "0.8", "--lambda2", "0.5", "--mu1", "0.7",
             "--c2", "2", "--a", "3", "--nu", "3"]
    _, expected = run(capsys, ["prelimit", *flags])
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps({"lambda1": 0.8, "lambda2": 0.5, "mu1": 0.7,
                               "mu2": 1, "c1": 1, "c2": 2, "a": 3}))
    code, out = run(capsys, ["prelimit", "--config", str(cfg), "--nu", "3"])
    assert code == 0
    assert json.loads(out) == json.loads(expected)
    _, at_zero = run(capsys, ["prelimit", "--config", str(cfg), "--a", "0",
                              "--nu", "3"])
    assert json.loads(at_zero) != json.loads(expected)


@pytest.mark.parametrize("command", ["solve", "prelimit"])
@pytest.mark.parametrize("a", ["2.7", "true"])
def test_config_threshold_that_is_not_an_integer_is_refused(tmp_path, capsys,
                                                            command, a):
    cfg = tmp_path / "model.json"
    cfg.write_text('{"lambda1": 3, "lambda2": 5, "mu1": 1, "mu2": 2, '
                   f'"c1": 1, "c2": 2, "a": {a}}}')
    extra = ["--nu", "3"] if command == "prelimit" else []
    code = main([command, "--config", str(cfg), *extra])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: NonPositiveRate")
    assert "Traceback" not in err


BAD_CONFIGS = {
    "missing key": '{"lambda1": 3, "lambda2": 5, "mu2": 2, "c1": 1, "c2": 1}',
    "malformed JSON": '{"lambda1": 3, "lambda2": 5,',
    "missing file": None,
}


@pytest.mark.parametrize("command", ["solve", "prelimit"])
@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_bad_config_is_an_error_not_a_traceback(tmp_path, capsys, command,
                                                case):
    cfg = tmp_path / "model.json"
    if BAD_CONFIGS[case] is not None:
        cfg.write_text(BAD_CONFIGS[case])
    extra = ["--nu", "3"] if command == "prelimit" else []
    code = main([command, "--config", str(cfg), *extra])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:")
    assert "Traceback" not in err



BAD_INPUTS = [
    *([command, *ARGS[:6], *bad] for command in ("solve", "sweep")
      for bad in (["--grid-size", "15"], ["-o", "{tmp}/missing/x.json"])),
    ["prelimit", "--lambda1", "3", "--lambda2", "5", "--nu", "0"],
    ["prelimit", "--lambda1", "3", "--lambda2", "5", "--nu", "nan"],
    ["prelimit", "--lambda1", "3", "--lambda2", "5", "--nu", "3",
     "--a", "-3"],
    ["prelimit", "--lambda1", "3", "--lambda2", "5", "--mu1", "-1",
     "--nu", "3"],
    ["oracle", *ARGS[:6], "--box", "-5", "3"],
    ["solve", *ARGS[:6], "--grid-size", "100000000"],
    *([command, "--lambda1", "inf", *ARGS[2:6], "--a", "2", *box]
      for command, box in (("solve", []), ("oracle", ["--box", "60", "60"]),
                           ("compare", ["--box", "60", "60"]))),
]


@pytest.mark.parametrize("argv", BAD_INPUTS, ids=" ".join)
def test_bad_input_is_an_error_not_a_traceback(tmp_path, capsys, argv):
    code = main([arg.format(tmp=tmp_path) for arg in argv])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:")
    assert "Traceback" not in err


# rates that printed a traceback: a tiny mu1 made branch_points cancel x1
# away, so phi2's nodes fell outside the x-cut; a tinier one leaves a
# y-cut 1.7e-12 wide (y1 = y2 = 0 when it cancelled), too narrow for 512
# nodes; and mu2c2/lambda2 underflows to 0 in the oracle's log of it
X1_CANCELLED = ["--lambda1", "664.9565651963122", "--lambda2",
                "136.4692422026517", "--mu1", "1.6353380928973306e-08",
                "--mu2", "11.851423217450778", "--a", "102"]
NARROW_Y_CUT = ["--lambda1", "0.017029817323433966", "--lambda2",
                "19.475918347011675", "--mu1", "4.101211070854807e-21",
                "--mu2", "0.011480615948647988", "--a", "209"]
RATIO_UNDERFLOW = ["--lambda1", "20.273302652177783", "--lambda2", "1e+308",
                   "--mu1", "0.06774863286783757", "--mu2", "1e-308",
                   "--a", "123", "--box", "7", "239"]


def test_a_cut_once_cancelled_is_answered_as_the_oracle_answers(capsys):
    code, out = run(capsys, ["solve", *X1_CANCELLED])
    pair = json.loads(out)["blocking"]
    assert code == 0
    np.testing.assert_allclose([pair["b1"], pair["b2"]],
                               [0.9999999999754067, 0.9131568181506285],
                               rtol=1e-14)
    code, out = run(capsys, ["compare", *X1_CANCELLED, "--tol", "1e-15"])
    assert code == 0 and json.loads(out)["pass"] is True


def test_a_cut_too_narrow_for_the_grid_is_refused(capsys):
    code = main(["solve", *NARROW_Y_CUT])
    assert code == 1
    assert capsys.readouterr().err.startswith(
        "error: DegenerateBranchPoints: cut [")


def test_oracle_takes_the_log_spread_of_an_underflowing_ratio(capsys):
    code, out = run(capsys, ["oracle", *RATIO_UNDERFLOW])
    doc = json.loads(out)
    assert code == 0 and doc["residual"] < 1e-12 and doc["B1"] < 1.0


# loads nu*lambda/mu that overflow to inf, which the window bottom and the
# mode pin used to pass to int()
OVERFLOWING_LOADS = [
    dict(lambda1=7.452, lambda2=1e308, mu1=1e-308, mu2=9.875, c1=1.0,
         c2=8.69, a=5, nu=2.5),
    dict(lambda1=1e308, lambda2=5.0, mu1=1.0, mu2=1e-308, c1=1.0, c2=1.0,
         a=0, nu=1e9),
]


@pytest.mark.parametrize("kwargs", OVERFLOWING_LOADS, ids=str)
def test_prelimit_refuses_an_infinite_load(capsys, kwargs):
    code = main(["prelimit", *(arg for name, value in kwargs.items()
                               for arg in (f"--{name}", repr(value)))])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: NonPositiveRate:")
    assert "Traceback" not in err
    with pytest.raises(NonPositiveRate, match="loads"):
        solve_prelimit(**kwargs)


@pytest.mark.parametrize("value", ["abc", "15", "100000000"])
def test_bad_grid_size_variable_is_an_error_not_a_traceback(monkeypatch, capsys,
                                                            value):
    monkeypatch.setenv("QW_GRID_SIZE", value)
    code = main(["solve", *ARGS[:6], "--a", "2"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: BadGridSize: QW_GRID_SIZE=")
    assert "Traceback" not in err


def test_grid_size_variable_is_read_at_each_run(monkeypatch, capsys):
    monkeypatch.delenv("QW_GRID_SIZE", raising=False)
    argv = ["solve", *ARGS[:6], "--a", "2"]
    code, out = run(capsys, argv)
    assert code == 0 and json.loads(out)["diagnostics"]["grid_size"] == 512
    monkeypatch.setenv("QW_GRID_SIZE", "1024")
    code, out = run(capsys, argv)
    assert code == 0 and json.loads(out)["diagnostics"]["grid_size"] == 1024
    code, out = run(capsys, [*argv, "--grid-size", "64"])
    assert code == 0 and json.loads(out)["diagnostics"]["grid_size"] == 64


def test_analytic_path_loads_no_scipy():
    # SciPy serves only the oracle, which imports it when it runs; a fresh
    # interpreter running the analytic library and CLI solve must not load it
    code = ("import sys\n"
            "import qwblock\n"
            "from qwblock import blocking, cli\n"
            "blocking(qwblock.ModelParams(3.0, 5.0, 1.0, 2.0, 2))\n"
            f"assert cli.main(['solve', *{ARGS!r}, '--a', '2']) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.splitlines()[-1] == "[]"


# log-uniform on [1e-25, 1e3], and the extremes of a double
FUZZ_RATE = st.one_of(st.floats(-25.0, 3.0).map(lambda e: 10.0 ** e),
                      st.sampled_from([1e308, 1e-308]))


@st.composite
def oracle_argv(draw):
    """``oracle``, or ``compare`` at grid size 64, argv on any rates,
    threshold and box, stable or not."""
    command = draw(st.sampled_from(["oracle", "compare"]))
    rates = [flag for name in ("lambda1", "lambda2", "mu1", "mu2")
             for flag in (f"--{name}", repr(draw(FUZZ_RATE)))]
    box = [str(draw(st.integers(-2, 80))) for _ in range(2)]
    grid = ["--grid-size", "64"] if command == "compare" else []
    return [command, *rates, "--a", str(draw(st.integers(0, 250))),
            "--box", *box, *grid]


@st.composite
def analytic_argv(draw):
    """``solve`` or ``sweep`` at grid size 64, or ``prelimit`` with
    capacities nu*c in 0..100, on any rates and threshold."""
    command = draw(st.sampled_from(["solve", "sweep", "prelimit"]))
    values = {name: draw(FUZZ_RATE)
              for name in ("lambda1", "lambda2", "mu1", "mu2")}
    if command == "prelimit":
        nu = draw(st.floats(-1.0, 2.0).map(lambda e: 10.0 ** e))
        for c in ("c1", "c2"):
            values[c] = draw(st.integers(0, 100)) / nu
        extra = ["--nu", repr(nu)]
    elif command == "sweep":
        lo = draw(st.integers(0, 250))
        extra = ["--a-min", str(lo), "--a-max",
                 str(draw(st.integers(lo, 250))), "--grid-size", "64"]
    else:
        extra = ["--grid-size", "64"]
    return [command, *(arg for name, value in values.items()
                       for arg in (f"--{name}", repr(value))),
            "--a", str(draw(st.integers(0, 250))), *extra]


def _exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:    # argparse refusing the argv
            code = exc.code
    assert code in (0, 1, 2), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert err.getvalue().startswith("error:")


@settings(max_examples=80, deadline=None)
@given(oracle_argv())
def test_oracle_commands_exit_cleanly(argv):
    _exits_cleanly(argv)


@settings(max_examples=500, deadline=None)
@given(analytic_argv())
def test_analytic_and_prelimit_commands_exit_cleanly(argv):
    _exits_cleanly(argv)
