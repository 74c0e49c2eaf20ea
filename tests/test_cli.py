import csv
import io
import json

import numpy as np
import pytest

from qwblock.cli import SWEEP_HEADER, build_parser, main

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
    code, out = run(capsys, ["oracle", *ARGS, "--a", "2",
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
    code, out = run(capsys, ["compare", *ARGS, "--a", "2",
                             "--box", "60", "62", "--tol", "0"])
    assert code == 2
    assert json.loads(out)["pass"] is False


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
