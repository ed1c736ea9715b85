import json

import pytest
from click.testing import CliRunner

from densedyn import cli, stream


def _write(tmp_path, text):
    path = tmp_path / "updates.txt"
    path.write_text(text)
    return str(path)


def test_run_happy_path(tmp_path):
    path = _write(tmp_path, "h 3 ddsg 0.2\n+ 0 1\n?\n")
    result = CliRunner().invoke(cli.main, ["run", "--stream", path])
    assert result.exit_code == 0
    lines = result.output.strip().split("\n")
    assert json.loads(lines[0])["type"] == "query"
    assert json.loads(lines[-1])["type"] == "summary"


def test_run_reads_stdin(tmp_path):
    result = CliRunner().invoke(
        cli.main, ["run", "--stream", "-"], input="h 2 ddsg 0.3\n+ 0 1\n?\n"
    )
    assert result.exit_code == 0


def test_run_writes_out_file(tmp_path):
    path = _write(tmp_path, "h 3 ddsg 0.2\n+ 0 1\n?\n")
    out = tmp_path / "report.jsonl"
    result = CliRunner().invoke(cli.main, ["run", "--stream", path, "--out", str(out)])
    assert result.exit_code == 0
    assert out.exists()
    assert json.loads(out.read_text().strip().split("\n")[-1])["type"] == "summary"


def test_run_malformed_stream_exits_one(tmp_path):
    path = _write(tmp_path, "h 3 ddsg 0.2\n+ 0 zero\n")
    result = CliRunner().invoke(cli.main, ["run", "--stream", path])
    assert result.exit_code == 1
    assert "line 2" in result.output


# 1e308 is finite, but n times it is not
@pytest.mark.parametrize("weight", ["nan", "inf", "-inf", "1e308"])
def test_run_non_finite_weight_exits_one(tmp_path, weight):
    path = _write(tmp_path, f"h 3 vwdsg 0.2\nw 0 {weight}\n+ 0 1\n?\n")
    result = CliRunner().invoke(cli.main, ["run", "--stream", path])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # not an uncaught error
    assert "line 2" in result.output
    assert "Traceback" not in result.output


def test_run_duplicate_weight_exits_one(tmp_path):
    path = _write(tmp_path, "h 3 vwdsg 0.2\nw 0 2\nw 0 5\n+ 0 1\n?\n")
    result = CliRunner().invoke(cli.main, ["run", "--stream", path])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "line 3: duplicate weight for vertex 0" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("command", ["run", "verify"])
@pytest.mark.parametrize("eps", ["nan", "0", "1", "1.5"])
def test_eps_override_out_of_range_exits_one(tmp_path, command, eps):
    path = _write(tmp_path, "h 3 vwdsg 0.2\n+ 0 1\n?\n")
    result = CliRunner().invoke(cli.main, [command, "--stream", path, "--eps", eps])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "eps override must be in (0, 1)" in result.output
    assert f"got {float(eps)}" in result.output
    assert "Traceback" not in result.output


def test_run_engine_error_exits_one(tmp_path):
    path = _write(tmp_path, "h 3 ddsg 0.2\n- 0 1\n")
    result = CliRunner().invoke(cli.main, ["run", "--stream", path])
    assert result.exit_code == 1
    assert "event 0" in result.output


def test_run_eps_too_small_for_the_ratio_grid_exits_one(tmp_path):
    path = _write(tmp_path, "h 3 ddsg 1e-14\n+ 0 1\n?\n")
    result = CliRunner().invoke(cli.main, ["run", "--stream", path])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "error: eps 1e-14 is too small" in result.output
    assert "Traceback" not in result.output


def test_run_eps_where_no_edge_fits_exits_one(tmp_path):
    # the ratio grid's step is still above 1 here, and the grid would hold
    # millions of guesses; the structure is refused before it is built
    path = _write(tmp_path, "h 3 ddsg 2e-13\n?\n")
    result = CliRunner().invoke(cli.main, ["run", "--stream", path])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "error: eps 2e-13 is too small: each edge takes" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("mode", ["vwdsg", "ddsg"])
@pytest.mark.parametrize("eps", ["1e-85", "1e-160", "1e-200"])
def test_eps_whose_powers_leave_the_float_range_exits_one(tmp_path, mode, eps):
    # eps**4, the duplication and eps**2 leave the float range in turn
    path = _write(tmp_path, f"h 3 {mode} {eps}\n+ 0 1\n?\n")
    for args in (["run", "--stream", path],
                 ["bench", "--mode", mode, "--n", "3", "--events", "2", "--eps", eps]):
        result = CliRunner().invoke(cli.main, args)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"error: eps {float(eps)} is too small" in result.output
        assert "Traceback" not in result.output


def test_run_determinism_bytes(tmp_path):
    path = _write(
        tmp_path, stream.random_stream_text(5, "ddsg", 0.3, 30, seed=7, query_every=10)
    )
    r1 = CliRunner().invoke(cli.main, ["run", "--stream", path])
    r2 = CliRunner().invoke(cli.main, ["run", "--stream", path])
    assert r1.output == r2.output


def test_verify_clean_exits_zero(tmp_path):
    path = _write(tmp_path, "h 2 ddsg 0.2\n+ 0 1\n?\n")
    result = CliRunner().invoke(cli.main, ["verify", "--stream", path])
    assert result.exit_code == 0
    summary = json.loads(result.output.strip().split("\n")[-1])
    assert summary["ok"] is True


def test_verify_failure_exits_two(tmp_path, monkeypatch):
    path = _write(tmp_path, "h 2 ddsg 0.2\n+ 0 1\n?\n")

    def fake_verify(header, events, eps):
        return stream.VerifyReport(
            ok=False, queries=[], worst_ratio=0.5, violations=1, counters={}
        )

    monkeypatch.setattr(cli, "verify", fake_verify)
    result = CliRunner().invoke(cli.main, ["verify", "--stream", path])
    assert result.exit_code == 2


def test_verify_oversized_exits_one(tmp_path):
    path = _write(tmp_path, "h 100 ddsg 0.2\n?\n")
    result = CliRunner().invoke(cli.main, ["verify", "--stream", path])
    assert result.exit_code == 1


def test_bench_runs(tmp_path):
    result = CliRunner().invoke(
        cli.main,
        ["bench", "--n", "8", "--events", "40", "--mode", "vwdsg", "--seed", "2",
         "--query-every", "20", "--no-timings"],
    )
    assert result.exit_code == 0
    summary = json.loads(result.output.strip().split("\n")[-1])
    assert summary["type"] == "summary"
    assert summary["counters"]["inserts"] > 0


@pytest.mark.parametrize(
    "option, value",
    [("--n", "1"), ("--n", "0"), ("--events", "-3"), ("--query-every", "-2"),
     ("--eps", "nan"), ("--eps", "0"), ("--eps", "1.5")],
)
def test_bench_rejects_bad_options(option, value):
    result = CliRunner().invoke(cli.main, ["bench", "--events", "5", option, value])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert f"error: {option} must be" in result.output
    assert f"got {value}" in result.output
    assert "Traceback" not in result.output


def test_bench_smallest_options_run():
    result = CliRunner().invoke(
        cli.main, ["bench", "--n", "2", "--events", "0", "--no-timings"]
    )
    assert result.exit_code == 0
    assert json.loads(result.output.strip().split("\n")[-1])["type"] == "summary"


def test_oracle_command(tmp_path):
    path = _write(tmp_path, "h 3 ddsg 0.2\n+ 0 1\n?\n")
    result = CliRunner().invoke(cli.main, ["oracle", "--stream", path])
    assert result.exit_code == 0
    record = json.loads(result.output.strip().split("\n")[0])
    assert record["optimum"] == 1.0


def test_env_var_override(tmp_path):
    path = _write(tmp_path, "h 3 ddsg 0.2\n+ 0 1\n?\n")
    result = CliRunner().invoke(
        cli.main, ["run"], env={"DENSEDYN_RUN_STREAM": path}
    )
    assert result.exit_code == 0


def test_missing_stream_file(tmp_path):
    result = CliRunner().invoke(cli.main, ["run", "--stream", str(tmp_path / "nope")])
    assert result.exit_code == 1
