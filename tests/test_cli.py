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


@pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
def test_run_non_finite_weight_exits_one(tmp_path, weight):
    path = _write(tmp_path, f"h 3 vwdsg 0.2\nw 0 {weight}\n+ 0 1\n?\n")
    result = CliRunner().invoke(cli.main, ["run", "--stream", path])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # not an uncaught error
    assert "line 2" in result.output
    assert "Traceback" not in result.output


def test_run_engine_error_exits_one(tmp_path):
    path = _write(tmp_path, "h 3 ddsg 0.2\n- 0 1\n")
    result = CliRunner().invoke(cli.main, ["run", "--stream", path])
    assert result.exit_code == 1
    assert "event 0" in result.output


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
