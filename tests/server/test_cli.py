"""The ``repro serve`` / ``repro submit`` CLI pair."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro import cli
from repro.server.service import ServerConfig, start_in_thread

pytestmark = pytest.mark.noskip


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    handle = start_in_thread(ServerConfig(
        shards=1, workers=2, queue_depth=8,
        artifact_dir=str(tmp_path_factory.mktemp("artifacts"))))
    yield handle
    handle.stop()


def submit(server, *extra):
    host, port = server.address
    return ["submit", *extra, "--host", host, "--port", str(port)]


class TestSubmitCli:
    def test_bench(self, server, capsys):
        assert cli.main(submit(server, "bench", "--spin-ms", "1",
                               "--tag", "cli")) == 0
        out = capsys.readouterr().out
        assert "bench done in" in out

    def test_campaign_prints_outcomes(self, server, capsys):
        assert cli.main(submit(server, "campaign", "--workload",
                               "vectoradd", "--injections", "2",
                               "--seed", "4")) == 0
        out = capsys.readouterr().out
        assert "campaign done in" in out
        assert ":" in out.splitlines()[-1]  # an outcome line

    def test_json_output_is_the_result_record(self, server, capsys):
        assert cli.main(submit(server, "bench", "--spin-ms", "0",
                               "--tag", "js", "--json")) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["state"] == "done"
        assert record["result"]["tag"] == "js"

    def test_capture_then_replay_artifact(self, server, capsys):
        assert cli.main(submit(server, "capture", "--workload",
                               "vectoradd", "--json")) == 0
        captured = json.loads(capsys.readouterr().out)
        assert cli.main(submit(server, "replay", "--artifact",
                               captured["job_id"], "--analysis",
                               "opcodes,timing")) == 0
        out = capsys.readouterr().out
        assert "[timing]" in out

    def test_no_wait_prints_job_id(self, server, capsys):
        assert cli.main(submit(server, "bench", "--spin-ms", "0",
                               "--no-wait")) == 0
        job_id = capsys.readouterr().out.strip()
        assert job_id.startswith("j")

    def test_bad_job_is_cli_error(self, server, capsys):
        code = cli.main(submit(server, "campaign", "--workload",
                               "not-a-workload"))
        assert code == 2
        assert "repro:" in capsys.readouterr().err

    def test_unreachable_server_is_cli_error(self, capsys):
        code = cli.main(["submit", "bench", "--port", "1",
                         "--host", "127.0.0.1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "repro:" in err


class TestServeCli:
    def test_serve_announces_and_serves(self, tmp_path):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--workers", "1",
             "--artifact-dir", str(tmp_path / "artifacts")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONUNBUFFERED": "1"})
        try:
            line = proc.stdout.readline()
            assert "repro-server listening on" in line
            host, port = line.strip().rsplit(" ", 1)[-1].split(":")

            from repro.server.client import ServerClient

            client = ServerClient(host, int(port), timeout=60)
            record = client.submit_and_wait("bench", spin_ms=1,
                                            tag="subproc")
            assert record["result"]["tag"] == "subproc"
            client.shutdown()
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
