"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.kernelir.ptxtext import emit_ptx

from tests.conftest import build_vecadd


@pytest.fixture
def ptx_file(tmp_path):
    path = tmp_path / "vecadd.ptx"
    path.write_text(emit_ptx(build_vecadd()))
    return str(path)


class TestCompile:
    def test_compile_prints_sass(self, ptx_file, capsys):
        assert main(["compile", ptx_file]) == 0
        out = capsys.readouterr().out
        assert ".kernel vecadd" in out and "EXIT" in out

    def test_compile_with_sassi_flags(self, ptx_file, capsys):
        assert main(["compile", ptx_file,
                     "--sassi",
                     "-sassi-inst-before=memory "
                     "-sassi-before-args=mem-info"]) == 0
        captured = capsys.readouterr()
        assert "JCAL" in captured.out
        assert "before-sites" in captured.err

    def test_compile_to_file(self, ptx_file, tmp_path, capsys):
        out_path = tmp_path / "out.sass"
        assert main(["compile", ptx_file, "-o", str(out_path)]) == 0
        assert "STG" in out_path.read_text()

    def test_disasm(self, ptx_file, capsys):
        assert main(["disasm", ptx_file]) == 0
        assert "LDG" in capsys.readouterr().out


class TestWorkloads:
    def test_list(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "parboil/bfs(NY)" in out and "miniFE(CSR)" in out

    def test_run_one(self, capsys):
        assert main(["workloads", "--run", "rodinia/nn"]) == 0
        out = capsys.readouterr().out
        assert "rodinia/nn" in out and "ok" in out


class TestStudy:
    def test_unknown_study_rejected(self):
        with pytest.raises(SystemExit):
            main(["study", "table99"])


class TestLazyParsers:
    """``main`` builds only the subcommand its argv names; help, usage
    and command output stay those of the full parser tree."""

    def test_help_lists_every_subcommand(self, capsys):
        from repro.cli import _COMMANDS

        with pytest.raises(SystemExit) as exit_:
            main(["--help"])
        assert exit_.value.code == 0
        out = capsys.readouterr().out
        assert "{" + ",".join(_COMMANDS) + "}" in out
        listed = [line.split()[0] for line in out.splitlines()
                  if line.startswith("    ") and line.split()[0] in _COMMANDS]
        assert listed == list(_COMMANDS)

    def test_trace_query_count_matches_full_tree(self, tmp_path, capsys):
        import argparse

        from repro.cli import _COMMANDS, _add_commands
        from repro.trace.capture import capture_workload

        path = str(tmp_path / "vecadd.rptrace")
        capture_workload("vectoradd", path)
        argv = ["trace", "query", path, "--count"]
        assert main(argv) == 0
        lazy = capsys.readouterr()
        full = argparse.ArgumentParser(prog="repro")
        _add_commands(full, _COMMANDS, "command", [])
        args = full.parse_args(argv)
        assert args.fn(args) == 0
        assert capsys.readouterr() == lazy
        assert " hits " in lazy.out
