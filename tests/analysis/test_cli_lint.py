"""The ``repro lint`` and ``repro run --sanitize`` commands."""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]
EXAMPLES_DIR = REPO_ROOT / "examples"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_lint_workload_clean(capsys):
    code, out = run_cli(capsys, "lint", "gzip")
    assert code == 0
    assert "0 error(s)" in out


def test_lint_default_covers_every_workload(capsys):
    from repro.workloads import all_names

    code, out = run_cli(capsys, "lint")
    assert code == 0
    assert f"linted {len(all_names())} target(s)" in out


def test_lint_examples_directory(capsys):
    code, out = run_cli(capsys, "lint", str(EXAMPLES_DIR))
    assert code == 0


def test_lint_json_output(capsys):
    code, out = run_cli(capsys, "lint", "gzip", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["errors"] == 0
    assert isinstance(data["diagnostics"], list)


def test_lint_broken_program_fails(capsys, tmp_path):
    bad = tmp_path / "broken.wsasm"
    bad.write_text("this is not assembly\n")
    code, out = run_cli(capsys, "lint", str(bad))
    assert code == 1
    assert "error[" in out


def test_lint_defective_graph_fails(capsys, tmp_path):
    # Assembles fine but an ADD input port is never fed: G001.
    bad = tmp_path / "halffed.wsasm"
    bad.write_text(
        ".program halffed\n"
        ".entry i0[0] t0 = 1\n"
        "i0: ADD -> i1[0]\n"
        "i1: OUTPUT\n"
    )
    code, out = run_cli(capsys, "lint", str(bad))
    assert code == 1
    assert "G001" in out


def test_lint_unknown_target_fails(capsys):
    code, out = run_cli(capsys, "lint", "nonexistent-thing")
    assert code == 1
    assert "A000" in out


def test_lint_check_config_flags_bad_config(capsys):
    code, out = run_cli(
        capsys, "lint", "gzip", "--check-config", "--matching", "512",
    )
    assert code == 1
    assert "C002" in out


def test_run_with_sanitizer(capsys):
    code, out = run_cli(
        capsys, "run", "-w", "mcf", "--scale", "tiny", "--sanitize",
    )
    assert code == 0
    assert "token ledger" in out


def test_resolving_a_suite_does_not_import_the_cli():
    """The library names its suites itself: linting one must not pull
    in the command-line layer (checked in a fresh interpreter, since
    this module imports the CLI)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    probe = (
        "import sys\n"
        "from repro.analysis.lint import resolve_targets\n"
        "assert len(resolve_targets(['spec'])) == 6\n"
        "print('repro.cli' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, cwd=REPO_ROOT,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
