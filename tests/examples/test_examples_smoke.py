"""Every example CLI must run clean under ``--smoke`` and fail loudly
on unknown flags.

Until this suite existed, nine examples had no argument parsing at
all: ``python examples/quickstart.py --bogus-flag`` silently ignored
the flag and exited 0, so a typo'd CI invocation "passed" while
running something other than what was asked.  Now every example parses
argv strictly (unknown flags exit with argparse's status 2) and
exposes ``--smoke``, and this suite pins both properties for the whole
directory — including examples added later, via the filesystem glob.

Marked ``examples``: deselect with ``-m 'not examples'`` for a faster
inner loop; CI runs them.
"""

import os
import subprocess
import sys

import pytest

REPO = os.path.normpath(
    os.path.join(os.path.dirname(__file__), "..", ".."))
EXAMPLES_DIR = os.path.join(REPO, "examples")
SRC = os.path.join(REPO, "src")

EXAMPLES = sorted(
    name for name in os.listdir(EXAMPLES_DIR)
    if name.endswith(".py")
)

pytestmark = pytest.mark.examples


def _run(name, *argv, timeout=240):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return subprocess.run(
        [sys.executable, os.path.join(EXAMPLES_DIR, name), *argv],
        capture_output=True, text=True, env=env, timeout=timeout,
        cwd=EXAMPLES_DIR,
    )


def test_every_example_is_covered():
    # the glob above feeds the parametrized tests; this guards against
    # an empty directory silently passing the suite
    assert len(EXAMPLES) >= 12
    assert "design_explore.py" in EXAMPLES


@pytest.mark.slow  # subprocess per example: the smoke lane skips
@pytest.mark.parametrize("name", EXAMPLES)
def test_smoke_runs_clean(name, tmp_path):
    extra = []
    if name == "design_explore.py":
        extra = ["--store", str(tmp_path / "dse.sqlite")]
    proc = _run(name, "--smoke", *extra)
    assert proc.returncode == 0, (
        f"{name} --smoke exited {proc.returncode}\n"
        f"stdout:\n{proc.stdout}\nstderr:\n{proc.stderr}"
    )


@pytest.mark.parametrize("name", EXAMPLES)
def test_unknown_flag_fails_loudly(name):
    proc = _run(name, "--definitely-not-a-real-flag")
    assert proc.returncode != 0, (
        f"{name} accepted an unknown flag and exited 0 — argv is "
        f"being ignored\nstdout:\n{proc.stdout}"
    )
    assert "--definitely-not-a-real-flag" in proc.stderr


@pytest.mark.parametrize("name", EXAMPLES)
def test_help_exits_zero(name):
    proc = _run(name, "--help")
    assert proc.returncode == 0, proc.stderr
    assert "--smoke" in proc.stdout
