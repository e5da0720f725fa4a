"""The fingerprint of tools/cli_identity.py's CLI runs against tests/cli_identity.txt.

A line that moves is a run whose payload, written CSVs, exit code or error
message changed. A declared change edits cli_identity.txt in its own diff,
and a run added to the tool appends its line. Like TestPinnedHistory's
digest, the hashes hold for one numpy/scipy version and platform: they
were recorded with numpy 2.4.6 and scipy 1.17.1 on x86-64 Linux.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _by_run(lines):
    return {line.split("  ", 1)[0]: line for line in lines}


def test_cli_runs_match_the_committed_fingerprint(tmp_path):
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "cli_identity.py"), str(ROOT / "src")],
                          cwd=tmp_path, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    want = (ROOT / "tests" / "cli_identity.txt").read_text().splitlines()
    got = proc.stdout.splitlines()
    want_runs, got_runs = _by_run(want), _by_run(got)
    names = dict.fromkeys([*want_runs, *got_runs])
    moved = [name for name in names if want_runs.get(name) != got_runs.get(name)]
    report = "".join(f"\n{name}:\n  committed {want_runs.get(name)}\n  now       {got_runs.get(name)}" for name in moved)
    assert not moved, f"{len(moved)} run(s) moved:{report}"
    assert got == want  # the same runs, in the same order
