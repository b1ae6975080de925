"""``tools/loc.py``, whose counts ROADMAP's line-count aim reports."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_loc_total_is_the_wc_count_and_code_is_fewer_lines():
    child = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "loc.py")], capture_output=True, text=True, timeout=120
    )
    assert child.returncode == 0, child.stderr
    total, code = map(int, child.stdout.splitlines()[-1].split()[:2])
    sources = sorted((ROOT / "src" / "gdmtopics").glob("*.py"))
    assert sources
    assert total == sum(path.read_bytes().count(b"\n") for path in sources)
    assert 0 < code < total
