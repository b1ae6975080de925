import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_minimal_session_prints_a_finite_distance(capsys):
    # the documented entry point, run as written
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"A minimal session:\n\n```python\n(.*?)```", text, flags=re.S)
    exec(compile(block, str(README), "exec"), {"__name__": "readme_example"})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 1
    assert math.isfinite(float(printed[0]))
