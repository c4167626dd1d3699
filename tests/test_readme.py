"""The README's library example runs against the public API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_tour_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["result"].specification == "upper:all_three_rda"
