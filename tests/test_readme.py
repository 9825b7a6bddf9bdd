"""The README's library example runs as written against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    block = re.search(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert block, "README.md has no python example"
    exec(compile(block.group(1), "README.md", "exec"), {})
