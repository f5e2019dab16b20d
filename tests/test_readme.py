"""The README's library sketch runs as written, so the documented API cannot
drift from the package."""

import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def test_library_sketch_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        flags=re.DOTALL | re.MULTILINE)
    assert blocks, "README has no python block"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
