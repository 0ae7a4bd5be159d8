"""The README's Python examples run as written."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    """Every fenced python block, in order, in one namespace."""
    blocks = re.findall(r"^```python\n(.*?)^```$",
                        README.read_text(encoding="utf-8"), re.S | re.M)
    assert len(blocks) >= 2
    namespace = {"__name__": "readme"}
    for i, block in enumerate(blocks):
        exec(compile(block, f"{README.name} python block {i + 1}", "exec"), namespace)
