"""The README's library example runs as written."""
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_library_use_example_runs():
    section = README.read_text().split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None, "README '## Library use' has no python block"
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(block.group(1), f"{README}:Library use", "exec"), {})
    assert '"rescue_success": true' in out.getvalue()
