"""The README's library quick start runs against the package as documented."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start() -> str:
    """The first ``python`` block under the "Library quick start" heading."""
    text = README.read_text()
    section = text[text.index("## Library quick start") :]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_quick_start_runs_with_the_commented_shapes():
    namespace = {}
    exec(compile(_quick_start(), str(README), "exec"), namespace)
    bank = namespace["bank"]
    assert namespace["reduced"].shape == (2, 3, 32, 32)
    assert namespace["grads"].shape == bank.table.shape == (3, 1, 4)
    assert namespace["reg_grads"].shape == (3, 1, 4)
