"""The README's library example runs as written and prints the lines it shows."""

import contextlib
import io
import re
import warnings
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The code block under ``## Library example``, extracted as CI extracts it."""
    readme = README.read_text()
    return re.search(r"^## Library example\n\n```python\n(.*?)^```", readme, re.S | re.M).group(1)


def test_library_example_prints_its_four_lines():
    out = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out):
        warnings.simplefilter("error")
        exec(compile(library_example(), str(README), "exec"), {"__name__": "__readme__"})
    assert out.getvalue().splitlines() == [
        "t=0.00 ps  |u|^2=1.0000  E=0.5997",
        "t=0.10 ps  |u|^2=0.3061  E=0.0352",
        "t=0.20 ps  |u|^2=0.0376  E=0.0004",
        "t=0.30 ps  |u|^2=0.0008  E=0.0000",
    ]

