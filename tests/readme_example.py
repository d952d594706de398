"""Run README's Library example and check that each ``print`` line prints
what its comment says.

    python tests/readme_example.py [README.md]

Run from outside the checkout, it runs against the installed package.
Prints each line as ``ok`` or ``MISMATCH`` and exits 1 on a mismatch.
"""

from __future__ import annotations

import contextlib
import io
import re
import sys
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_section(text: str) -> str:
    """README's "## Library" section, up to the next heading of its level."""
    return text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def example(text: str) -> str:
    return re.search(r"```python\n(.*?)```", library_section(text), re.S).group(1)


def printed_and_promised(code: str) -> list[tuple[str, str]]:
    """(printed, promised) per print line: what it printed, and its comment."""
    lines = [line for line in code.splitlines() if line.startswith("print(")]
    promised = [line.split("# ", 1)[1].strip() for line in lines]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {"__name__": "readme_example"})
    printed = out.getvalue().splitlines()
    if len(printed) != len(promised):
        raise AssertionError(f"{len(printed)} lines printed for {len(promised)} print lines")
    return list(zip(printed, promised))


def main(argv: list[str]) -> int:
    import repetend

    readme = Path(argv[0]) if argv else README
    print(f"repetend from {Path(repetend.__file__).parent}")
    pairs = printed_and_promised(example(readme.read_text()))
    for printed, promised in pairs:
        print(f"{'ok' if printed == promised else 'MISMATCH'}: {printed!r} (README: {promised!r})")
    return int(any(printed != promised for printed, promised in pairs))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
