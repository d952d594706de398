"""README's Library section is the package's public surface: every name in
``__all__`` is named there, and its example prints what its comments say."""

import re

import pytest

import repetend
from readme_example import README, example, library_section, printed_and_promised
from repetend import rational


def _documented() -> set[str]:
    """The identifiers in the Library section's code: its inline spans and
    its example."""
    readme = README.read_text()
    prose = re.sub(r"```.*?```", "", library_section(readme), flags=re.S)
    code = " ".join(re.findall(r"`([^`]+)`", prose)) + example(readme)
    return set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", code))


@pytest.mark.parametrize("module", [repetend, rational], ids=lambda m: m.__name__)
def test_every_public_name_resolves_and_is_documented(module):
    documented = _documented()
    for name in module.__all__:
        assert hasattr(module, name), f"{module.__name__}.{name} does not resolve"
        assert name in documented, f"{module.__name__}.{name} is not named in README's Library"


def test_library_example_prints_its_comments():
    for printed, promised in printed_and_promised(example(README.read_text())):
        assert printed == promised
