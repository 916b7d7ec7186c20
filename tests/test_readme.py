"""The README's Library example runs as documented, and the package exports its names."""

from __future__ import annotations

import contextlib
import io
import re
import types
from pathlib import Path

import surdlab

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_section() -> tuple[str, str]:
    """The example's code and the prose after it, from the README."""
    section = README.read_text(encoding="utf-8").split("## Library example\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    code, prose = re.fullmatch(r"\s*```python\n(.*?)```(.*)", section, re.S).groups()
    return code, prose


def test_readme_library_example_prints_its_comments():
    code, _ = _library_section()
    # Each print is followed by one comment: the printed line, then an
    # optional explanation after two or more spaces.
    expected = [re.split(r"\s{2,}", line[len("# "):])[0]
                for line in code.splitlines() if line.startswith("# ")]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        exec(compile(code, str(README), "exec"), {})
    assert stdout.getvalue().splitlines() == expected


def test_package_exports_exactly_the_readme_names():
    code, prose = _library_section()
    imported = re.search(r"from surdlab import \((.*?)\)", code, re.S).group(1)
    documented = {name.strip() for name in imported.split(",") if name.strip()}
    # Functions the prose names in backticks, as `name` or `name(D)`.
    documented |= {m.group(1) for span in re.findall(r"`([^`]*)`", prose)
                   if (m := re.fullmatch(r"([a-z_]+)(?:\(D\))?", span))}
    exported = {name for name in dir(surdlab)
                if not name.startswith("__")
                and not isinstance(getattr(surdlab, name), types.ModuleType)}
    assert exported == documented
