"""The README and ROADMAP stay in step with the package."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_module_table_lists_every_module():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## What's inside", 1)[1].split("\n## ", 1)[0]
    listed = set()
    for row in re.findall(r"^\| (`[^|]+`) \|", section, re.MULTILINE):
        listed.update(re.findall(r"`(\w+)`", row))
    modules = {p.stem for p in (ROOT / "src" / "sqlknow").glob("*.py")} - {"__init__"}
    assert listed == modules


# The "Decisions in force" of ROADMAP.md keep the package within the seed's lines.
PACKAGE_LINE_CAP = 5907


def test_the_package_stays_within_its_line_cap():
    lines = sum(p.read_bytes().count(b"\n") for p in (ROOT / "src" / "sqlknow").rglob("*.py"))
    assert lines <= PACKAGE_LINE_CAP
