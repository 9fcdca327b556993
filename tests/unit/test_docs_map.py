"""DESIGN.md's module map (§6) names exactly the files under src/repro/.

The map is the fenced block under the ``## 6.`` heading.  A line's
leading ``*.py`` tokens are files; a line whose first token ends in
``/`` is a package and stands for its ``__init__.py``; indentation
nests both under the closest shallower package line.  Wrapped
descriptions are indented past the name column and name no file.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
FILE = re.compile(r"^\w+\.py,?$")


def module_map() -> str:
    text = (ROOT / "DESIGN.md").read_text()
    section = text[text.index("\n## 6."):]
    section = section[:section.index("\n## ", 1)]
    return section.split("```")[1]


def mapped_files(block: str) -> set[str]:
    lines = [ln for ln in block.splitlines() if ln.strip()]
    assert lines[0] == "src/repro/", lines[0]
    files: set[str] = set()
    stack: list[tuple[int, str]] = []   # (indent, package path)
    for line in lines[1:]:
        indent = len(line) - len(line.lstrip())
        while stack and stack[-1][0] >= indent:
            stack.pop()
        prefix = "".join(pkg for _, pkg in stack)
        tokens = line.split()
        if tokens[0].endswith("/"):
            stack.append((indent, tokens[0]))
            files.add(f"{prefix}{tokens[0]}__init__.py")
            continue
        for tok in tokens:
            if not FILE.match(tok):
                break
            files.add(prefix + tok.rstrip(","))
    return files


def disk_files() -> set[str]:
    return {p.relative_to(SRC).as_posix() for p in SRC.rglob("*.py")}


class TestModuleMap:
    def test_the_map_names_exactly_the_files_on_disk(self):
        mapped, disk = mapped_files(module_map()), disk_files()
        assert not mapped - disk, f"mapped, not on disk: {mapped - disk}"
        assert not disk - mapped, f"on disk, not mapped: {disk - mapped}"
