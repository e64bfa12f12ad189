"""README examples that must keep running against the current API."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(heading: str) -> str:
    """The first ```python block under the ``## heading`` section."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, f"no python block under '## {heading}'"
    return match.group(1)


def test_readme_library_use_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(compile(readme_block("Library use"), str(README), "exec"), {"__name__": "__readme__"})
    out = capsys.readouterr().out
    assert "files ingested: 5" in out
    assert "files malformed: 0" in out
    assert (tmp_path / "pq.db").is_file()
    assert len(list((tmp_path / "transfer" / "MP1" / "Sag").glob("raw_*.pqz"))) == 1
