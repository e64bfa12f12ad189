"""README examples that must keep running against the current API."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from pqstream.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(heading: str, language: str = "python") -> str:
    """The first fenced ``language`` block under the ``## heading`` section."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    match = re.search(rf"```{language}\n(.*?)```", section, re.DOTALL)
    assert match, f"no {language} block under '## {heading}'"
    return match.group(1)


def test_readme_library_use_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(compile(readme_block("Library use"), str(README), "exec"), {"__name__": "__readme__"})
    out = capsys.readouterr().out
    assert "files ingested: 5" in out
    assert "files malformed: 0" in out
    assert (tmp_path / "pq.db").is_file()
    assert len(list((tmp_path / "transfer" / "MP1" / "Sag").glob("raw_*.pqz"))) == 1


def test_readme_cli_walkthrough_runs(tmp_path, monkeypatch, capsys):
    # the shell lines that are not pqstream calls write its two input files
    monkeypatch.chdir(tmp_path)
    block = readme_block("CLI walkthrough", "sh")
    heredoc = re.search(r"^cat > (\S+) <<'EOF'\n(.*?\n)EOF\n", block, re.DOTALL | re.MULTILINE)
    Path(heredoc[1]).write_text(heredoc[2], encoding="utf-8")
    echo = re.search(r'^echo "(.*)" > (\S+)$', block, re.MULTILINE)
    Path(echo[2]).write_text(echo[1] + "\n", encoding="utf-8")
    commands = [
        shlex.split(line, comments=True)
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("pqstream ")
    ]
    assert len(commands) == 9
    for argv in commands:
        assert main(argv[1:]) == 0, shlex.join(argv)
    out = capsys.readouterr().out
    assert "files ingested: 5" in out
    assert "Urban Only" in out and "sum_sag_count" in out
    assert (tmp_path / "events.svg").is_file()
    extracted = tmp_path / "extracted" / "raw_MP1_1.csv"
    assert len(extracted.read_text().splitlines()) == 1 + int(1.4 * 3200)
