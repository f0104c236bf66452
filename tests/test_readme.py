"""The README's library quick tour, CLI transcripts and namespace hold as written."""

from __future__ import annotations

import doctest
import pkgutil
import re
import shlex
from pathlib import Path

import qrac
from qrac.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

#: Commands the README shows but leaves to the reader to supply input for.
NOT_RUNNABLE = ("--circles circles.json",)


def test_readme_examples():
    failures, attempted = doctest.testfile(str(README), module_relative=False)
    assert attempted > 0
    assert failures == 0


def readme_transcripts() -> list[tuple[list[str], list[str]]]:
    """Every `$ qrac ...` line in the README's sh blocks, with the output lines shown under it."""
    transcripts: list[tuple[list[str], list[str]]] = []
    in_block, shown = False, None
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_block, shown = line == "```sh", None
        elif in_block and line.startswith("$ "):
            argv = shlex.split(line[2:], comments=True)
            shown = [] if argv[0] == "qrac" else None
            if shown is not None:
                transcripts.append((argv[1:], shown))
        elif shown is not None:
            shown.append(line)
    return transcripts


def test_readme_cli_transcripts(tmp_path, monkeypatch, capsys):
    # commands run in README order: later ones read the files earlier ones write
    monkeypatch.chdir(tmp_path)
    transcripts = readme_transcripts()
    checked = 0
    for argv, shown in transcripts:
        command = " ".join(argv)
        if any(skip in command for skip in NOT_RUNNABLE):
            continue
        assert main(argv) == 0, command
        out = capsys.readouterr().out
        while shown and not shown[-1]:
            shown.pop()
        if shown:
            assert out.splitlines() == shown, command
            checked += 1
    assert checked == 11
    assert (tmp_path / "sym4.json").exists() and (tmp_path / "geo.json").exists()


def test_namespace_is_the_documented_surface():
    # qrac.<name> as the README and the benchmark scripts use it, submodules aside
    reached: set[str] = set()
    for path in (README, *sorted((ROOT / "perfbench").glob("*.py"))):
        reached.update(re.findall(r"\bqrac\.([A-Za-z_]\w*)", path.read_text(encoding="utf-8")))
    documented = reached - {module.name for module in pkgutil.iter_modules(qrac.__path__)}
    assert len(qrac.__all__) == len(set(qrac.__all__))
    assert set(qrac.__all__) == documented
    namespace: dict = {}
    exec("from qrac import *", namespace)
    assert set(namespace) - {"__builtins__"} == documented
