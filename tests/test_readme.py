"""The README's examples, run as written: each `$ owc ...` line that shows output, and the Library snippet."""

import shlex
from pathlib import Path

from owc.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(lang):
    """The bodies of the README's fenced code blocks in ``lang``, as lists of lines."""
    blocks, body = [], None
    for line in README.read_text().splitlines():
        if body is None and line == f"```{lang}":
            body = []
        elif body is not None and line == "```":
            blocks.append(body)
            body = None
        elif body is not None:
            body.append(line)
    return blocks


def _cli_examples():
    """(command, expected stdout) for each `$ owc` line followed by output lines."""
    examples = []
    for body in _blocks("sh"):
        for i, line in enumerate(body):
            if not line.startswith("$ owc "):
                continue
            output = []
            for follow in body[i + 1:]:
                if follow.startswith("$ "):
                    break
                if not follow.startswith("#"):
                    output.append(follow + "\n")
            if output:
                examples.append((line[2:], "".join(output)))
    return examples


def test_readme_cli_examples_print_what_the_readme_shows(capsys):
    examples = _cli_examples()
    assert [cmd for cmd, _ in examples] == [
        "owc compute --family cycle:4",
        "owc compute --family path:3 --invariant gamma",
        "owc compute --family star:3 --invariant script-p",
        "owc check strong-kn --left path:3 --n 2",
    ]
    for cmd, expected in examples:
        main(shlex.split(cmd)[1:])
        assert capsys.readouterr().out == expected, cmd


def test_readme_library_snippet():
    (snippet,) = [body for body in _blocks("python") if any("from owc import" in line for line in body)]
    scope = {}
    exec("\n".join(snippet), scope)
    r, report = scope["r"], scope["report"]
    assert (r.value, str(r.witness)) == (3, "{0,1,2}")
    assert report.verdict == "FAIL_LOWER"
