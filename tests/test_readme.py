"""The README's Python example and command-line transcript run as shown."""

import pathlib
import re
import shlex

from convexspectra import cli, geometry
from conftest import write_body

README = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()


def _blocks(lang: str) -> list[str]:
    """Bodies of the fenced blocks tagged `lang` ("" for untagged), in order."""
    fenced = re.findall(r"^```(\w*)\n(.*?)^```$", README, flags=re.S | re.M)
    return [body for tag, body in fenced if tag == lang]


def test_python_example_runs_and_prints_the_shown_certificate(capsys):
    (code,) = _blocks("python")
    scope = {}
    exec(code, scope)
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2
    complex(printed[0])  # the transform value, printed as a complex number
    assert printed[1].startswith("fan_pigeonhole 1.2071")
    assert not scope["verdict"].spectral and scope["verdict"].reason == "polygon_n_ge_4"


def test_cli_transcript_prints_the_shown_lines(tmp_path, monkeypatch, capsys):
    (square,) = [line for line in _blocks("json")[0].splitlines() if '"polygon"' in line]
    (tmp_path / "square.json").write_text(square)
    write_body(tmp_path / "octagon.json", geometry.regular_polygon(8))
    monkeypatch.chdir(tmp_path)
    (transcript,) = [b for b in _blocks("") if b.startswith("$ convexspectra")]
    runs = re.findall(r"^\$ convexspectra (.*)\n((?:[^$].*\n)*)", transcript, flags=re.M)
    assert len(runs) == 3
    for command, shown in runs:
        cli.main(shlex.split(command))
        assert capsys.readouterr().out == shown, command
