"""The README's CLI walkthrough runs as written, every option it names
exists, and it names every option the CLI accepts."""

import json
import re
import shlex
import warnings
from pathlib import Path

import pytest

from xampus.cli import build_parser, main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
FENCED = re.compile(r"```(\w*)\n(.*?)```", re.S)


def walkthrough():
    """(scene JSON text, argv of each ``xampus`` command) of the README."""
    blocks = FENCED.findall(README)
    scene = next(body for lang, body in blocks if lang == "json")
    commands = []
    for lang, body in blocks:
        if lang != "sh":
            continue
        for cmd in body.replace("\\\n", " ").splitlines():
            argv = shlex.split(cmd, comments=True)
            if argv[:1] == ["xampus"]:
                commands.append(argv[1:])
    return scene, commands


def subcommand_options(capsys):
    """Each subcommand's option strings, read from its ``--help``."""
    options = {}
    for command in ("simulate", "beamform", "xample", "cost", "compare"):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--help"])
        options[command] = set(re.findall(r"(?<![\w-])--[a-zA-Z][\w-]*",
                                          capsys.readouterr().out))
    return options


def test_walkthrough_commands_succeed(tmp_path, monkeypatch):
    scene, commands = walkthrough()
    json.loads(scene)
    assert [argv[0] for argv in commands] == [
        "simulate", "beamform", "xample", "xample", "cost", "compare"]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "scene.json").write_text(scene)
    # a successful run, noisy lines included, raises no warning: each
    # line's misfit is in the residual column of estimates.csv
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for argv in commands:
            assert main(argv) == 0, argv
    assert [str(w.message) for w in caught] == []


def test_every_documented_option_is_accepted(capsys):
    options = subcommand_options(capsys)
    _, commands = walkthrough()
    for argv in commands:
        for arg in argv[1:]:
            if arg.startswith("--"):
                assert arg in options[argv[0]], (argv[0], arg)
    # options named in the prose, outside the code blocks
    prose = FENCED.sub("", README)
    named = set(re.findall(r"`(--[a-zA-Z][\w-]*)", prose))
    assert "--sv-threshold" in named
    known = set().union(*options.values())
    assert named <= known, sorted(named - known)


def test_every_accepted_option_is_documented(capsys):
    options = subcommand_options(capsys)
    accepted = set().union(*options.values()) - {"--help"}
    named = set(re.findall(r"(?<![\w-])--[a-zA-Z][\w-]*", README))
    assert accepted <= named, sorted(accepted - named)
