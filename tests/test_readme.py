"""The examples of README.md, run as written.

The ``$ clusterwp …`` session is replayed through ``cli.main`` in a
temporary directory (``> file`` writes the command's stdout there), the
``## Library`` block is executed, and the seed, form and point examples
of ``## File formats`` are parsed and emitted.
"""

import re
import shlex
from pathlib import Path

from clusterwp.catalog import catalog
from clusterwp.cli import _emit_point, main
from clusterwp.forms import emit_form_file, parse_form_file
from clusterwp.regularity import AlgebraPoint, parse_point_file
from clusterwp.seeds import emit_seed_file, parse_seed_file

README = (Path(__file__).parent.parent / "README.md").read_text()


def blocks(section):
    """The fenced code blocks of a ``## `` section, as (info, text)."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```(\w*)\n(.*?)^```$", body, re.M | re.S)


def test_session_replays(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (session,) = [text for info, text in blocks("Command line") if info == "sh"]
    steps = []
    for line in session.splitlines():
        if line.startswith("$ "):
            command, _, target = line[2:].partition(" > ")
            argv = shlex.split(command)
            assert argv[0] == "clusterwp"
            steps.append((argv[1:], target, []))
        else:
            steps[-1][2].append(line)
    assert len(steps) == 6
    for argv, target, expected in steps:
        main(argv)
        out, err = capsys.readouterr()
        assert err == ""
        if target:
            (tmp_path / target).write_text(out)
            assert expected == []
        else:
            assert out.splitlines() == expected, argv


def test_library_block_runs():
    (code,) = [text for info, text in blocks("Library") if info == "python"]
    exec(compile(code, "README.md", "exec"), {})


def test_file_format_examples_round_trip():
    seed_text, form_text, point_text = [
        text for info, text in blocks("File formats") if info == ""]
    # seed and point examples are canonical already
    seed = parse_seed_file(seed_text)
    assert emit_seed_file(seed) == seed_text
    point = AlgebraPoint(parse_point_file(point_text))
    assert _emit_point(point) == point_text
    # the form example is written by hand, (c1*c2 + 1)/x: it emits as the
    # catalog's regular sl2 form, and emit . parse . emit is the identity
    emitted = emit_form_file(parse_form_file(form_text, seed))
    assert emitted == emit_form_file(catalog("sl2").forms["regular"])
    assert emit_form_file(parse_form_file(emitted, seed)) == emitted
