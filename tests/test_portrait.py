"""The streamed portrait writer: byte for byte the in-memory renderer it
replaced (`portrait_oracle`), memory that does not grow with the depth, and
refusals that write nothing."""

import tracemalloc

import pytest

from arboreal import catalog as cat
from arboreal.cli import main
from arboreal.core import portrait_text
from arboreal.hnn import theta_portrait

import portrait_oracle

# the deepest level drawn has at most this many vertices: depths 0..8 on the
# binary trees, 0..5 on gs3, 0..3 on gs5 and 0..2 on gs7
ORACLE_POINTS = 256
WINDOWS = ((0, 0), (1, 2), (3, -3), (2, 2))


def _streamed(entry, element, fmt, labels, depth=3, theta=None):
    candidates = dict(entry.elements()) if labels else None
    if theta is None:
        return "".join(portrait_text(element, depth, fmt, candidates))
    up, down = theta
    top = theta_portrait(element, entry.action(), up, down)
    return "".join(portrait_text(top, up + down, fmt, candidates, copy=up))


@pytest.mark.parametrize("labels", [False, True])
@pytest.mark.parametrize("fmt", ["dot", "json"])
@pytest.mark.parametrize("group", sorted(cat.catalog()))
def test_streamed_portrait_matches_oracle(group, fmt, labels):
    entry = cat.get(group)
    d = entry.automaton.size
    for name in (*entry.generators, "1", "*".join(entry.generators)):
        element = entry.element(name)
        for depth in range(9):
            if d ** depth > ORACLE_POINTS:
                break
            want = portrait_oracle.render(entry, element, fmt, labels, depth)
            assert _streamed(entry, element, fmt, labels, depth) == want, (name, depth)
        for window in WINDOWS if entry.default_sigma is not None else ():
            want = portrait_oracle.render(entry, element, fmt, labels, theta=window)
            assert _streamed(entry, element, fmt, labels, theta=window) == want, (name, window)


@pytest.mark.parametrize("fmt", ["dot", "json"])
def test_streamed_portrait_memory_does_not_grow_with_depth(fmt):
    # 2^17 - 1 vertices; the in-memory renderer peaked at 92 MB (DOT) and 199 MB (JSON)
    entry = cat.get("grigorchuk")
    pieces = portrait_text(entry.element("a*b"), 16, fmt, dict(entry.elements()))
    tracemalloc.start()
    try:
        written = sum(map(len, pieces))     # a sink that counts and discards
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert written > 80 * (1 << 17)
    assert peak < 4 << 20


@pytest.mark.parametrize("fmt", ["dot", "json"])
@pytest.mark.parametrize("window", [["--depth", "21"], ["--theta", "--down", "0", "--up", "21"]])
def test_cli_portrait_refusal_writes_nothing(capsys, tmp_path, fmt, window):
    path = tmp_path / "portrait.out"
    argv = ["portrait", "--group", "grigorchuk", "--element", "a", *window, "--format", fmt]
    for output in ([], ["-o", str(path)]):
        assert main(argv + output) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "2^21 points exceed the limit" in captured.err
    assert not path.exists()


@pytest.mark.parametrize("fmt", ["dot", "json"])
@pytest.mark.parametrize("window", [["--depth", "5"], ["--theta", "--up", "2", "--down", "3"]])
def test_cli_portrait_output_file_matches_stdout(capsys, tmp_path, fmt, window):
    entry = cat.get("basilica")
    path = tmp_path / "portrait.out"
    argv = ["portrait", "--group", "basilica", "--element", "a*b", "--labels", *window,
            "--format", fmt]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert main(argv + ["-o", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == out.encode()
    theta = (2, 3) if "--theta" in window else None
    assert out == portrait_oracle.render(entry, entry.element("a*b"), fmt, True, 5, theta)
