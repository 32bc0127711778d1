"""Seeded mutations of small valid documents, run through the CLI in-process.

Every run must end in one of two ways: exit 0 with a JSON document that has
one edge per input edge, in either direction (cycle removal draws a reversed
edge the other way round and merges the two edges of a 2-cycle), or exit 2
with one stderr line naming an input stage. Exit 3 means the program failed
on input that it should have judged.
"""

from __future__ import annotations

import json
import random
import re
import sys

from oracles import cyclic_digraph_edges
from pathdraw import DiGraph, min_path_cover, remove_cycles
from pathdraw.cli import main

RUNS = 2000
INPUT_STAGES = {"read", "parse", "read-paths", "decomposition"}
# a larger declared count is accepted input whose arrays cost memory and time
MAX_VERTICES = 10**4
TOGGLES = ("--no-compact", "--no-bundle-transitive", "--no-bundle-cross", "--no-reorder")
STRAY_LINES = ("x", "1 2 3", "-1 2", "0 +1", "1  2", " ", "#", "0 1 # c", "3", "\t4 0")
# the interpreter's limit on the digits int() converts from a decimal string:
# 0 when it has none, and then no number is over-long
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
STRAY_TEXT = ("\r", "\t", "\ufeff", "\x00", "#", "-", "+", " ", "\n", "\u00b2", "\u0661", "9")


def _documents(rng: random.Random) -> tuple[str, str]:
    """A valid edge list and a valid path list for it."""
    n = rng.randint(0, 8)
    m = min(rng.randint(0, 3 * n), n * (n - 1))
    edges = cyclic_digraph_edges(n, m, rng.randrange(10**6))
    lines = [str(n)] + [f"{u} {v}" for u, v in edges]
    if rng.random() < 0.3:
        lines.insert(rng.randint(0, len(lines)), "# comment")
    if rng.random() < 0.5:
        paths = min_path_cover(remove_cycles(DiGraph.build(n, edges)).dag).paths
    else:
        paths = tuple((v,) for v in range(n))
    paths = list(paths)
    rng.shuffle(paths)
    path_lines = [" ".join(map(str, p)) for p in paths]
    return "\n".join(lines) + "\n", "\n".join(path_lines) + "\n"


def _long_number(rng: random.Random) -> str:
    size = rng.randint(DIGIT_LIMIT + 1, DIGIT_LIMIT + 100)
    digits = "".join(rng.choice("0123456789") for _ in range(size))
    return "0" * DIGIT_LIMIT + "1" if rng.random() < 0.3 else "1" + digits[1:]


def _mutate(text: str, rng: random.Random) -> str:
    for _ in range(rng.randint(1, 3)):
        at = rng.randint(0, len(text))
        kind = rng.randrange(7)
        if kind == 0:  # delete a span
            text = text[:at] + text[at + rng.randint(1, 4) :]
        elif kind == 1:  # truncate
            text = text[:at]
        elif kind == 2:  # a stray line
            lines = text.split("\n")
            lines.insert(rng.randint(0, len(lines)), rng.choice(STRAY_LINES))
            text = "\n".join(lines)
        elif kind == 3:  # a stray character
            text = text[:at] + rng.choice(STRAY_TEXT) + text[at:]
        elif kind == 4:  # a number replaced: out of range, self-loop or repeat
            numbers = list(re.finditer(r"\d+", text))
            if numbers:
                hit = rng.choice(numbers)
                text = text[: hit.start()] + str(rng.randint(0, 9)) + text[hit.end() :]
        elif kind == 5:  # a number replaced by one longer than int() converts
            numbers = list(re.finditer(r"\d+", text))
            if numbers and DIGIT_LIMIT:
                hit = rng.choice(numbers)
                text = text[: hit.start()] + _long_number(rng) + text[hit.end() :]
        else:  # a line repeated
            lines = text.split("\n")
            lines.insert(rng.randint(0, len(lines)), rng.choice(lines))
            text = "\n".join(lines)
    return text


def _declared_vertices(text: str) -> int | None:
    """The vertex count the parser would read, when it reads one."""
    for raw in text.split("\n"):
        line = raw.strip()
        if line and not line.startswith("#"):
            if line.isascii() and line.isdigit() and not 0 < DIGIT_LIMIT < len(line):
                return int(line)
            return None
    return None


def _input_pairs(text: str) -> set[frozenset[int]]:
    """The edges of an accepted edge list, each as an unordered pair."""
    lines = [raw.strip() for raw in text.split("\n")]
    body = [line for line in lines if line and not line.startswith("#")][1:]
    return {frozenset(map(int, line.split(" "))) for line in body}


def test_every_mutated_document_draws_or_exits_2(tmp_path, capsys):
    rng = random.Random(20261019)
    edge_file, path_file, out = tmp_path / "g.edges", tmp_path / "g.paths", tmp_path / "g.json"
    outcomes = {0: 0, 2: 0}
    over_long = 0
    for run in range(RUNS):
        edges, paths = _documents(rng)
        with_paths = rng.random() < 0.3
        if with_paths and rng.random() < 0.7:
            paths = _mutate(paths, rng)
        elif not with_paths or rng.random() < 0.5:
            edges = _mutate(edges, rng)
        data = edges.encode("utf-8")
        if rng.random() < 0.02:  # undecodable: stage 'read'
            cut = rng.randint(0, len(data))
            data = data[:cut] + b"\xff" + data[cut:]
        text = data.decode("utf-8", errors="replace").replace("\r\n", "\n").replace("\r", "\n")
        declared = _declared_vertices(text)
        if declared is not None and declared > MAX_VERTICES:
            continue
        edge_file.write_bytes(data)
        path_file.write_text(paths, encoding="utf-8")
        argv = ["layout", str(edge_file), "--json", str(out)]
        argv += [flag for flag in TOGGLES if rng.random() < 0.25]
        if with_paths:
            argv += ["--paths", str(path_file)]
        code = main(argv)
        captured = capsys.readouterr()
        context = f"run {run}: argv {argv[4:]}, edges {edges[:200]!r}, paths {paths[:200]!r}"
        assert code in outcomes, f"{context}: exit {code}, {captured.err[:300]}"
        outcomes[code] += 1
        assert captured.out == "", context
        if code == 0:
            assert captured.err == "", context
            doc = json.loads(out.read_text(encoding="utf-8"))
            drawn = [frozenset((e["u"], e["v"])) for e in doc["edges"]]
            assert len(drawn) == len(set(drawn)), context
            assert set(drawn) == _input_pairs(text), context
        else:
            stage = re.fullmatch(r"error: stage '([a-z-]+)': [^\n]*\n", captured.err)
            assert stage and stage.group(1) in INPUT_STAGES, f"{context}: {captured.err[:300]}"
            over_long += "digit limit" in captured.err
    # the mutations reach both outcomes and the interpreter's digit limit
    assert outcomes[0] > RUNS // 10 and outcomes[2] > RUNS // 2, outcomes
    assert over_long > 0 or not DIGIT_LIMIT
