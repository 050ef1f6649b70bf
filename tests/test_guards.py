"""The hostile shapes and the guard runner that CI runs on them."""

from __future__ import annotations

import os
from pathlib import Path

import pytest

import guards
import hyperind as hi
import shapes
from guards import Guard

SRC = str(Path(__file__).resolve().parent.parent / "src")
PAIR = b"4 2\n0 1 2\n0 1 3\n"


@pytest.mark.parametrize("name", sorted(shapes.SHAPES))
def test_shape_text_reads_back_as_the_shape(name):
    for k in (1, 2, 5):
        n, edges = shapes.build(name, k)
        h = hi.parse_hg(shapes.hg(name, k).decode())
        assert h == hi.Hypergraph(n, edges) and h.m == len(edges)


def test_every_shape_has_a_guard_and_fano_is_gens():
    used = {g.data[0] for g in guards.GUARDS if isinstance(g.data, tuple)}
    assert used == set(shapes.SHAPES)
    assert guards.FANO == hi.format_hg(hi.fano()).encode()
    for g in guards.GUARDS:
        assert g.data is None or g.name in g.argv, g


@pytest.fixture()
def src_path(monkeypatch):
    monkeypatch.setenv(
        "PYTHONPATH", os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    )


@pytest.mark.parametrize(
    "guard, failures",
    [
        (Guard("pair.hg", PAIR, ("check", "pair.hg"), 1, 60, ('"linear": false',)), []),
        (Guard("pair.hg", PAIR, ("check", "pair.hg"), 0), ["exit 1, expected 0"]),
        (
            Guard("pair.hg", PAIR, ("check", "pair.hg"), 1, 60, ("nowhere",)),
            ["'nowhere' not in stdout"],
        ),
        (Guard("pair.hg", PAIR, ("check", "pair.hg"), 1, 0.001), ["no exit within 0.001 s"]),
        (
            Guard("gen", None, ("gen", "--family", "fano", "-o", "f.hg"), 2),
            ["exit 0, expected 2", "a refusal wrote ['f.hg', 'f.hg.json']"],
        ),
        (
            Guard("big", ("big_edge", 3), ("check", "big"), 2),
            ["exit 0, expected 2", "a refusal printed to stdout"],
        ),
    ],
    ids=["pass", "code", "text", "timeout", "wrote", "printed"],
)
def test_runner_reports_each_failure(src_path, guard, failures):
    res = guards.run(guard)
    # a failing guard ends with the tail of its stderr
    assert res.failures[: len(failures)] == failures
    assert len(res.failures) == len(failures) + bool(failures)
    assert res.peak_mib > 0 and res.wall_s > 0
