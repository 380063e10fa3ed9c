"""Tests for tools/lint_batch_routing.py — the per-pair routing lint."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from lint_batch_routing import (  # noqa: E402
    DIJKSTRA_RE,
    MATCHING_DIR,
    find_offenders,
    main,
)


class TestFindOffenders:
    def test_flags_unmarked_call(self, tmp_path):
        (tmp_path / "mod.py").write_text(
            "def f(graph, pairs, cache):\n"
            "    return [cached_shortest_path(graph, s, t, cache=cache)\n"
            "            for s, t in pairs]\n"
        )
        offenders = find_offenders(tmp_path)
        assert len(offenders) == 1
        assert offenders[0][1] == 2

    def test_marker_suppresses(self, tmp_path):
        (tmp_path / "mod.py").write_text(
            "r = cached_shortest_path(g, s, t)  # batch-ok: single query\n"
        )
        assert find_offenders(tmp_path) == []

    def test_ignores_imports_and_references(self, tmp_path):
        (tmp_path / "mod.py").write_text(
            "from repro.roadnet.routing import cached_shortest_path\n"
            '"""See :func:`cached_shortest_path`."""\n'
            "# the loop calls cached_shortest_path per pair\n"
        )
        assert find_offenders(tmp_path) == []

    def test_recurses_and_collects_multiple_roots(self, tmp_path):
        a = tmp_path / "a" / "sub"
        b = tmp_path / "b"
        a.mkdir(parents=True)
        b.mkdir()
        (a / "one.py").write_text("cached_shortest_path(g, 1, 2)\n")
        (b / "two.py").write_text("x = cached_shortest_path(g, 3, 4)\n")
        assert len(find_offenders(tmp_path / "a", b)) == 2

    def test_accepts_single_file_root(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("cached_shortest_path(g, 1, 2)\n")
        assert len(find_offenders(bad)) == 1


class TestDijkstraRule:
    def test_flags_unmarked_dijkstra_call(self, tmp_path):
        mod = tmp_path / "hmm.py"
        mod.write_text("dist = dijkstra(graph, source, max_cost=cap)\n")
        assert len(find_offenders(mod, pattern=DIJKSTRA_RE)) == 1

    def test_marker_suppresses(self, tmp_path):
        mod = tmp_path / "hmm.py"
        mod.write_text(
            "dist = dijkstra(g, s)  # batch-ok: scalar reference path\n"
        )
        assert find_offenders(mod, pattern=DIJKSTRA_RE) == []

    def test_multi_target_and_bidirectional_not_flagged(self, tmp_path):
        mod = tmp_path / "hmm.py"
        mod.write_text(
            "labels, settled = multi_target_dijkstra(g, s, targets)\n"
            "cost = bidirectional_dijkstra(g, s, t)\n"
            "from repro.roadnet.routing import dijkstra\n"
        )
        assert find_offenders(mod, pattern=DIJKSTRA_RE) == []

    def test_repo_hmm_module_is_clean(self):
        # The whole matching package, hmm.py included.
        assert find_offenders(MATCHING_DIR, pattern=DIJKSTRA_RE) == []


class TestMain:
    def test_repo_batched_packages_are_clean(self, capsys):
        assert main([]) == 0
        assert "OK" in capsys.readouterr().out

    def test_offending_dir_exits_nonzero(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("cached_shortest_path(g, 1, 2)\n")
        assert main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "bad.py:1" in out
        assert "batch-ok" in out
