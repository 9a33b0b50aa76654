"""The repository tools (figure generation is covered in
test_examples; here: the results collector and API docs generator)."""

import importlib.util
import os


def load_tool(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join("tools", name + ".py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCollectResults:
    def test_collects_in_order(self, tmp_path, monkeypatch, capsys):
        tool = load_tool("collect_results")
        results = tmp_path / "results"
        results.mkdir()
        (results / "X1_foo.txt").write_text("x table")
        (results / "T1_bar.txt").write_text("t table")
        (results / "C2_baz.txt").write_text("c table")
        monkeypatch.setattr(tool, "RESULTS_DIR", str(results))
        monkeypatch.setattr(tool, "OUTPUT", str(tmp_path / "RESULTS.md"))
        assert tool.main() == 0
        text = (tmp_path / "RESULTS.md").read_text()
        # Tables first, then complexity, then comparatives.
        assert text.index("T1_bar") < text.index("C2_baz") < text.index(
            "X1_foo"
        )

    def test_missing_dir_fails_cleanly(self, tmp_path, monkeypatch):
        tool = load_tool("collect_results")
        monkeypatch.setattr(tool, "RESULTS_DIR", str(tmp_path / "nope"))
        assert tool.main() == 1


class TestApiDocs:
    def test_generates_reference(self, tmp_path, monkeypatch):
        tool = load_tool("generate_api_docs")
        monkeypatch.setattr(tool, "OUTPUT", str(tmp_path / "API.md"))
        tool.main()
        text = (tmp_path / "API.md").read_text()
        assert "# API reference" in text
        assert "repro.core.detection" in text
        assert "PeriodicDetector" in text
        assert "class `ShardedLockCore`" in text


class TestMetricCatalog:
    def test_docs_and_registry_agree(self, capsys):
        tool = load_tool("check_metric_catalog")
        assert tool.main() == 0, capsys.readouterr().out
        assert "metric catalog OK" in capsys.readouterr().out

    def test_drift_is_reported_both_ways(self, tmp_path):
        tool = load_tool("check_metric_catalog")
        catalog = tmp_path / "OBSERVABILITY.md"
        with open(tool.CATALOG, encoding="utf-8") as handle:
            lines = [
                line for line in handle if "`repro_batch_size`" not in line
            ]
        lines.append("| `repro_never_produced_total` | counter | — | x |\n")
        lines.append("| `repro_client_made_up` | gauge | — | elsewhere |\n")
        catalog.write_text("".join(lines), encoding="utf-8")
        in_docs = tool.documented(str(catalog))
        assert "repro_client_made_up" not in in_docs  # another registry
        assert "repro_service_grants_total" in in_docs  # <field> expanded
        # The committed catalog stands in for the registry here (the
        # test above shows they agree).
        problems = tool.compare(in_docs, tool.documented())
        assert len(problems) == 2
        assert any(
            line.startswith("undocumented: repro_batch_size ")
            for line in problems
        )
        assert any(
            line.startswith("stale: ") and "repro_never_produced_total" in line
            for line in problems
        )


class TestImportClosure:
    def test_reports_a_small_command_and_passes(self, capsys):
        tool = load_tool("import_closure")
        assert tool.main(["incidents", "list", "no-such-file"]) == 0
        out = capsys.readouterr().out
        assert "repro.obs" in out and "repro, total" in out
        assert "import contract of `incidents` holds" in out

    def test_unknown_command_is_usage(self, capsys):
        tool = load_tool("import_closure")
        assert tool.main(["no-such-command"]) == 2
        assert "commands: serve" in capsys.readouterr().err


class TestLockPathCost:
    def test_prints_every_figure_and_passes(self, capsys):
        tool = load_tool("lock_path_cost")
        assert tool.main([]) == 0
        out = capsys.readouterr().out
        for name in tool.CEILINGS:
            assert name in out
        assert "lock path cost within its ratchet" in out

    def test_stray_arguments_are_usage(self, capsys):
        tool = load_tool("lock_path_cost")
        assert tool.main(["--bogus"]) == 2
        assert "lock_path_cost.py" in capsys.readouterr().err
