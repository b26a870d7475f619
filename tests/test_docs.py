"""Documentation integrity: intra-repo Markdown links must resolve, and each
package page lists exactly its package's modules."""

import re
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "tools"))

from check_docs_links import check_file, check_tree, iter_markdown_files  # noqa: E402


class TestDocsLinks:
    def test_docs_tree_exists(self):
        docs = REPO_ROOT / "docs"
        for page in ("ARCHITECTURE.md", "memory.md", "programmable.md", "engine.md", "workloads.md"):
            assert (docs / page).is_file(), f"missing docs page {page}"

    def test_no_broken_intra_repo_links(self):
        errors = check_tree(REPO_ROOT)
        assert not errors, "\n".join(errors)

    def test_checker_detects_breakage(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text("see [missing](nope.md) and [ok](page.md) and [web](https://x.test)")
        errors = check_file(page, tmp_path)
        assert len(errors) == 1 and "nope.md" in errors[0]

    def test_checker_skips_code_fences(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text("```\n[fake](not-a-file.md)\n```\n")
        assert check_file(page, tmp_path) == []

    def test_checker_skips_inline_code_spans(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text("an example like `[label](your-file.md)` in prose\n")
        assert check_file(page, tmp_path) == []

    def test_markdown_files_discovered(self):
        files = list(iter_markdown_files(REPO_ROOT))
        names = {path.name for path in files}
        assert "README.md" in names and "ARCHITECTURE.md" in names


#: Docs pages headed by a package, e.g. "# Memory hierarchy (`repro.memory`)".
PACKAGE_PAGES = ("compiler.md", "engine.md", "memory.md", "programmable.md")


class TestPackagePages:
    @pytest.mark.parametrize("page", PACKAGE_PAGES)
    def test_component_table_lists_exactly_the_packages_modules(self, page):
        text = (REPO_ROOT / "docs" / page).read_text(encoding="utf-8")
        package = re.match(r"# .*\(`(repro(?:\.\w+)*)`\)\n", text).group(1)
        listed = re.findall(r"^\| `(\w+\.py)` \|", text, flags=re.MULTILINE)
        directory = REPO_ROOT / "src" / Path(*package.split("."))
        modules = {path.name for path in directory.glob("*.py")} - {"__init__.py"}
        assert sorted(listed) == sorted(modules), page
