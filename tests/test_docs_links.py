"""Intra-repo markdown links, and the docs and files program text cites,
must resolve (mirrors the CI docs job)."""

import importlib.util
import os

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_checker():
    path = os.path.join(REPO_ROOT, "tools", "check_markdown_links.py")
    spec = importlib.util.spec_from_file_location("check_markdown_links", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_docs_exist_and_are_linked_from_readme():
    for name in ("ARCHITECTURE.md", "runtime.md", "known-issues.md"):
        assert os.path.exists(os.path.join(REPO_ROOT, "docs", name)), name
    readme = open(os.path.join(REPO_ROOT, "README.md"), encoding="utf-8").read()
    assert "docs/ARCHITECTURE.md" in readme
    assert "docs/runtime.md" in readme


def test_markdown_links_resolve():
    checker = _load_checker()
    problems = checker.check_tree(REPO_ROOT)
    assert problems == []


def test_checker_catches_broken_links(tmp_path):
    (tmp_path / "doc.md").write_text("see [missing](nope/absent.md)")
    checker = _load_checker()
    problems = checker.check_tree(str(tmp_path))
    assert len(problems) == 1 and "absent.md" in problems[0]


def test_checker_catches_missing_cited_files(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "present.md").write_text("# present")
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        '"""See docs/present.md, ABSENT.md and tests/gone_test.py;\n'
        'the module mod.py itself is no path."""\n')
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "benchmarks" / "conftest.py").write_text(
        "# scaled as documented in docs/missing.md\n")
    checker = _load_checker()
    problems = checker.check_tree(str(tmp_path))
    cited = sorted(line.split("(", 1)[1].split(")", 1)[0] for line in problems)
    assert cited == ["ABSENT.md", "docs/missing.md", "tests/gone_test.py"], problems
