"""Documentation and packaging checks.

Five guarantees, enforced so they cannot silently rot:

* the committed CLI reference page matches what the live argparse
  parsers render (``scripts/gen_cli_docs.py``);
* every internal link in ``docs/`` and the README resolves, and every
  page the mkdocs nav mentions exists (the dependency-free local half
  of CI's ``mkdocs build --strict`` job);
* the README and the docs index quote the architecture guide's
  subsystem count;
* the example gallery documents every script under ``examples/``;
* the public API surface keeps full docstring coverage, and the
  packaged console-script entry point targets a real callable.
"""

from __future__ import annotations

import importlib
import inspect
import re
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS_DIR = REPO_ROOT / "docs"

#: The public API surface under docstring coverage (module, every public
#: class/function defined in it, every public method of those classes).
PUBLIC_API_MODULES = (
    "repro.engine",
    "repro.engine.spec",
    "repro.engine.executor",
    "repro.engine.aggregator",
    "repro.routing.base",
    "repro.routing.balanced",
    "repro.dtn.simulator",
    "repro.analysis.stats",
    "repro.analysis.streaming",
    "repro.mobility",
    "repro.mobility.base",
    "repro.mobility.schedule",
    "repro.mobility.spatial",
    "repro.mobility.spatial.base",
    "repro.mobility.spatial.params",
    "repro.mobility.spatial.contacts",
    "repro.mobility.spatial.waypoint",
    "repro.mobility.spatial.walk",
    "repro.mobility.spatial.grid",
    "repro.experiments.config",
    "repro.experiments.runner",
    "repro.observability",
    "repro.observability.trace",
    "repro.observability.metrics",
    "repro.observability.telemetry",
    "repro.observability.inspect",
    "repro.workloads",
    "repro.workloads.base",
    "repro.workloads.models",
    "repro.workloads.params",
    "repro.workloads.popularity",
    "repro.workloads.profile",
)


# ----------------------------------------------------------------------
# CLI reference: generated page must match the live parsers
# ----------------------------------------------------------------------
class TestCliReference:
    def test_cli_reference_is_up_to_date(self):
        sys.path.insert(0, str(REPO_ROOT / "scripts"))
        try:
            from gen_cli_docs import OUTPUT_PATH, render_cli_reference
        finally:
            sys.path.pop(0)
        expected = render_cli_reference()
        committed = OUTPUT_PATH.read_text(encoding="utf-8")
        assert committed == expected, (
            "docs/reference/cli.md is stale; regenerate with "
            "`PYTHONPATH=src python scripts/gen_cli_docs.py`"
        )

    def test_reference_covers_every_subcommand(self):
        text = (DOCS_DIR / "reference" / "cli.md").read_text(encoding="utf-8")
        for command in ("run", "sweep", "quicksim", "list", "protocols"):
            assert f"## repro-dtn {command}" in text


# ----------------------------------------------------------------------
# Internal links and navigation
# ----------------------------------------------------------------------
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def _slugify(heading: str) -> str:
    slug = re.sub(r"[^\w\- ]", "", heading).strip().lower()
    return re.sub(r"\s+", "-", slug)


def _markdown_files():
    return [REPO_ROOT / "README.md", *sorted(DOCS_DIR.rglob("*.md"))]


class TestInternalLinks:
    def test_relative_links_resolve(self):
        broken = []
        for md_file in _markdown_files():
            text = md_file.read_text(encoding="utf-8")
            for target in _LINK.findall(text):
                if target.startswith(("http://", "https://", "mailto:")):
                    continue
                path_part, _, fragment = target.partition("#")
                if not path_part:
                    continue  # same-page anchor
                resolved = (md_file.parent / path_part).resolve()
                if not resolved.exists():
                    broken.append(f"{md_file.relative_to(REPO_ROOT)} -> {target}")
                elif fragment and resolved.suffix == ".md":
                    headings = re.findall(
                        r"^#+\s+(.*)$",
                        resolved.read_text(encoding="utf-8"),
                        re.MULTILINE,
                    )
                    if fragment not in {_slugify(h) for h in headings}:
                        broken.append(
                            f"{md_file.relative_to(REPO_ROOT)} -> {target} (anchor)"
                        )
        assert not broken, "broken internal links:\n" + "\n".join(broken)

    def test_mkdocs_nav_entries_exist(self):
        yaml = pytest.importorskip("yaml")
        config = yaml.safe_load((REPO_ROOT / "mkdocs.yml").read_text(encoding="utf-8"))

        def walk(node):
            if isinstance(node, str):
                yield node
            elif isinstance(node, list):
                for item in node:
                    yield from walk(item)
            elif isinstance(node, dict):
                for value in node.values():
                    yield from walk(value)

        pages = list(walk(config["nav"]))
        assert pages, "mkdocs nav is empty"
        for page in pages:
            assert (DOCS_DIR / page).is_file(), f"nav references missing page {page}"

    def test_every_docs_page_is_reachable_from_nav(self):
        yaml = pytest.importorskip("yaml")
        config = yaml.safe_load((REPO_ROOT / "mkdocs.yml").read_text(encoding="utf-8"))
        nav_text = str(config["nav"])
        for md_file in DOCS_DIR.rglob("*.md"):
            relative = md_file.relative_to(DOCS_DIR).as_posix()
            assert relative in nav_text, f"docs page {relative} missing from nav"


# ----------------------------------------------------------------------
# Example gallery completeness
# ----------------------------------------------------------------------
_NUMBER_WORDS = {
    word: index
    for index, word in enumerate(
        "zero one two three four five six seven eight nine ten eleven twelve".split()
    )
}


class TestSubsystemCount:
    """Pages that quote the architecture guide's subsystem count agree with it."""

    def _guide_count(self):
        guide = (DOCS_DIR / "architecture.md").read_text(encoding="utf-8")
        heading = re.search(r"^## The (\w+) subsystems$", guide, re.MULTILINE)
        assert heading, "architecture guide lost its '## The N subsystems' heading"
        word = heading.group(1)
        numbered = re.findall(r"^### \d+\. ", guide, re.MULTILINE)
        assert len(numbered) == _NUMBER_WORDS[word], (
            f"heading says {word} subsystems but the guide numbers {len(numbered)}"
        )
        return word

    @pytest.mark.parametrize("page", ["README.md", "docs/index.md"])
    def test_page_quotes_the_guide_count(self, page):
        text = (REPO_ROOT / page).read_text(encoding="utf-8")
        claims = re.findall(r"the (\w+) subsystems", text)
        assert claims, f"{page} no longer quotes the subsystem count"
        assert set(claims) == {self._guide_count()}, f"{page} says {claims}"


class TestExampleGallery:
    def test_gallery_documents_every_example(self):
        gallery = (DOCS_DIR / "examples.md").read_text(encoding="utf-8")
        scripts = sorted((REPO_ROOT / "examples").glob("*.py"))
        assert scripts, "examples/ directory is empty?"
        missing = [s.name for s in scripts if f"## {s.name}" not in gallery]
        assert not missing, f"examples missing from docs/examples.md: {missing}"

    def test_gallery_has_no_stale_entries(self):
        gallery = (DOCS_DIR / "examples.md").read_text(encoding="utf-8")
        documented = re.findall(r"^## (\S+\.py)$", gallery, re.MULTILINE)
        existing = {s.name for s in (REPO_ROOT / "examples").glob("*.py")}
        stale = [name for name in documented if name not in existing]
        assert not stale, f"docs/examples.md documents missing scripts: {stale}"


# ----------------------------------------------------------------------
# Docstring coverage of the public API surface
# ----------------------------------------------------------------------
def _docstring_gaps(module_name: str):
    module = importlib.import_module(module_name)
    gaps = []
    if not (module.__doc__ or "").strip():
        gaps.append(f"{module_name} (module docstring)")
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if getattr(obj, "__module__", None) != module_name:
            continue  # re-export; covered where it is defined
        if not (inspect.getdoc(obj) or "").strip():
            gaps.append(f"{module_name}.{name}")
        if inspect.isclass(obj):
            for member_name, member in vars(obj).items():
                if member_name.startswith("_"):
                    continue
                func = member
                if isinstance(member, (classmethod, staticmethod)):
                    func = member.__func__
                elif isinstance(member, property):
                    func = member.fget
                elif not inspect.isfunction(member):
                    continue
                if func is None or not (getattr(func, "__doc__", "") or "").strip():
                    gaps.append(f"{module_name}.{name}.{member_name}")
    return gaps


class TestDocstringCoverage:
    @pytest.mark.parametrize("module_name", PUBLIC_API_MODULES)
    def test_public_api_fully_documented(self, module_name):
        gaps = _docstring_gaps(module_name)
        assert not gaps, (
            f"public API members without docstrings in {module_name}:\n"
            + "\n".join(gaps)
        )


# ----------------------------------------------------------------------
# Packaging metadata
# ----------------------------------------------------------------------
class TestPackagingMetadata:
    def test_console_script_targets_real_callable(self):
        setup_text = (REPO_ROOT / "setup.py").read_text(encoding="utf-8")
        match = re.search(r'"repro-dtn\s*=\s*([\w.]+):(\w+)"', setup_text)
        assert match, "setup.py must declare the repro-dtn console script"
        module_name, attribute = match.groups()
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attribute)), (
            f"entry point {module_name}:{attribute} is not callable"
        )

    def test_setup_metadata_fields_present(self):
        setup_text = (REPO_ROOT / "setup.py").read_text(encoding="utf-8")
        for required in (
            "long_description",
            "project_urls",
            "python_requires",
            "entry_points",
            'package_dir={"": "src"}',
        ):
            assert required in setup_text, f"setup.py is missing {required}"

    def test_version_single_source(self):
        import repro

        setup_text = (REPO_ROOT / "setup.py").read_text(encoding="utf-8")
        assert "read_version" in setup_text
        assert re.match(r"\d+\.\d+\.\d+", repro.__version__)
