"""Every ``repro.`` name and every ``*.md`` file the documentation cites
must exist.

Two kinds of name reference are checked: backticked names in
``docs/*.md`` (the leading dotted name of each span, so a call form such
as ``repro.eval.runner.last_matrix_stats()`` counts too) and Sphinx
cross-reference roles (``:func:``, ``:class:``, ``:meth:``, ``:mod:``,
``:data:``, ``:attr:``, ``:exc:``) whose target lies under ``repro.`` or
``~repro.`` anywhere in ``src/``. A reference resolves when its longest
importable module prefix imports and the remaining parts are attributes
of it. ROADMAP.md is not scanned: it names modules that are planned, not
built.

A cited document (``docs/substitution.md``, ``engine.md``, ...) in
``src/``, ``benchmarks/``, ``docs/`` or ``examples/`` must exist relative
to the citing file, the repository root or ``docs/``.
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

_DOTTED = r"repro(?:\.[A-Za-z_]\w*)+"
_SPAN = re.compile(r"`([^`\n]+)`")
_SPAN_NAME = re.compile(rf"~?({_DOTTED})")
_ROLE = re.compile(
    rf":(?:func|class|meth|mod|data|attr|exc):`~?({_DOTTED})`"
)


def _doc_references() -> list[tuple[str, str]]:
    refs = set()
    for path in sorted((ROOT / "docs").glob("*.md")):
        for span in _SPAN.findall(path.read_text(encoding="utf-8")):
            match = _SPAN_NAME.match(span)
            if match:
                refs.add((path.relative_to(ROOT).as_posix(), match.group(1)))
    return sorted(refs)


def _source_references() -> list[tuple[str, str]]:
    refs = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        for name in _ROLE.findall(path.read_text(encoding="utf-8")):
            refs.add((path.relative_to(ROOT).as_posix(), name))
    return sorted(refs)


# A path ending in .md that does not start inside a longer token (a URL,
# a glob such as docs/*.md).
_DOC_FILE = re.compile(r"(?<![\w./:*-])(\w[\w./-]*\.md)\b")


def _doc_file_citations() -> list[tuple[str, str]]:
    refs = set()
    for top, pattern in (("src", "*.py"), ("benchmarks", "*.py"),
                         ("docs", "*.md"), ("examples", "*.py")):
        for path in sorted((ROOT / top).rglob(pattern)):
            for cited in _DOC_FILE.findall(path.read_text(encoding="utf-8")):
                refs.add((path.relative_to(ROOT).as_posix(), cited))
    return sorted(refs)


def resolve(dotted: str) -> object:
    """Import the longest module prefix of ``dotted``, then walk attributes."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for attr in parts[split:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(dotted)


DOC_REFS = _doc_references()
SOURCE_REFS = _source_references()
DOC_FILES = _doc_file_citations()


def test_scans_find_references():
    # Guards the scanners themselves: an empty scan would pass vacuously.
    assert len(DOC_REFS) >= 20
    assert len(SOURCE_REFS) >= 80
    assert len(DOC_FILES) >= 30


@pytest.mark.parametrize(
    "where,name", DOC_REFS + SOURCE_REFS,
    ids=[f"{w}:{n}" for w, n in DOC_REFS + SOURCE_REFS],
)
def test_reference_resolves(where, name):
    try:
        resolve(name)
    except (ImportError, AttributeError) as exc:
        pytest.fail(f"{where} cites {name}, which does not resolve: {exc}")


@pytest.mark.parametrize(
    "where,cited", DOC_FILES, ids=[f"{w}:{c}" for w, c in DOC_FILES],
)
def test_cited_document_exists(where, cited):
    bases = ((ROOT / where).parent, ROOT, ROOT / "docs")
    if not any((base / cited).is_file() for base in bases):
        pytest.fail(f"{where} cites {cited}, which does not exist")
