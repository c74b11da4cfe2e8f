"""Catalog-drift self-gate: emitters, docs and catalogs cannot diverge.

Three invariants:

* every counter name passed to ``.count("...")`` anywhere in the source
  and test trees is a ``COUNTER_CATALOG`` entry — an emitter
  cannot invent a counter the schema validator would reject;
* every metric name passed to ``.observe("...")`` resolves through
  ``describe_metric``;
* the counter table committed in ``docs/observability.md`` equals the
  generated ``catalog_markdown_table()`` output exactly.
"""

import re
from pathlib import Path

from repro.obs.catalog import COUNTER_CATALOG, catalog_markdown_table
from repro.obs.metrics import describe_metric

REPO = Path(__file__).resolve().parents[2]

#: ``.count("name")`` / ``.count(f"prefix/{x}")`` call sites.  Plain
#: ``str.count``/``list.count`` calls are filtered out by requiring an
#: underscore or slash in the literal (every cataloged name has one).
_COUNT_RE = re.compile(r'\.count\(\s*(f?)"([^"]+)"')
_OBSERVE_RE = re.compile(r'\.observe\(\s*(f?)"([^"]+)"')


def name_literals(pattern):
    """{(path, line, name)} for every matching call site under src+tests."""
    hits = []
    for root in ("src", "tests", "benchmarks", "examples"):
        base = REPO / root
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*.py")):
            if "fixtures" in path.parts:
                continue  # lint fixtures deliberately contain bad code
            if path.name == Path(__file__).name:
                continue  # this file's own regex examples
            for lineno, line in enumerate(
                path.read_text().splitlines(), start=1
            ):
                for is_fstring, name in pattern.findall(line):
                    if is_fstring:
                        name = name.split("{", 1)[0]  # keep the prefix
                    if "_" not in name and "/" not in name:
                        continue  # str.count("x") etc.
                    hits.append((str(path.relative_to(REPO)), lineno, name))
    return hits


class TestCatalogGate:
    def test_every_emitted_counter_is_cataloged(self):
        hits = name_literals(_COUNT_RE)
        assert hits, "scanner found no .count() call sites — regex rotted?"
        uncataloged = [hit for hit in hits if hit[2] not in COUNTER_CATALOG]
        assert not uncataloged, (
            f"counter names outside COUNTER_CATALOG: {uncataloged}"
        )

    def test_every_observed_metric_is_cataloged(self):
        hits = name_literals(_OBSERVE_RE)
        assert hits, "scanner found no .observe() call sites — regex rotted?"
        uncataloged = [
            hit for hit in hits if describe_metric(hit[2]) is None
        ]
        assert not uncataloged, (
            "metric names outside METRIC_CATALOG/METRIC_FAMILIES: "
            f"{uncataloged}"
        )

    def test_docs_table_matches_generated(self):
        doc = (REPO / "docs" / "observability.md").read_text()
        begin = "<!-- COUNTER_CATALOG:begin -->"
        end = "<!-- COUNTER_CATALOG:end -->"
        assert begin in doc and end in doc, "catalog markers missing from doc"
        embedded = doc.split(begin, 1)[1].split(end, 1)[0].strip()
        assert embedded == catalog_markdown_table(), (
            "docs/observability.md counter table drifted from "
            "catalog_markdown_table(); regenerate the block between the "
            "COUNTER_CATALOG markers"
        )

    def test_table_covers_whole_catalog(self):
        table = catalog_markdown_table()
        for name in COUNTER_CATALOG:
            assert f"`{name}`" in table
