"""Unit tests for the command-line interface and pretty-printing."""

import io

import pytest

from repro.cli import main
from repro.xmlio import parse_document, serialize


@pytest.fixture()
def xml_dir(tmp_path):
    (tmp_path / "a.xml").write_text(
        "<order><lineitem price='150'/></order>")
    (tmp_path / "b.xml").write_text(
        "<order><lineitem price='90'/></order>")
    (tmp_path / "ignored.txt").write_text("not xml")
    return tmp_path


def run_cli(*argv) -> str:
    out = io.StringIO()
    code = main(list(argv), out=out)
    assert code == 0
    return out.getvalue()


class TestCLI:
    def test_demo(self):
        output = run_cli("demo", "--orders", "40")
        assert "with li_price index:" in output
        assert "full collection scan:" in output
        assert "ELIGIBLE" in output

    def test_query_over_directory(self, xml_dir):
        output = run_cli(
            "query", "--load", str(xml_dir),
            "db2-fn:xmlcolumn('DOCS.DOC')//lineitem[@price > 100]")
        assert "loaded 2 documents" in output
        assert 'price="150"' in output
        assert 'price="90"' not in output

    def test_query_with_index(self, xml_dir):
        output = run_cli(
            "query", "--load", str(xml_dir),
            "--index", "//lineitem/@price AS DOUBLE",
            "db2-fn:xmlcolumn('DOCS.DOC')//lineitem[@price > 100]")
        assert "indexes_used=['cli_idx_1']" in output

    def test_no_indexes_flag(self, xml_dir):
        output = run_cli(
            "query", "--load", str(xml_dir), "--no-indexes",
            "--index", "//lineitem/@price AS DOUBLE",
            "db2-fn:xmlcolumn('DOCS.DOC')//lineitem[@price > 100]")
        assert "indexes_used=[]" in output

    def test_sql_over_directory(self, xml_dir):
        output = run_cli(
            "sql", "--load", str(xml_dir),
            "SELECT name FROM docs WHERE XMLEXISTS("
            "'$d//lineitem[@price > 100]' PASSING doc AS \"d\")")
        assert "a.xml" in output
        assert "b.xml" not in output

    def test_explain(self, xml_dir):
        output = run_cli(
            "explain", "--load", str(xml_dir),
            "--index", "//lineitem/@price AS DOUBLE",
            "db2-fn:xmlcolumn('DOCS.DOC')//lineitem[@price > 100]")
        assert "ELIGIBLE" in output

    def test_lint_prints_tip(self, xml_dir):
        output = run_cli(
            "lint", "--load", str(xml_dir),
            "for $d in db2-fn:xmlcolumn('DOCS.DOC')/order "
            "return <r>{$d/lineitem[@price > 100]}</r>")
        assert "SW342 (§3.4, Tip 7)" in output
        assert "tip: Unless you want empty elements" in output

    def test_lint_json_suggestion(self, xml_dir):
        import json
        output = run_cli(
            "lint", "--json", "--load", str(xml_dir),
            "for $d in db2-fn:xmlcolumn('DOCS.DOC') "
            "let $i := $d//lineitem[@price > 100] return <r>{$i}</r>")
        findings = json.loads(output[output.index("["):])
        assert [item["section"] for item in findings] == ["3.4"]
        assert findings[0]["suggestion"].startswith("Bind with a for")

    def test_lint_clean(self, xml_dir):
        output = run_cli(
            "lint", "--load", str(xml_dir),
            "db2-fn:xmlcolumn('DOCS.DOC')//lineitem[@price > 100]")
        assert "clean: no static errors" in output

    def test_removed_subcommand_is_rejected(self):
        with pytest.raises(SystemExit):
            main(["advise", "db2-fn:xmlcolumn('DOCS.DOC')"],
                 out=io.StringIO())

    def test_describe(self, xml_dir):
        output = run_cli("describe", "--load", str(xml_dir),
                         "--index", "//lineitem/@price AS DOUBLE")
        assert "table docs" in output
        assert "cli_idx_1" in output


class TestObservabilityFlags:
    def test_explain_analyze_flag(self, xml_dir):
        output = run_cli(
            "query", "--load", str(xml_dir),
            "--index", "//lineitem/@price AS DOUBLE",
            "--explain-analyze",
            "db2-fn:xmlcolumn('DOCS.DOC')//lineitem[@price > 100]")
        assert "EXPLAIN ANALYZE (xquery)" in output
        assert "-> index-scan" in output
        assert "actual documents=1" in output

    def test_explain_analyze_sql(self, xml_dir):
        output = run_cli(
            "sql", "--load", str(xml_dir), "--explain-analyze",
            "SELECT name FROM docs WHERE XMLEXISTS("
            "'$d//lineitem[@price > 100]' PASSING doc AS \"d\")")
        assert "EXPLAIN ANALYZE (sql)" in output
        assert "-> join-scan" in output

    def test_metrics_flag(self, xml_dir):
        output = run_cli(
            "query", "--load", str(xml_dir),
            "--index", "//lineitem/@price AS DOUBLE", "--metrics",
            "db2-fn:xmlcolumn('DOCS.DOC')//lineitem[@price > 100]")
        assert "metrics:" in output
        assert "index.probes 1" in output
        assert "queries.xquery 1" in output

    def test_trace_to_file_validates(self, xml_dir, tmp_path):
        import json
        from repro.obs.trace import validate_trace
        trace_path = tmp_path / "trace.json"
        run_cli(
            "query", "--load", str(xml_dir), "--trace", str(trace_path),
            "db2-fn:xmlcolumn('DOCS.DOC')//lineitem[@price > 100]")
        payload = json.loads(trace_path.read_text())
        assert validate_trace(payload) == []
        assert payload["language"] == "xquery"

    def test_trace_to_stdout(self, xml_dir):
        import json
        from repro.obs.trace import validate_trace
        output = run_cli(
            "sql", "--load", str(xml_dir), "--trace", "-",
            "SELECT name FROM docs")
        start = output.index('{\n  "trace_version"')
        payload = json.loads(output[start:])
        assert validate_trace(payload) == []
        assert payload["language"] == "sql"


class TestPrettyPrinting:
    def test_indent_element_content(self):
        doc = parse_document("<a><b><c/></b><d/></a>")
        pretty = serialize(doc, indent=True)
        assert pretty == "<a>\n  <b>\n    <c/>\n  </b>\n  <d/>\n</a>"

    def test_mixed_content_untouched(self):
        doc = parse_document("<a>text<b/>more</a>")
        assert serialize(doc, indent=True) == "<a>text<b/>more</a>"

    def test_pretty_roundtrips_structure(self):
        doc = parse_document("<a x='1'><b><c>leaf</c></b></a>")
        pretty = serialize(doc, indent=True)
        reparsed = parse_document(pretty)
        assert reparsed.root_element.attribute("x").string_value() == "1"

    def test_indent_flag_in_cli(self, xml_dir):
        output = run_cli(
            "query", "--load", str(xml_dir), "--indent",
            "db2-fn:xmlcolumn('DOCS.DOC')/order[lineitem/@price > 100]")
        assert "<order>\n  <lineitem" in output
