"""HTML boilerplate-strip tests: content kept, chrome dropped, routing."""

import pyarrow as pa

from pdf_inspector_ray.pdfi.html import extract_main_content
from pdf_inspector_ray.sources.htmlgen import (
    build_html_table,
    html_fixture_pool,
    make_article_page,
    make_linkfarm_page,
)
from pdf_inspector_ray.stages.html_stage import (
    html_extract_batch,
    sniff_payload_kind,
)


def test_article_extraction():
    page = make_article_page(0)
    r = extract_main_content(page)
    assert r.title == "Article 0"
    assert "Deep Dive 0" in r.text
    assert "# Deep Dive 0: The State of the Pipeline" in r.markdown
    assert "## Background and Context" in r.markdown
    # boilerplate stripped
    assert "Section A" not in r.text
    assert "Copyright" not in r.text
    assert "related story" not in r.text
    assert "tracking" not in r.text
    assert r.boilerplate_ratio < 0.5


def test_linkfarm_mostly_boilerplate():
    r = extract_main_content(make_linkfarm_page(0))
    assert r.n_content_blocks == 0 or r.boilerplate_ratio > 0.9


def test_markdown_lists():
    r = extract_main_content(make_article_page(1))
    assert any(line.startswith("- ") for line in r.markdown.splitlines())


def test_empty_and_garbage():
    assert extract_main_content("").text == ""
    r = extract_main_content("<<<< not really html &&& <p>but this paragraph "
                             "is long enough to count as content because it "
                             "keeps going and going with words</p>")
    assert "long enough" in r.text


def test_determinism():
    a = extract_main_content(make_article_page(2)).markdown
    b = extract_main_content(make_article_page(2)).markdown
    assert a == b


def test_sniff_payload_kind():
    assert sniff_payload_kind("%PDF-1.4\nxyz") == "pdf"
    assert sniff_payload_kind("<!DOCTYPE html><html></html>") == "html"
    assert sniff_payload_kind("  <div>hi</div>") == "html"
    assert sniff_payload_kind("plain words") == "unknown"


def test_html_batch_stage():
    t = build_html_table(50)
    out = html_extract_batch(t)
    assert out.num_rows == 50
    assert "markdown" in out.column_names
    err = [v for v in out["error_kind"].to_pylist() if v is not None]
    assert err == []
    # every article row extracted a title
    for fix, title in zip(out["fixture"].to_pylist(), out["title"].to_pylist()):
        if fix.startswith("article"):
            assert title and title.startswith("Article")


def test_html_ray_pipeline(ray_session):
    import ray.data

    t = build_html_table(120)
    ds = ray.data.from_arrow(t)
    out = ds.map_batches(html_extract_batch, batch_format="pyarrow").to_pandas()
    assert len(out) == 120
    arts = out[out.fixture.str.startswith("article")]
    assert (arts.n_content_blocks > 0).all()


def test_fixture_pool_deterministic():
    assert html_fixture_pool() == html_fixture_pool()


def test_mixed_payload_routing_pipeline(ray_session):
    """Mixed corpus through the routed block function on Ray: PDF rows get
    the PDF extractor, HTML rows the boilerplate stripper, and the rest an
    ``UnknownPayload`` error — the general main-content extraction shape."""
    import pyarrow as pa
    import ray.data

    from pdf_inspector_ray.sources.htmlgen import make_article_page
    from pdf_inspector_ray.sources.pdfgen import fixture_pool
    from pdf_inspector_ray.stages.routed import routed_block

    pdfs = fixture_pool()
    payloads = [pdfs["f01_tj_simple"].decode("latin-1"),
                make_article_page(0),
                pdfs["f09_headers_lists_code"].decode("latin-1"),
                make_article_page(1),
                "just plain words"]
    t = pa.table({"doc_id": pa.array(range(len(payloads)), pa.int64()),
                  "text": pa.array(payloads, pa.string())})
    out = ray.data.from_arrow(t).map_batches(
        routed_block, batch_format="pyarrow").to_pandas()

    pdf_out = out[out.payload_kind == "pdf"]
    html_out = out[out.payload_kind == "html"]
    assert len(pdf_out) == 2 and len(html_out) == 2
    assert pdf_out.markdown.str.contains("Annual Report").any()
    assert html_out.markdown.str.contains("Deep Dive 0").any()
    unknown = out[out.payload_kind == "unknown"]
    assert unknown.error_kind.tolist() == ["UnknownPayload"]


def test_routed_extract_stage_unit():
    """routed_block: one pass routes PDF bytes, HTML markup, and garbage
    to the right extractor / error column."""
    import pyarrow as pa

    from pdf_inspector_ray.pdfi.html import extract_main_content
    from pdf_inspector_ray.pdfi.process import process_pdf_mem
    from pdf_inspector_ray.sources.htmlgen import make_article_page
    from pdf_inspector_ray.sources.pdfgen import fixture_pool
    from pdf_inspector_ray.stages.routed import routed_block

    pdf = sorted(fixture_pool().items())[0][1].decode("latin-1")
    html = make_article_page(3)
    batch = pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "text": pa.array([pdf, html, "no markup here"], pa.string()),
    })
    out = routed_block(batch)
    kinds = out["payload_kind"].to_pylist()
    assert kinds == ["pdf", "html", "unknown"]
    mds = out["markdown"].to_pylist()
    assert mds[0] == process_pdf_mem(pdf.encode("latin-1")).markdown
    assert mds[1] == extract_main_content(html).markdown
    assert out["error_kind"].to_pylist()[2] == "UnknownPayload"
