"""Broadened behavioral coverage: 40 seeded prose PDFs of varying shape
through the full per-document flow and the Ray pipeline, asserting
determinism and pipeline==library equality (per-turn text equality on a
much wider input space than the handcrafted fixtures)."""

import pyarrow as pa
import pytest

from pdf_inspector_ray.pdfi.objects import PdfError
from pdf_inspector_ray.pdfi.process import process_pdf_mem
from pdf_inspector_ray.sources.pdfgen import make_prose_pdf

N_DOCS = 40


@pytest.fixture(scope="module")
def prose_docs():
    return {i: make_prose_pdf(i) for i in range(N_DOCS)}


def test_all_parse_and_classify(prose_docs):
    for i, data in prose_docs.items():
        r = process_pdf_mem(data)
        assert r.pdf_type == "TextBased", i
        assert r.markdown, i
        assert r.page_count >= 1


def test_generator_and_output_deterministic(prose_docs):
    for i in (0, 7, 23):
        assert make_prose_pdf(i) == prose_docs[i]
        a = process_pdf_mem(prose_docs[i]).markdown
        b = process_pdf_mem(prose_docs[i]).markdown
        assert a == b


def test_pipeline_matches_library(ray_session, prose_docs):
    import ray.data

    from pdf_inspector_ray.pipelines.flagship import extract_pipeline

    table = pa.table({
        "doc_id": pa.array(list(prose_docs), pa.int64()),
        "text": pa.array([d.decode("latin-1") for d in prose_docs.values()],
                         pa.string()),
    })
    out = extract_pipeline(ray.data.from_arrow(table),
                           concurrency=4).to_pandas()
    assert len(out) == N_DOCS
    for _, row in out.iterrows():
        golden = process_pdf_mem(prose_docs[row.doc_id].decode("latin-1")
                                 .encode("latin-1"))
        assert row.pdf_type == golden.pdf_type, row.doc_id
        assert row.markdown == golden.markdown, row.doc_id
        assert row.error_kind is None


def test_structure_detected(prose_docs):
    """At least some generated docs exercise headings, lists, and tables."""
    mds = [process_pdf_mem(d).markdown for d in prose_docs.values()]
    assert any(m.startswith("# ") for m in mds)
    assert any("\n- " in m or m.startswith("- ") for m in mds)
    assert any("| ---" in m for m in mds)
