"""Broadened behavioral coverage: 40 seeded prose PDFs of varying shape
through the full per-document flow and the Ray pipeline, asserting
determinism and pipeline==library equality (per-turn text equality on a
much wider input space than the handcrafted fixtures), plus a frozen
digest of a larger prose corpus that pins every output byte.

Regenerate the digest only after a reviewed behaviour change, with:
    PYTHONPATH=. python tests/test_prose_corpus.py > tests/golden/prose_digest.json
"""

import hashlib
import json
import os

import pyarrow as pa
import pytest

from pdf_inspector_ray.pdfi.extract import extract_positioned_text_from_doc
from pdf_inspector_ray.pdfi.objects import Document, PdfError
from pdf_inspector_ray.pdfi.process import process_pdf_mem
from pdf_inspector_ray.pdfi.tounicode import FontCMaps
from pdf_inspector_ray.sources.pdfgen import make_prose_pdf

N_DOCS = 40
DIGEST_DOCS = 200
DIGEST_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "prose_digest.json")


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


def _digest_corpus():
    """Each of DIGEST_DOCS seeded docs whole, then with its first content
    stream cut at 20-79% of its length (varied by seed), so the cut lands
    mid-token: in a literal, a number or an operator."""
    for seed in range(DIGEST_DOCS):
        data = make_prose_pdf(seed)
        yield seed, data
        start = data.index(b"stream\n") + 7
        end = data.index(b"endstream", start)
        cut = start + (end - start) * (20 + seed % 60) // 100
        yield seed, data[:cut] + b"\n" + data[end:]


def _digest_record(data: bytes) -> str:
    """pdf_type, page count and markdown (or the error kind) of
    ``process_pdf_mem``, then every ``TextItem`` field of the positioned
    extractor, floats at full repr."""
    try:
        r = process_pdf_mem(data)
        head = f"ok {r.pdf_type!r} {r.page_count} {r.markdown!r}"
    except PdfError as e:
        head = f"err {e.kind}"
    try:
        items = extract_positioned_text_from_doc(
            Document.load_mem(data), FontCMaps.from_pdf_bytes(data))
    except PdfError as e:
        return f"{head}\nitems err {e.kind}"
    rows = [repr((it.text, it.x, it.y, it.width, it.height, it.font,
                  it.font_size, it.page, it.is_bold, it.is_italic,
                  it.item_type, it.link)) for it in items]
    return "\n".join([head, f"items {len(rows)}", *rows])


def prose_corpus_digest() -> str:
    h = hashlib.sha256()
    for seed, data in _digest_corpus():
        h.update(f"{seed} {len(data)}\n{_digest_record(data)}\n"
                 .encode("utf-8"))
    return h.hexdigest()


def test_prose_corpus_digest_frozen():
    """Output bytes on the prose corpus are frozen: a hot-path change that
    alters one markdown byte or one float bit of one item fails here."""
    with open(DIGEST_PATH) as f:
        expected = json.load(f)
    assert expected["n_docs"] == DIGEST_DOCS
    assert prose_corpus_digest() == expected["sha256"]


if __name__ == "__main__":
    print(json.dumps({"n_docs": DIGEST_DOCS, "sha256": prose_corpus_digest()},
                     indent=1))
