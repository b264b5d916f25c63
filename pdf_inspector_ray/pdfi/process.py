"""Top-level per-document processing: inspect → classify → extract → render.

Port of /root/reference/src/lib.rs:91-133 (``process_pdf_mem``): detect,
route on pdf_type (TextBased → extract+markdown; Scanned/ImageBased → early
return with OCR flag; Mixed → best-effort extract), measure wall time.

This is exactly the function the Ray extract actor calls once per row with
the turn's ``text`` payload bytes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from .detect import DetectionConfig, PdfTypeResult, detect_from_document
from .extract import extract_positioned_text_from_doc
from .markdown import MarkdownOptions, to_markdown_from_items
from .objects import Document, PdfError
from .tounicode import FontCMaps


@dataclass
class PdfProcessResult:
    """lib.rs:23-34 (+ detection detail columns the pipeline exports)."""

    pdf_type: str
    text: Optional[str]
    markdown: Optional[str]
    page_count: int
    processing_time_ms: int
    detection: Optional[PdfTypeResult] = None


def _read_pdf_file(path: str) -> bytes:
    """File → bytes with the reference's error contract (lib.rs:44-47,
    61-64: a missing/unreadable path is an Io error, not a raw OSError)."""
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError as e:
        raise PdfError(f"cannot read {path}: {e}", kind="Io") from e


def process_pdf(
    path: str,
    detection_config: Optional[DetectionConfig] = None,
    markdown_options: Optional[MarkdownOptions] = None,
) -> PdfProcessResult:
    """File-path variant of ``process_pdf_mem`` (lib.rs:36-56
    ``extract_text`` / ``extract_text_with_positions`` entry shape)."""
    return process_pdf_mem(_read_pdf_file(path), detection_config,
                           markdown_options)


def detect_pdf_type(
    path: str,
    detection_config: Optional[DetectionConfig] = None,
) -> PdfTypeResult:
    """File-path variant of detection (lib.rs:58-66 ``detect_pdf_type``)."""
    from .detect import detect_pdf_type_mem

    return detect_pdf_type_mem(_read_pdf_file(path), detection_config)


def process_pdf_mem(
    buffer: bytes,
    detection_config: Optional[DetectionConfig] = None,
    markdown_options: Optional[MarkdownOptions] = None,
) -> PdfProcessResult:
    """lib.rs:91-133. Raises PdfError on unparseable/encrypted input —
    the Ray stage catches it into the error column."""
    start = time.perf_counter()
    # One parse shared between classify and extract (the reference parses the
    # buffer three times — detect metadata, detect full, extract full; the
    # compatibility contract is behavior, not structure — SURVEY.md §3.3).
    doc = Document.load_mem(buffer)
    detection = detect_from_document(doc, doc.page_count(),
                                     detection_config or DetectionConfig())

    # TextBased and Mixed are extracted; Mixed is best-effort (lib.rs:119
    # `.ok()`), so only TextBased raises. Scanned/ImageBased stop here with
    # the OCR flag set by detection.
    markdown = None
    if detection.pdf_type in ("TextBased", "Mixed"):
        try:
            items = extract_positioned_text_from_doc(
                doc, FontCMaps.from_pdf_bytes(buffer))
            markdown = to_markdown_from_items(items, markdown_options)
        except PdfError:
            if detection.pdf_type == "TextBased":
                raise
    return PdfProcessResult(
        pdf_type=detection.pdf_type,
        text=None,
        markdown=markdown,
        page_count=detection.page_count,
        processing_time_ms=int((time.perf_counter() - start) * 1000),
        detection=detection,
    )
