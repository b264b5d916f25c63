"""Classify stage (SB): stateless ``map_batches`` UDF over Arrow batches.

Ray Data mapping of the reference's detect-pdf flow (SURVEY.md §2.2, C1-C8):
``ds.map_batches(classify_batch, batch_format="pyarrow")``. Pure CPU-bound
per-row work, no shared state → task pool, not actors. Errors become columns
(never raised) so one malformed payload cannot fail a block. No payload
cache: every row runs detection.
"""

from __future__ import annotations

import pyarrow as pa

from ..pdfi.detect import DetectionConfig, detect_pdf_type_mem
from .extract_stage import guarded, payload_columns, pdf_bytes

CLASSIFY_FIELDS = [
    ("pdf_type", pa.string()),
    ("page_count", pa.uint32()),
    ("pages_sampled", pa.uint32()),
    ("pages_with_text", pa.uint32()),
    ("confidence", pa.float32()),
    ("title", pa.string()),
    ("ocr_recommended", pa.bool_()),
    ("error_kind", pa.string()),
]


def classify_batch(batch: pa.Table,
                   config: DetectionConfig | None = None,
                   payload_column: str = "text") -> pa.Table:
    """Append classification columns to the batch (input columns pass
    through untouched — zero-copy for everything but the new arrays)."""
    def classify_one(payload) -> tuple:
        r = detect_pdf_type_mem(pdf_bytes(payload), config)
        return (r.pdf_type, r.page_count, r.pages_sampled, r.pages_with_text,
                r.confidence, r.title, r.ocr_recommended, None)
    return payload_columns(batch, payload_column, CLASSIFY_FIELDS,
                           guarded(CLASSIFY_FIELDS, classify_one))
