"""Routed main-content extraction (SB): one task-pool block function that
sniffs each payload (PDF bytes vs HTML markup) and runs the matching
extractor — the north rule's unified "HTML boilerplate strip, PDF/layout
parse" shape behind a single router, in ONE pass over the corpus (no
filter+union double-scan).

Usage: ``ds.map_batches(routed_block, batch_format="pyarrow")``; each
distinct payload of a block is sniffed and extracted once.
"""

from __future__ import annotations

import pyarrow as pa

from ..pdfi.html import extract_main_content
from ..pdfi.process import process_pdf_mem
from .extract_stage import guarded, payload_columns, pdf_bytes
from .html_stage import sniff_payload_kind

ROUTED_FIELDS = [
    ("payload_kind", pa.string()),
    ("markdown", pa.large_string()),
    ("error_kind", pa.string()),
]


def _pdf_markdown(payload) -> tuple:
    return (process_pdf_mem(pdf_bytes(payload)).markdown, None)


def _html_markdown(payload) -> tuple:
    return (extract_main_content(payload).markdown, None)


# each extractor is guarded on its own, so a failed row keeps its kind
_EXTRACT = {"pdf": guarded(ROUTED_FIELDS[1:], _pdf_markdown),
            "html": guarded(ROUTED_FIELDS[1:], _html_markdown)}


def _route_one(payload) -> tuple:
    kind = sniff_payload_kind(payload)
    if kind in _EXTRACT:
        return (kind, *_EXTRACT[kind](payload))
    return (kind, None, "UnknownPayload")


def routed_block(batch: pa.Table, payload_column: str = "text") -> pa.Table:
    """Task UDF: payload → (payload_kind, markdown, error_kind) columns."""
    return payload_columns(batch, payload_column, ROUTED_FIELDS,
                           guarded(ROUTED_FIELDS, _route_one, cache=True))
