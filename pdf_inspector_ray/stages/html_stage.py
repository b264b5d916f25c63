"""HTML main-content extraction stage (SB) + the payload sniffer.

``html_extract_batch`` is a stateless ``map_batches`` UDF over an ``html``
string column. ``sniff_payload_kind`` tells PDF bytes from HTML markup (or
neither) for ``stages/routed.py``, which fans a mixed corpus through the
right extractor — the general "main-content extraction" shape of the north
rule.
"""

from __future__ import annotations

import pyarrow as pa

from ..pdfi.html import extract_main_content
from .extract_stage import guarded, payload_columns

HTML_FIELDS = [
    ("title", pa.string()),
    ("main_text", pa.large_string()),
    ("markdown", pa.large_string()),
    ("n_blocks", pa.int32()),
    ("n_content_blocks", pa.int32()),
    ("boilerplate_ratio", pa.float64()),
    ("error_kind", pa.string()),
]


def sniff_payload_kind(payload: str | bytes) -> str:
    """'pdf' | 'html' | 'unknown' from the payload head."""
    head = payload[:1024]
    if isinstance(head, str):
        head_b = head.encode("latin-1", "replace")
    else:
        head_b = bytes(head)
    if b"%PDF" in head_b:
        return "pdf"
    stripped = head_b.lstrip()
    if (stripped[:1] == b"<"
            or b"<html" in head_b.lower()
            or b"<!doctype" in head_b.lower()):
        return "html"
    return "unknown"


def _html_one(html) -> tuple:
    r = extract_main_content(html)
    return (r.title, r.text, r.markdown, r.n_blocks, r.n_content_blocks,
            r.boilerplate_ratio, None)


def html_extract_batch(batch: pa.Table, html_column: str = "html") -> pa.Table:
    return payload_columns(batch, html_column, HTML_FIELDS,
                           guarded(HTML_FIELDS, _html_one))
