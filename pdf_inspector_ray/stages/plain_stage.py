"""Legacy plain-text stage (SB): ``extract_text_mem`` (E2, reference
src/extractor.rs:833-851) → plain-text ``to_markdown`` (M15, reference
src/markdown.rs:60-113) as a task-pool ``map_batches`` block function.

Same shape as the flagship ``extract_block``: a payload-identity cache
scoped to one call (transcript corpora repeat attachments heavily), errors
surfaced as a column — never a throw.
"""

from __future__ import annotations

import pyarrow as pa

from ..pdfi.extract import extract_text_mem
from ..pdfi.markdown import to_markdown
from .extract_stage import guarded, payload_columns, pdf_bytes

PLAIN_FIELDS = [
    ("plain_text", pa.large_string()),
    ("plain_markdown", pa.large_string()),
    ("plain_error_kind", pa.string()),
]


def _plain_one(payload) -> tuple:
    plain = extract_text_mem(pdf_bytes(payload))
    return (plain, to_markdown(plain), None)


def plain_text_block(batch: pa.Table) -> pa.Table:
    """Task UDF: the ``text`` payloads of one block → PLAIN_FIELDS columns,
    each distinct payload parsed once."""
    return payload_columns(batch, "text", PLAIN_FIELDS,
                           guarded(PLAIN_FIELDS, _plain_one, cache=True))


def plain_text_pipeline(ds):
    """Corpus dataset → dataset with the PLAIN_FIELDS columns appended."""
    return ds.map_batches(plain_text_block, batch_format="pyarrow")
