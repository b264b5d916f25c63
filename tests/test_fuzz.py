"""Fuzz robustness: mutated/truncated payloads must NEVER raise anything
but PdfError from the library, and never escape the pipeline error column.
At 10^12 turns, every weird byte pattern exists — the poison-pill guard is
a correctness feature (SURVEY.md §4.2)."""

import zlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pdf_inspector_ray.pdfi.objects import PdfError
from pdf_inspector_ray.pdfi.process import process_pdf_mem
from pdf_inspector_ray.sources.pdfgen import fixture_pool

POOL = sorted(fixture_pool().items())


def _process(data: bytes) -> None:
    try:
        process_pdf_mem(data)
    except PdfError:
        pass  # the only allowed failure mode


def _stages_total(data: bytes) -> None:
    """The payload, as latin-1 text and as bytes, next to a null payload,
    through every PDF payload stage: no call raises, and every row ends as
    output or a typed ``error_kind``. Routed PDF rows match the extract
    stage's."""
    import pyarrow as pa

    from pdf_inspector_ray.stages.classify import classify_batch
    from pdf_inspector_ray.stages.extract_stage import extract_block
    from pdf_inspector_ray.stages.plain_stage import plain_text_block
    from pdf_inspector_ray.stages.routed import routed_block

    stages = [(extract_block, "pdf_type", "error_kind"),
              (classify_batch, "pdf_type", "error_kind"),
              (plain_text_block, "plain_text", "plain_error_kind"),
              (routed_block, "payload_kind", "error_kind")]
    for payload, typ in ((data.decode("latin-1"), pa.string()),
                         (data, pa.binary())):
        block = pa.table({"text": pa.array([payload, None], typ)})
        outs = {}
        for fn, out_col, err_col in stages:
            out = outs[fn] = fn(block)
            errors = out[err_col].to_pylist()
            assert errors[1] == "Io"
            for value, error in zip(out[out_col].to_pylist(), errors):
                assert value is not None or error is not None, fn.__name__
        routed, extracted = outs[routed_block], outs[extract_block]
        if routed["payload_kind"][0].as_py() == "pdf":
            for col in ("markdown", "error_kind"):
                assert routed[col][0].as_py() == extracted[col][0].as_py(), col


@given(st.binary(min_size=0, max_size=4096))
@settings(max_examples=120, deadline=None)
def test_random_bytes_never_crash(data):
    _process(data)


@given(st.integers(0, len(POOL) - 1), st.data())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_mutated_fixtures_never_crash(idx, data):
    name, pdf = POOL[idx]
    n = len(pdf)
    mutated = bytearray(pdf)
    for _ in range(data.draw(st.integers(1, 8))):
        pos = data.draw(st.integers(0, n - 1))
        mutated[pos] = data.draw(st.integers(0, 255))
    _process(bytes(mutated))
    _stages_total(bytes(mutated))


@given(st.integers(0, len(POOL) - 1), st.floats(0.01, 0.99))
@settings(max_examples=80, deadline=None)
def test_truncated_fixtures_never_crash(idx, frac):
    name, pdf = POOL[idx]
    _process(pdf[: max(1, int(len(pdf) * frac))])
    _stages_total(pdf[: max(1, int(len(pdf) * frac))])


@given(st.integers(0, len(POOL) - 1), st.integers(0, 60))
@settings(max_examples=60, deadline=None)
def test_garbage_prefix_suffix(idx, pad):
    name, pdf = POOL[idx]
    _process(b"\xff" * pad + pdf + b"\x00" * pad)


def test_deflate_bomb_is_contained():
    """A wildly over-long /Length with valid flate data must not hang."""
    bomb = zlib.compress(b"A" * 1_000_000)
    pdf = (b"%PDF-1.4\n1 0 obj\n<< /Length " + str(len(bomb)).encode()
           + b" /Filter /FlateDecode >>\nstream\n" + bomb
           + b"\nendstream\nendobj\n")
    _process(pdf)


def test_pdf_header_only_variants():
    for data in (b"%PDF", b"%PDF-1.7", b"%PDF-1.4\n%%EOF",
                 b"%PDF-1.4\nstartxref\n99999999\n%%EOF\n"):
        _process(data)


@given(st.text(alphabet=st.sampled_from(list("<>/ab c=\"'!&;-%\n\t")),
               min_size=0, max_size=2048))
@settings(max_examples=150, deadline=None)
def test_html_extractor_never_crashes_on_markup_soup(soup):
    """extract_main_content must handle arbitrary tag soup: any exception
    is a bug (the stage's poison-pill guard would mask it into an error
    column, but the library contract is total)."""
    from pdf_inspector_ray.pdfi.html import extract_main_content

    r = extract_main_content("<html><body>" + soup + "</body></html>")
    assert isinstance(r.markdown, str)


@given(st.integers(0, 7), st.data())
@settings(max_examples=100, deadline=None)
def test_html_extractor_mutated_fixtures(idx, data):
    from pdf_inspector_ray.pdfi.html import extract_main_content
    from pdf_inspector_ray.sources.htmlgen import html_fixture_pool

    pool = [v for _, v in sorted(html_fixture_pool().items())]
    buf = list(pool[idx % len(pool)])
    for _ in range(data.draw(st.integers(1, 8))):
        p = data.draw(st.integers(0, len(buf) - 1))
        buf[p] = data.draw(st.sampled_from(list("<>/&\"'x ")))
    r = extract_main_content("".join(buf))
    assert isinstance(r.markdown, str)


@given(st.binary(min_size=0, max_size=512))
@settings(max_examples=300, deadline=None)
def test_filter_decoders_total_on_garbage(data):
    """LZW/ASCII85/RunLength decoders are total: any input yields bytes
    or PdfError — never another exception (the filter cascade's callers
    rely on catching PdfError only)."""
    from pdf_inspector_ray.pdfi.objects import (
        PdfError, _ascii85_decode, _lzw_decode, _runlength_decode)

    for fn in (_lzw_decode, _ascii85_decode, _runlength_decode):
        try:
            out = fn(data)
            assert isinstance(out, bytes)
        except PdfError:
            pass


@given(st.binary(min_size=0, max_size=300), st.sampled_from([0, 1]))
@settings(max_examples=150, deadline=None)
def test_lzw_roundtrip_fuzz(data, early):
    """Greedy encoder → decoder round-trip under both EarlyChange modes."""
    from pdf_inspector_ray.pdfi.objects import _lzw_decode
    from pdf_inspector_ray.sources.pdfgen import _lzw_encode

    if early == 1:
        assert _lzw_decode(_lzw_encode(data), early_change=1) == data


@given(st.binary(min_size=0, max_size=300))
@settings(max_examples=150, deadline=None)
def test_runlength_roundtrip_fuzz(data):
    from pdf_inspector_ray.pdfi.objects import _runlength_decode
    from pdf_inspector_ray.sources.pdfgen import _rl_encode

    assert _runlength_decode(_rl_encode(data)) == data


@given(st.binary(min_size=0, max_size=400),
       st.sampled_from(["image", "audio", "video"]))
@settings(max_examples=200, deadline=None)
def test_media_decoder_total_on_garbage(data, mtype):
    """RealMediaDecoder must surface every malformed payload in the
    error column — a bad byte string never raises out of the stage."""
    import pyarrow as pa

    from pdf_inspector_ray.functions.multimodal import RealMediaDecoder

    batch = pa.table({
        "media_id": pa.array([0], "int64"),
        "media_type": pa.array([mtype]),
        "payload": pa.array([data], pa.binary()),
    })
    out = RealMediaDecoder()(batch)
    assert out.num_rows == 1
    # either it decoded (valid-by-luck payload) or the error is set
    assert (out["error"][0].as_py() is not None
            or out["width"][0].as_py() is not None
            or out["n_samples"][0].as_py() is not None)


@given(st.integers(1, 20), st.integers(1, 20), st.integers(0, 120))
@settings(max_examples=100, deadline=None)
def test_bmp_truncation_contained(h, w, cut):
    """Truncated valid BMPs either decode (cut hits padding only) or
    surface as an error row — never an unhandled crash."""
    import numpy as np
    import pyarrow as pa

    from pdf_inspector_ray.functions.multimodal import (
        RealMediaDecoder, encode_bmp)

    rng = np.random.default_rng(h * 21 + w)
    payload = encode_bmp(
        rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8))
    batch = pa.table({
        "media_id": pa.array([0], "int64"),
        "media_type": pa.array(["image"]),
        "payload": pa.array([payload[:max(0, len(payload) - cut)]],
                            pa.binary()),
    })
    out = RealMediaDecoder()(batch)
    assert out.num_rows == 1


@given(st.integers(2, 40), st.integers(1, 39), st.integers(0, 120),
       st.integers(0, 2**31 - 1))
@settings(max_examples=120, deadline=None)
def test_chunk_documents_invariants(chunk, stride, n_tok, seed):
    """For any (chunk, stride<chunk, doc length): windows start every
    `stride`, cover every token, never exceed `chunk` tokens, and
    re-concatenating [0:stride] of each chunk plus the tail of the last
    reconstructs the token stream exactly."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from pdf_inspector_ray.functions.text_stats import chunk_documents

    if stride >= chunk:
        stride = chunk - 1 or 1
    rng = np.random.default_rng(seed)
    toks = [f"t{i}_{rng.integers(10)}" for i in range(n_tok)]
    text = " ".join(toks)
    t = pa.table({"doc_id": pa.array([7], pa.int64()),
                  "text": pa.array([text])})
    out = chunk_documents(ray.data.from_arrow(t), chunk_tokens=chunk,
                          stride=stride).to_pandas()
    if n_tok == 0:
        assert len(out) == 0
        return
    out = out.sort_values("chunk_idx")
    assert (out.n_tokens <= chunk).all() and (out.n_tokens >= 1).all()
    rebuilt = []
    rows = list(out.itertuples())
    for i, r in enumerate(rows):
        words = r.chunk_text.split(" ")
        assert len(words) == r.n_tokens
        rebuilt.extend(words if i == len(rows) - 1 else words[:stride])
    # the non-last chunks each contribute exactly `stride` fresh tokens
    assert rebuilt[:n_tok] == toks


# -- real media codecs: total on garbage (r5) --------------------------------
#
# The decode seam contract: corrupt/truncated/mutated payloads must raise
# ValueError (or a contained struct/zlib error the stage maps to the error
# column) — never crash the interpreter, hang, or return garbage silently.

_MEDIA_OK = (ValueError,)


def _decode_media_total(fn, data: bytes) -> None:
    import struct

    try:
        fn(data)
    except (ValueError, struct.error, zlib.error, EOFError):
        pass  # contained — RealMediaDecoder maps these to the error column


@given(st.binary(min_size=0, max_size=4096))
@settings(max_examples=150, deadline=None)
def test_media_decoders_total_on_random_bytes(data):
    from pdf_inspector_ray.functions.multimodal import (decode_avi,
                                                        decode_bmp,
                                                        decode_image,
                                                        decode_png,
                                                        decode_wav)
    for fn in (decode_bmp, decode_png, decode_avi, decode_wav,
               decode_image):
        _decode_media_total(fn, data)


@given(st.integers(0, 3), st.data())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_media_decoders_total_on_mutated_payloads(kind, data):
    """Flip bytes inside VALID payloads: decode must either succeed or
    raise a contained error — bit flips in length fields/filters must not
    crash numpy reshape or loop forever."""
    import numpy as np

    from pdf_inspector_ray.functions.multimodal import (decode_avi,
                                                        decode_bmp,
                                                        decode_png,
                                                        decode_wav,
                                                        encode_avi,
                                                        encode_bmp,
                                                        encode_png,
                                                        encode_wav)
    rng = np.random.default_rng(99)
    arr = rng.integers(0, 256, size=(9, 7, 3), dtype=np.uint8)
    payloads = [
        (encode_bmp(arr), decode_bmp),
        (encode_png(arr), decode_png),
        (encode_avi(rng.integers(0, 256, size=(3, 6, 5, 3),
                                 dtype=np.uint8), 10), decode_avi),
        (encode_wav(rng.integers(-32768, 32767, size=300,
                                 dtype=np.int16), 8000), decode_wav),
    ]
    payload, fn = payloads[kind]
    buf = bytearray(payload)
    for _ in range(data.draw(st.integers(1, 8))):
        pos = data.draw(st.integers(0, len(buf) - 1))
        buf[pos] = data.draw(st.integers(0, 255))
    _decode_media_total(fn, bytes(buf))


def test_round5_ops_partition_invariant(ray_session):
    """Every round-5 append, and every op on ``keyed_exchange`` /
    ``partitioned_sweep`` / ``grouped_topk`` / ``grouped_aggregate``,
    must give identical results
    regardless of how the input is partitioned (1, 3, 8 blocks) — the
    property that catches accidental per-block state (non-combined
    partials, local dedup standing in for global)."""
    import numpy as np
    import pyarrow as pa
    import ray.data
    from pdf_inspector_ray.functions.decontam import contaminated_train_docs
    from pdf_inspector_ray.functions.dedup import (
        connected_components, embedding_neardup_candidates, exact_dedup,
        jaccard_prefix_candidates, minhash_lsh_candidates, neardup_best_docs,
        prefix_contained_docs, simhash_candidates)
    from pdf_inspector_ray.functions.relational import (
        argmin_by_group, asof_join_events, cohort_retention,
        collect_distinct_sorted, conversion_latency_quantiles,
        cume_dist_by_group, customer_rfm, dedup_consecutive, distinct_count,
        event_kgrams, event_pair_lift, event_transitions,
        event_type_cooccurrence, events_weekday_profile, funnel_conversion,
        funnel_steps, grouped_aggregate, grouped_covariance, grouped_moments,
        grouped_topk, hourly_top_event, latest_event_per_user,
        longest_run_by_group, merge_intervals_by_group, mode_per_group,
        ntile_by_group, order_interarrival_quantiles, pivot_counts,
        rolling_active_users, range_join, rolling_event_stats, rollup_agg,
        running_totals, session_windows, set_op_ids, shipping_priority,
        top_customer_per_nation, top_revenue_orders, user_activity_gini,
        value_histogram)
    from pdf_inspector_ray.functions.sketch import cms_counters
    from pdf_inspector_ray.functions.text_stats import (
        dense_rank_column, grouped_quantiles, inverted_index, pack_sequences,
        source_simpson_diversity, source_vocab_jaccard, stratified_sample,
        term_doc_frequency, top_terms_by_group, vocab_size_by_group,
        zipf_topk_share)
    from pdf_inspector_ray.pipelines.flagship import conv_turn_gaps

    rng = np.random.default_rng(89)
    n = 1500
    ev = pa.table({
        "event_id": pa.array(range(n), pa.int64()),
        "ts": pa.array((rng.integers(0, 20 * 86_400, n) * 1_000_000)
                       .astype("datetime64[us]")),
        "user_id": pa.array(rng.integers(0, 25, n), pa.int64()),
        "event_type": pa.array(rng.choice(
            ["a", "b", "c", None], n, p=[0.4, 0.35, 0.2, 0.05])),
    })
    orders = pa.table({
        "o_custkey": pa.array(rng.integers(0, 40, 300), pa.int64()),
        "o_orderdate": pa.array((rng.integers(0, 10**6, 300)
                                 * 1_000_000).astype("datetime64[us]")),
        "o_totalprice": pa.array(np.round(rng.uniform(1, 9999, 300), 2)),
    })
    orders = orders.append_column(
        "o_orderkey", pa.array(np.arange(300), pa.int64())).append_column(
        "o_orderpriority", pa.array(rng.choice(["1-URGENT", "5-LOW"], 300)))
    customer = pa.table({
        "c_custkey": pa.array(np.arange(40), pa.int64()),
        "c_nationkey": pa.array(rng.integers(0, 4, 40), pa.int64())})
    nation = pa.table({"n_nationkey": pa.array(np.arange(4), pa.int64()),
                       "n_name": pa.array(["N0", "N1", "N2", "N3"])})
    lineitem = pa.table({
        "l_orderkey": pa.array(rng.integers(0, 300, 900), pa.int64()),
        "l_extendedprice": pa.array(np.round(rng.uniform(1, 999, 900), 2)),
        "l_discount": pa.array(np.round(rng.uniform(0, 0.1, 900), 2))})
    # a string key with nulls: conv_turn_gaps drops null conv_ids
    conv = pa.table({
        "conv_id": pa.array([f"c{i}" for i in rng.integers(0, 30, 500)],
                            mask=rng.random(500) < 0.03),
        "turn_idx": pa.array(rng.permutation(500), pa.int64()),
        "ts": pa.array((rng.integers(0, 10**6, 500) * 1_000_000)
                       .astype("datetime64[us]")),
    })
    words = np.array(["alpha", "beta", "gamma", "delta", "eps", "zeta"])
    docs = pa.table({
        "doc_id": pa.array(np.arange(300), pa.int64()),
        "text": pa.array([" ".join(rng.choice(words, rng.integers(1, 5)))
                          for _ in range(300)],
                         mask=rng.random(300) < 0.03),
        "lang": pa.array(rng.choice(["en", "de", "fr"], 300)),
        "source": pa.array(rng.choice(["s1", "s2", "s3", "s4"], 300)),
        "n_chars": pa.array(rng.integers(0, 40, 300), pa.int64()),
    })
    iv = pa.table({
        "user_id": pa.array(rng.integers(0, 15, 400), pa.int64()),
        "s": pa.array(rng.integers(0, 10**6, 400), pa.int64()),
        "e": pa.array(rng.integers(0, 10**6, 400), pa.int64()),
    })

    # near-duplicate docs for the dedup exchanges: each of 40 stems has a
    # few copies with one word swapped or a truncated tail, so buckets,
    # pairs, prefix chains and shared grams all occur
    vocab = np.array([f"w{i}" for i in range(30)])
    near = []
    for stem in range(40):
        words = list(rng.choice(vocab, rng.integers(6, 14)))
        for _ in range(rng.integers(1, 4)):
            v = list(words)
            v[rng.integers(len(v))] = str(rng.choice(vocab))
            near.append(" ".join(v))
        near.append(" ".join(words[:rng.integers(3, len(words))]))
        near.append(" ".join(words))
    nd = pa.table({"doc_id": pa.array(rng.permutation(len(near)) * 3,
                                      pa.int64()),
                   "text": pa.array(near),
                   "n_chars": pa.array([len(x) % 7 for x in near],
                                       pa.int64())})
    comp_nodes = nd["doc_id"].to_numpy()[:60]
    comp = pa.table({"node": pa.array(np.append(comp_nodes, [-1, -2]),
                                      pa.int64()),
                     "label": pa.array(np.append(
                         comp_nodes // 25, [-7, -7]), pa.int64())})
    # per-user non-overlapping intervals for the range join
    iv_user = np.repeat(np.arange(25), 4)
    iv_start = (np.tile(np.arange(4) * 5, 25) * 86_400
                + rng.integers(0, 2 * 86_400, 100)) * 1_000_000
    ivs = pa.table({
        "user_id": pa.array(iv_user, pa.int64()),
        "s": pa.array(iv_start.astype("datetime64[us]")),
        "e": pa.array((iv_start + rng.integers(0, 3 * 86_400, 100)
                       * 1_000_000).astype("datetime64[us]")),
    })

    # per-user sweeps: user 7 holds about half the rows, 12 rows have a
    # null user_id, and hour-granular ts leaves ties for event_id to break
    users = np.where(rng.random(n) < 0.5, 7, rng.integers(0, 25, n))
    null_user = np.zeros(n, dtype=bool)
    null_user[rng.choice(n, 12, replace=False)] = True
    sk = ev.set_column(2, "user_id", pa.array(users, pa.int64(),
                                              mask=null_user))
    sk = sk.set_column(1, "ts", pa.array(
        (rng.integers(0, 20 * 24, n) * 3_600_000_000)
        .astype("datetime64[us]"))).append_column(
            "value", pa.array(np.round(rng.uniform(0, 50, n), 2)))

    # a random pair graph for connected_components (own generator, so
    # the tables above keep their draws)
    edges = np.random.default_rng(5).integers(0, 60, (2, 80))
    cc_pairs = pa.table({"doc_a": pa.array(edges[0], pa.int64()),
                         "doc_b": pa.array(edges[1], pa.int64())})
    # embeddings for the hyperplane LSH: 280 noisy copies of one vector
    # (buckets past MAX_BUCKET, split by sign bits) and 60 scattered ones
    erng = np.random.default_rng(13)
    vecs = np.vstack([erng.normal(size=16) + 0.05 * erng.normal(
        size=(280, 16)), erng.normal(size=(60, 16))])
    emb = pa.table({"vec_id": pa.array(erng.permutation(len(vecs)),
                                       pa.int64()),
                    "embedding": pa.array(list(vecs.astype(np.float32)),
                                          pa.list_(pa.float32()))})

    cases = [
        (session_windows, sk, ["user_id", "session_start"]),
        (running_totals, sk, ["event_id"]),
        (lambda d: rolling_event_stats(d, window=4), sk, ["event_id"]),
        (dedup_consecutive, sk, ["event_id"]),
        (longest_run_by_group, sk, ["user_id"]),
        (lambda d: asof_join_events(d, "a", "b"), sk, ["event_id"]),
        (lambda d: funnel_conversion(d, "a", "b", 2 * 86_400_000_000), sk,
         ["event_id"]),
        (lambda d: grouped_topk(d, "user_id",
                                [("value", "descending"), "event_id"], 3),
         sk, ["event_id"]),
        (latest_event_per_user, sk, ["user_id"]),
        (lambda d: argmin_by_group(d, "user_id", "value", "event_id"), sk,
         ["user_id"]),
        (lambda d: mode_per_group(d, "event_type", "user_id"), sk,
         ["event_type"]),
        (cohort_retention, sk, ["cohort_week", "week_offset"]),
        (event_transitions, sk, ["from_type", "to_type"]),
        (lambda d: funnel_steps(d, ("a", "b", "c")), sk, ["stage_idx"]),
        (lambda d: conversion_latency_quantiles(d, "a", "b"), sk,
         ["n_converted"]),
        (lambda d: collect_distinct_sorted(d, "user_id", "event_type"), sk,
         ["user_id"]),
        (event_pair_lift, ev, ["type_a", "type_b"]),
        (lambda d: event_kgrams(d, k=3, min_count=2), ev, ["gram"]),
        (longest_run_by_group, ev, ["user_id"]),
        (event_type_cooccurrence, ev, ["type_a", "type_b"]),
        (events_weekday_profile, ev, ["dow", "event_type"]),
        (hourly_top_event, ev, ["hour"]),
        (rolling_active_users, ev.select(["ts", "user_id"]), ["day"]),
        # event_type holds nulls: the null key must be one group
        (lambda d: distinct_count(d, "event_type", "user_id"), ev,
         ["event_type"]),
        (lambda d: grouped_covariance(d, "event_type", "value", "event_id"),
         sk, ["event_type"]),
        (merge_intervals_by_group, iv, ["user_id"]),
        (customer_rfm, orders, ["o_custkey"]),
        (order_interarrival_quantiles, orders, ["n_gaps"]),
        (lambda d: top_customer_per_nation(
            d, ray.data.from_arrow(customer), nation, num_partitions=8),
         orders, ["n_name"]),
        (lambda d: shipping_priority(
            ray.data.from_arrow(customer), d, ray.data.from_arrow(lineitem),
            num_partitions=8), orders, ["o_orderkey"]),
        (conv_turn_gaps, conv, ["conv_id"]),
        (exact_dedup, docs, ["doc_id"]),
        (lambda d: top_terms_by_group(d, "lang", k=3), docs,
         ["lang", "term"]),
        (lambda d: stratified_sample(d, "lang", 4), docs, ["doc_id"]),
        (source_vocab_jaccard, docs, ["source_a", "source_b"]),
        (lambda d: dense_rank_column(d, "n_chars"), docs, ["doc_id"]),
        (lambda d: set_op_ids(d, ray.data.from_arrow(docs.slice(150)),
                              "doc_id", "intersect"), docs, ["doc_id"]),
        (lambda d: set_op_ids(d, ray.data.from_arrow(docs.slice(150)),
                              "doc_id", "except"), docs, ["doc_id"]),
        (inverted_index, nd, ["term"]),
        (lambda d: contaminated_train_docs(d, k=2), nd, ["doc_id"]),
        (lambda d: jaccard_prefix_candidates(d, threshold=0.6), nd,
         ["doc_a", "doc_b"]),
        (lambda d: minhash_lsh_candidates(d, num_perm=32, bands=16), nd,
         ["doc_a", "doc_b"]),
        (simhash_candidates, nd, ["doc_a", "doc_b"]),
        (lambda d: embedding_neardup_candidates(
            d, dim=16, num_tables=4, planes_per_table=4), emb,
         ["doc_a", "doc_b"]),
        (lambda d: prefix_contained_docs(d, min_len=8), nd, ["doc_id"]),
        (lambda d: neardup_best_docs(d, ray.data.from_arrow(comp), d,
                                     score_columns=("n_chars",)), nd,
         ["doc_id"]),
        (lambda d: range_join(d, ray.data.from_arrow(ivs), "user_id", "ts",
                              "s", "e"), sk, ["event_id"]),
        (lambda d: grouped_aggregate(d, ["event_type", "user_id"],
                                     {"n": "count", "event_id": "max"}),
         sk, ["event_type", "user_id"]),
        (lambda d: pivot_counts(d, "user_id", "event_type", ["a", "b"]), sk,
         ["user_id"]),
        (lambda d: value_histogram(d, "value", 5.0), sk, ["bin"]),
        (lambda d: grouped_moments(d, "event_type", "value"), sk,
         ["event_type"]),
        (user_activity_gini, ev, ["n_users"]),
        (lambda d: top_revenue_orders(d, k=20), lineitem, ["l_orderkey"]),
        (connected_components, cc_pairs, ["node"]),
        (lambda d: term_doc_frequency(d, min_df=1), nd, ["term"]),
        (source_simpson_diversity, docs, ["source"]),
        (lambda d: cms_counters(d, "n_chars"), docs, ["depth", "bucket"]),
        (lambda d: grouped_quantiles(d, "lang", "n_chars"), docs, ["lang"]),
        (lambda d: rollup_agg(d, ["lang", "source"], "n_chars"), docs,
         ["lang", "source"]),
        (lambda d: ntile_by_group(d, "lang", "n_chars", "doc_id"), docs,
         ["doc_id"]),
        (lambda d: cume_dist_by_group(d, "lang", "n_chars", "doc_id"), docs,
         ["doc_id"]),
        (lambda d: pack_sequences(d, bin_budget=64, shard_size=50), docs,
         ["doc_id"]),
        (vocab_size_by_group, docs, ["source"]),
        (lambda d: zipf_topk_share(d, k=2), docs, ["source"]),
    ]
    for fn, table, keys in cases:
        base = None
        for parts in (1, 3, 8):
            out = (fn(ray.data.from_arrow(table).repartition(parts))
                   .to_pandas().sort_values(keys).reset_index(drop=True))
            if base is None:
                base = out
            else:
                assert base.equals(out), (fn.__name__, keys, parts)


# -- decode_content's one-pass scan against the token-at-a-time scanner ----

_SEP = st.sampled_from([b" ", b"  ", b"\n", b"\r\n", b"\t", b"\x00", b"\x0c",
                        b""])
_NUMBER = st.one_of(
    st.sampled_from([b"+.5", b"5.", b"1.2.3", b"-", b".", b"+-1", b"-0",
                     b"007", b"3..4", b"12abc"]),
    st.tuples(st.sampled_from([b"", b"+", b"-"]),
              st.sampled_from([b"", b"0", b"7", b"42", b"612"]),
              st.sampled_from([b"", b".", b".5", b".25"]))
    .map(b"".join).filter(bool))
_NAME = st.lists(st.sampled_from([b"F", b"1", b"#20", b"#2", b"#zz", b"a",
                                  b"-", b"."]), max_size=4).map(
    lambda parts: b"/" + b"".join(parts))
_SIMPLE_LITERAL = st.lists(st.sampled_from(
    [b"abc", b" ", b"\xe9", b"<", b">", b"[", b"]", b"%", b"\n", b"/"]),
    max_size=4).map(lambda parts: b"(" + b"".join(parts) + b")")
_LITERAL_PART = st.sampled_from(
    [b"abc", b" ", b"\\(", b"\\)", b"\\\\", b"\\n", b"\\053", b"\\7",
     b"\\\n", b"\\\r\n", b"\\q", b"\xe9", b")", b"("])
_LITERAL = st.recursive(
    st.lists(_LITERAL_PART, max_size=4).map(b"".join),
    lambda inner: st.lists(st.one_of(_LITERAL_PART,
                                     inner.map(lambda b: b"(" + b + b")")),
                           max_size=4).map(b"".join),
    max_leaves=8).map(lambda b: b"(" + b + b")")
_HEX = st.lists(st.sampled_from([b"4", b"1", b"a", b"F", b" ", b"\n", b"z",
                                 b"g", b"<"]), max_size=7).map(
    lambda parts: b"<" + b"".join(parts) + b">")
_COMMENT = st.sampled_from([b"% c\n", b"%(x) Tj\r", b"%<<\n", b"%"])
_STRAY = st.sampled_from([b"]", b")", b"{", b"}", b">", b"["])
_OPERATOR = st.sampled_from([b"Tj", b"TJ", b"Td", b"BT", b"ET", b"Tf", b"q",
                             b"Q", b"cm", b"true", b"false", b"null", b"BIX",
                             b"EI", b"'", b'"', b"T*", b"BDC", b"EMC"])
_SLOW_ONLY = st.one_of(
    _LITERAL,
    st.sampled_from([b"<< /MCID 0 >>", b"<</K [1 2] /S (x)>>", b"<<",
                     b"<< /A << /B 1 >> >>", b"<4a", b"BI",
                     b"/P << /MCID 3 >> BDC"]),
    st.sampled_from([b"\x00\xffEI\x01", b"abc", b"", b"EI"]).map(
        lambda data: b"BI /W 1 /H 1 ID " + data + b" EI"))
_ARRAY = st.recursive(
    st.one_of(_NUMBER, _NAME, _SIMPLE_LITERAL, _HEX),
    lambda inner: st.lists(st.tuples(inner, _SEP), max_size=4).map(
        lambda items: b"[" + b"".join(t + sep for t, sep in items) + b"]"),
    max_leaves=8)
_FAST_TOKEN = st.one_of(_NUMBER, _NUMBER, _OPERATOR, _OPERATOR, _NAME,
                        _SIMPLE_LITERAL, _HEX, _ARRAY, _COMMENT, _STRAY)


def _typed(v):
    """An operand with its type at every level (True != 1, Name != str,
    PdfString != bytes)."""
    from pdf_inspector_ray.pdfi.objects import Stream
    if isinstance(v, list):
        return ("list", [_typed(x) for x in v])
    if isinstance(v, dict):
        return ("dict", [(k, _typed(x)) for k, x in v.items()])
    if isinstance(v, Stream):
        return ("Stream", _typed(v.dict), v.raw)
    return (type(v).__name__, v)


@given(st.one_of(st.lists(st.tuples(_FAST_TOKEN, _SEP), max_size=30),
                 st.lists(st.tuples(st.one_of(_FAST_TOKEN, _SLOW_ONLY), _SEP),
                          max_size=30)),
       st.data())
@settings(max_examples=1000, deadline=None)
def test_decode_content_matches_slow_scanner(tokens, data):
    """The one-pass scan gives the token-at-a-time scanner's operations,
    operator and operands type-exact, on content-operator soup cut at any
    byte (mid-number, mid-literal, mid-hex, mid-dict)."""
    from pdf_inspector_ray.pdfi.objects import (_decode_content_slow,
                                                decode_content)

    stream = b"".join(tok + sep for tok, sep in tokens)
    stream = stream[: data.draw(st.integers(0, len(stream)))]

    def typed_ops(ops):
        return [(type(o.operator), o.operator, _typed(o.operands))
                for o in ops]

    assert typed_ops(decode_content(stream)) == \
        typed_ops(_decode_content_slow(stream))


def test_decode_content_slow_path_only_for_its_tokens(monkeypatch):
    """Only a non-simple literal, '<<', an unterminated '<' and BI send a
    stream to the slow scanner; everything else is read in the one pass."""
    from pdf_inspector_ray.pdfi import objects

    def slow(data):
        raise LookupError(data)

    monkeypatch.setattr(objects, "_decode_content_slow", slow)
    objects.decode_content(
        b"BT /F#201 12 Tf 1 0 0 1 +.5 5. Tm (simple) Tj <4a 6z> Tj <4> Tj"
        b" [(a) -120 (b)] TJ % note\n ] ) { } > true false null 1.2.3 ET")
    for stream in (b"(a\\) b) Tj", b"(a (b) c) Tj", b"/P << /MCID 0 >> BDC",
                   b"<4a", b"BI /W 1 ID x EI", b"(ok) Tj (cut"):
        with pytest.raises(LookupError):
            objects.decode_content(stream)
