"""Conformance ports of /root/reference/src/extractor.rs:2443-2674 tests
plus detector scan (/root/reference/src/detector.rs:424-447)."""

import pytest

from pdf_inspector_ray.pdfi.detect import scan_content_for_text_operators
from pdf_inspector_ray.pdfi.extract import (
    TextItem,
    group_into_lines,
    is_bold_font,
    is_italic_font,
)
from pdf_inspector_ray.pdfi.objects import PdfError


def make_item(text, x, y, width=10.0, font_size=12.0, font="F1", page=1):
    return TextItem(text, x, y, width, font_size, font, font_size, page,
                    False, False)


def test_scan_content_operators():
    ops, imgs = scan_content_for_text_operators(
        b"BT /F1 12 Tf 100 700 Td (Hello World) Tj ET")
    assert ops == 1 and not imgs
    ops2, _ = scan_content_for_text_operators(
        b"BT /F1 12 Tf 100 700 Td [(H) 10 (ello)] TJ ET")
    assert ops2 == 1
    ops3, imgs3 = scan_content_for_text_operators(
        b"q 100 0 0 100 50 700 cm /Img1 Do Q")
    assert ops3 == 0 and imgs3


def test_group_into_lines():
    items = [
        make_item("Hello", 100.0, 700.0, width=50.0),
        make_item("World", 160.0, 700.0, width=50.0),
        make_item("Next line", 100.0, 680.0, width=80.0),
    ]
    lines = group_into_lines(items)
    assert len(lines) == 2
    assert lines[0].text() == "Hello World"
    assert lines[1].text() == "Next line"


def test_bold_italic_detection():
    assert is_bold_font("Arial-Bold")
    assert is_bold_font("TimesNewRoman-Bold")
    assert is_bold_font("Helvetica-BoldOblique")
    assert is_bold_font("ABCDEF+ArialMT-Bold")
    assert is_bold_font("NotoSans-Black")
    assert is_bold_font("Roboto-SemiBold")
    assert not is_bold_font("Arial")
    assert not is_bold_font("TimesNewRoman-Italic")

    assert is_italic_font("Arial-Italic")
    assert is_italic_font("TimesNewRoman-Italic")
    assert is_italic_font("Helvetica-Oblique")
    assert is_italic_font("ABCDEF+ArialMT-Italic")
    assert is_italic_font("Helvetica-BoldOblique")
    assert not is_italic_font("Arial")
    assert not is_italic_font("TimesNewRoman-Bold")

    assert is_bold_font("Arial-BoldItalic")
    assert is_italic_font("Arial-BoldItalic")


def test_word_level_items_get_spaces():
    # CID font per-word items touching with gap=0 must stay separate words
    items = [
        make_item("the", 100.0, 500.0, width=19.5, font="C2_0"),
        make_item("Prague", 119.5, 500.0, width=42.0, font="C2_0"),
        make_item("Rules", 161.5, 500.0, width=35.0, font="C2_0"),
    ]
    lines = group_into_lines(items)
    assert len(lines) == 1
    assert lines[0].text() == "the Prague Rules"


def test_single_char_items_still_join():
    items = [
        make_item("N", 100.0, 500.0, width=8.0),
        make_item("A", 108.0, 500.0, width=8.0),
        make_item("V", 116.0, 500.0, width=8.0),
    ]
    lines = group_into_lines(items)
    assert len(lines) == 1
    assert lines[0].text() == "NAV"


def test_cjk_items_join_without_spaces():
    items = [
        make_item("である", 100.0, 500.0, width=24.0, font="C2_0"),
        make_item("履行義務", 124.0, 500.0, width=32.0, font="C2_0"),
        make_item("を識別す", 156.0, 500.0, width=32.0, font="C2_0"),
    ]
    lines = group_into_lines(items)
    assert len(lines) == 1
    assert lines[0].text() == "である履行義務を識別す"


class TestStreamFilters:
    """Non-Flate filter decoders (reference parity: lopdf's filter set,
    /root/reference/Cargo.toml:11-12, src/extractor.rs:953-957)."""

    def test_lzw_spec_code_sequence(self):
        # ISO 32000-1 §7.4.4.2 worked example: input 45 45 45 65 65 65
        # 66 66 66 (decimal) <-> codes 256,45,258,65,260,66,262,257
        from pdf_inspector_ray.pdfi.objects import _lzw_decode

        def pack(codes, width0=9):
            out = bytearray(); bitbuf = 0; nbits = 0; width = width0
            for c in codes:
                bitbuf = (bitbuf << width) | c; nbits += width
                while nbits >= 8:
                    out.append((bitbuf >> (nbits - 8)) & 0xFF); nbits -= 8
            if nbits:
                out.append((bitbuf << (8 - nbits)) & 0xFF)
            return bytes(out)

        enc = pack([256, 45, 258, 65, 260, 66, 262, 257])
        assert _lzw_decode(enc) == bytes([45, 45, 45, 65, 65, 65, 66, 66, 66])

    def test_lzw_roundtrip_across_width_boundaries(self):
        import random
        from pdf_inspector_ray.pdfi.objects import _lzw_decode
        from pdf_inspector_ray.sources.pdfgen import _lzw_encode

        random.seed(5)
        words = [b"the", b"quick", b"brown", b"fox", b"BT", b"Tj", b"stream"]
        data = b" ".join(random.choice(words) for _ in range(4000))
        assert _lzw_decode(_lzw_encode(data)) == data  # crosses 9->10->11 bits

    def test_ascii85_matches_stdlib(self):
        import base64
        import random
        from pdf_inspector_ray.pdfi.objects import _ascii85_decode

        random.seed(2)
        for n in (0, 1, 2, 3, 4, 5, 63, 1000):
            data = bytes(random.randrange(256) for _ in range(n))
            enc = base64.a85encode(data, adobe=True)  # <~...~>
            assert _ascii85_decode(enc[2:]) == data
        data = b"\0\0\0\0mid\0\0\0\0"  # z abbreviation
        assert _ascii85_decode(base64.a85encode(data, adobe=True)[2:]) == data

    def test_runlength_literal_repeat_eod(self):
        from pdf_inspector_ray.pdfi.objects import _runlength_decode

        # 3 literals, then 'x' * 5 (257-252), then EOD; trailing junk ignored
        enc = bytes([2]) + b"abc" + bytes([252]) + b"x" + bytes([128]) + b"JUNK"
        assert _runlength_decode(enc) == b"abcxxxxx"

    def test_filter_fixtures_extract(self):
        from pdf_inspector_ray.pdfi.process import process_pdf_mem
        from pdf_inspector_ray.sources.pdfgen import (
            f28_lzw, f29_ascii85, f30_runlength, f31_filter_chain)

        assert "LZW Compressed Heading" in process_pdf_mem(f28_lzw()).markdown
        assert "ASCII85 Filtered Title" in process_pdf_mem(f29_ascii85()).markdown
        assert "RunLength Filtered Title" in process_pdf_mem(
            f30_runlength()).markdown
        assert "Chained Filters Title" in process_pdf_mem(
            f31_filter_chain()).markdown

    def test_unknown_image_codec_falls_back_to_raw(self):
        """A content stream declaring /DCTDecode (not implemented) must
        raise PdfError from Stream.decoded, and every caller must fall
        back to the raw bytes (reference src/detector.rs:249-259) — the
        fixture's raw bytes ARE valid operators, so text still extracts."""
        import pytest

        from pdf_inspector_ray.pdfi.objects import PdfError, Stream
        from pdf_inspector_ray.pdfi.process import process_pdf_mem
        from pdf_inspector_ray.sources.pdfgen import f32_bogus_image_filter

        with pytest.raises(PdfError):
            Stream({"Filter": "DCTDecode"}, b"BT ET").decoded(None)
        r = process_pdf_mem(f32_bogus_image_filter())
        assert r.pdf_type == "TextBased"
        assert "Bogus Image Filter Title" in r.markdown
        assert "raw fallback text survives" in r.markdown


class TestLexerFastPaths:
    """Pin the one-step numeric-array read in Lexer._parse_array and the
    memoized token paths in decode_content — same semantics as the
    general parse_object dispatch."""

    def _arr(self, payload: bytes):
        from pdf_inspector_ray.pdfi.objects import Lexer
        lex = Lexer(payload)
        lex.pos = payload.index(b"[")
        return lex.parse_object()

    def test_plain_numbers(self):
        assert self._arr(b"[1 2 3]") == [1, 2, 3]
        assert self._arr(b"[+1 -2 0]") == [1, -2, 0]

    def test_float_forms(self):
        assert self._arr(b"[.5 3. 2.25 -0.5]") == [0.5, 3.0, 2.25, -0.5]

    def test_references_in_array(self):
        from pdf_inspector_ray.pdfi.objects import Reference
        out = self._arr(b"[1 0 R 25 3 R 7]")
        assert out == [Reference(1, 0), Reference(25, 3), 7]
        assert isinstance(out[0], Reference) and not isinstance(out[2], tuple)

    def test_number_terminated_by_delimiter(self):
        # no whitespace before ']' or '/' — terminator check must accept
        # delimiters, and '12/Name' must not glue
        from pdf_inspector_ray.pdfi.objects import Name
        assert self._arr(b"[12]") == [12]
        assert self._arr(b"[12/Nm 34]") == [12, Name("Nm"), 34]

    def test_comments_inside_array(self):
        assert self._arr(b"[1 % c\n 2]") == [1, 2]
        assert self._arr(b"[1 2 % trailing\n]") == [1, 2]

    def test_ref_not_matched_across_comment(self):
        # '1 0 R' split by a comment is NOT a reference (_REF_RE allows
        # only whitespace), so the orphaned 'R' keyword is a parse error —
        # identical to the general parse_object dispatch
        import pytest
        from pdf_inspector_ray.pdfi.objects import PdfError
        with pytest.raises(PdfError, match="bad token"):
            self._arr(b"[1 % x\n 0 R 2]")

    def test_nested_arrays_and_mixed(self):
        from pdf_inspector_ray.pdfi.objects import Name
        out = self._arr(b"[[1 2] /N (s) 3]")
        assert out[0] == [1, 2] and out[1] == Name("N") and out[3] == 3

    def test_unterminated_array_raises(self):
        import pytest
        from pdf_inspector_ray.pdfi.objects import PdfError
        with pytest.raises(PdfError):
            self._arr(b"[1 2 ")

    def test_content_token_memo_identity(self):
        # recurring operator/name tokens come back as the SAME objects
        from pdf_inspector_ray.pdfi.objects import decode_content
        ops = decode_content(b"BT /F1 12 Tf (a) Tj ET BT /F1 9 Tf (b) Tj ET")
        tf = [o for o in ops if o.operator == "Tf"]
        assert len(tf) == 2
        assert tf[0].operator is tf[1].operator
        assert tf[0].operands[0] is tf[1].operands[0]  # memoized /F1

    @pytest.mark.parametrize("payload", [
        b"[1 2.5 -3 +.5 5.]", b"[1.2.3]", b"[+-1]", b"[.]", b"[1 0 R 2]",
        b"[1\x00 2]", b"[1 %c\n 2]", b"[ ]", b"[1 2"])
    def test_numeric_array_step_matches_token_loop(self, payload,
                                                   monkeypatch):
        # the one-match numeric-array read gives the token loop's value or
        # its PdfError, type-exact
        import re

        from pdf_inspector_ray.pdfi import objects

        def parse():
            try:
                out = objects.Lexer(payload).parse_object()
            except PdfError as e:
                return ("PdfError", e.kind, str(e))
            return [(type(v), v) for v in out]

        fast = parse()
        monkeypatch.setattr(objects, "_NUM_ARRAY_RE", re.compile(rb"(?!)"))
        assert parse() == fast

    def test_byte_width_table_matches_dict(self):
        from pdf_inspector_ray.pdfi.fonts import (FontWidthInfo,
                                                  compute_string_width_ts)
        fi = FontWidthInfo({65: 700, 32: 250}, 500, 250, False, 0.001)
        data = b"A A~"  # known, space, known, unknown -> 700+250+700+500
        expect = (700 + 250 + 700 + 500) * 0.001 * 12.0
        assert abs(compute_string_width_ts(data, fi, 12.0) - expect) < 1e-9
        # second call exercises the cached table
        assert abs(compute_string_width_ts(data, fi, 12.0) - expect) < 1e-9


# -- page vs form-XObject interpreters (extractor.rs:909-1298 vs 1375-1629) --

_SHOW_OPS = (
    b"BT /F1 10 Tf 10 20 Td (Alpha) Tj 0 -12 Td (Beta) Tj /F1 /Bad Tf "
    b"(Gamma) Tj T* (Delta) Tj (Eps) ' ET "
    b"q 2 0 0 2 0 0 cm BT /F1 10 Tf 5 5 Td (Zeta) Tj ET Q")


def _show_ops_pdf(in_form: bool, form_calls_itself: bool = False) -> bytes:
    from pdf_inspector_ray.sources.pdfgen import (
        PdfWriter, _catalog, _font_simple, _page, _pages_tree)
    w = PdfWriter()
    pages = w.reserve()
    font = _font_simple(w, b"Helvetica")
    if in_form:
        form = w.reserve()
        body = _SHOW_OPS + (b" /Fm1 Do" if form_calls_itself else b"")
        w.set(form, w.stream(
            b"/Type /XObject /Subtype /Form /BBox [0 0 500 500] "
            b"/Resources << /Font << /F1 %d 0 R >> "
            b"/XObject << /Fm1 %d 0 R >> >>" % (font, form), body))
        content = w.add(w.stream(b"", b"q 1 0 0 1 100 100 cm /Fm1 Do Q"))
        resources = b"/Resources << /XObject << /Fm1 %d 0 R >> >> " % form
    else:
        content = w.add(w.stream(b"", _SHOW_OPS))
        resources = b"/Resources << /Font << /F1 %d 0 R >> >> " % font
    page = _page(w, pages, content, resources=resources)
    _pages_tree(w, pages, [page])
    return w.build(_catalog(w, pages))


def _shown(data: bytes) -> list[tuple]:
    from pdf_inspector_ray.pdfi.extract import extract_positioned_text_from_doc
    from pdf_inspector_ray.pdfi.objects import Document
    from pdf_inspector_ray.pdfi.tounicode import FontCMaps
    items = extract_positioned_text_from_doc(
        Document.load_mem(data), FontCMaps.from_pdf_bytes(data))
    return [(i.text, i.x, i.y, i.width, i.font_size) for i in items]


def test_page_and_form_interpreters_differ_as_upstream():
    # the page interpreter: Td moves from the line start, a sizeless Tf keeps
    # the size, T* and ' move down a line (' shows at width 0), cm applies
    assert _shown(_show_ops_pdf(in_form=False)) == [
        ("Alpha", 10.0, 20.0, 25.57, 10.0),
        ("Beta", 10.0, 8.0, 20.57, 10.0),
        ("Gamma", 30.57, 8.0, 35.56, 10.0),
        ("Delta", 10.0, -4.0, 23.34, 10.0),
        ("Eps", 10.0, -16.0, 0.0, 10.0),
        ("Zeta", 10.0, 10.0, 40.019999999999996, 10.0),
    ]
    # the reduced form interpreter: Td moves from the advanced position, a
    # sizeless Tf resets to 12, T*, ' and the inner cm are not interpreted;
    # everything is placed through the caller's CTM
    form = [
        ("Alpha", 110.0, 120.0, 25.57, 10.0),
        ("Beta", 135.57, 108.0, 20.57, 10.0),
        ("Gamma", 156.14, 108.0, 42.672, 12.0),
        ("Delta", 198.812, 108.0, 28.008000000000003, 12.0),
        ("Zeta", 105.0, 105.0, 20.009999999999998, 10.0),
    ]
    assert _shown(_show_ops_pdf(in_form=True)) == form
    # a form does not interpret Do, so drawing itself shows its text once
    assert _shown(_show_ops_pdf(in_form=True, form_calls_itself=True)) == form


def test_process_extract_error_swallowed_only_for_mixed(monkeypatch):
    # lib.rs:119: Mixed extraction is best-effort (`.ok()`), TextBased raises
    import pytest
    from pdf_inspector_ray.pdfi import process
    from pdf_inspector_ray.pdfi.objects import PdfError
    from pdf_inspector_ray.sources.pdfgen import f01_tj_simple, f07_mixed_template

    def fail(doc, font_cmaps):
        raise PdfError("injected", kind="Parse")

    monkeypatch.setattr(process, "extract_positioned_text_from_doc", fail)
    mixed = process.process_pdf_mem(f07_mixed_template())
    assert mixed.pdf_type == "Mixed" and mixed.markdown is None
    with pytest.raises(PdfError, match="injected"):
        process.process_pdf_mem(f01_tj_simple())


def test_cmap_cascade_falls_through_per_string():
    # one font whose ToUnicode maps only A and B: a string the CMap covers
    # (at most half its codes unmapped) decodes through it; one with more
    # than half unmapped falls through to Differences (c -> eacute) or, with
    # no Differences code, to Latin-1 — and the next mapped string in the
    # same font goes through the CMap again. The per-font memo holds which
    # CMaps to try, never a decoded result.
    from pdf_inspector_ray.pdfi.extract import extract_text_with_positions_mem
    from pdf_inspector_ray.sources.pdfgen import (
        PdfWriter, _catalog, _page, _pages_tree, _tounicode_stream)
    w = PdfWriter()
    pages = w.reserve()
    tounicode = w.add(w.stream(b"", _tounicode_stream(
        {0x41: "X", 0x42: "Y"}, ("00", "FF"), src_hex_width=2)))
    enc = w.add(b"<< /Type /Encoding /Differences [99 /eacute] >>")
    font = w.add(
        b"<< /Type /Font /Subtype /Type1 /BaseFont /CascadeSans "
        b"/ToUnicode %d 0 R /Encoding %d 0 R >>" % (tounicode, enc))
    lines = [b"(ABAB)", b"(ABc)", b"(Acde)", b"(xyzA)", b"(BA)"]
    content = w.add(w.stream(b"", b"".join(
        b"BT /F1 12 Tf 72 %d Td %s Tj ET\n" % (700 - 20 * i, s)
        for i, s in enumerate(lines))))
    page = _page(w, pages, content,
                 resources=b"/Resources << /Font << /F1 %d 0 R >> >> " % font)
    _pages_tree(w, pages, [page])
    items = extract_text_with_positions_mem(w.build(_catalog(w, pages)))
    assert [i.text for i in items] == [
        "XYXY",   # all mapped: CMap
        "XYc",    # 1 of 3 unmapped: still the CMap (byte kept as Latin-1)
        "A\u00e9de",  # 3 of 4 unmapped: Differences
        "xyzA",   # 3 of 4 unmapped, no Differences code: Latin-1
        "YX",     # mapped again after two fall-throughs: CMap
    ]
