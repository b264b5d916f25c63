"""Minimal PDF object model + document loader (pure Python, no Ray).

This is a from-scratch replacement for the subset of ``lopdf`` the reference
engine uses (see /root/reference/src/detector.rs:76-99 and
/root/reference/src/extractor.rs:853-890): tokenizer, xref tables and xref
streams, object streams, Flate decode with PNG predictors, page-tree walk with
attribute inheritance, per-page fonts / content streams, and a content-stream
operator decoder.

Design notes for the Ray pipeline: one :class:`Document` is built per row
inside a ``map_batches`` UDF and dropped afterwards; nothing here touches Ray.
"""

from __future__ import annotations

import re
import zlib
from typing import Iterator, Optional, Union


class PdfError(Exception):
    """Parse-level error; kind mirrors the reference's PdfError enum
    (/root/reference/src/lib.rs:135-145)."""

    def __init__(self, message: str, kind: str = "Parse"):
        super().__init__(message)
        self.kind = kind


class Name(str):
    """A PDF name object (``/Foo``). Subclass of str for ergonomic use."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover
        return f"/{str.__str__(self)}"


class Reference(tuple):
    """An indirect object reference ``N G R``."""

    __slots__ = ()

    def __new__(cls, num: int, gen: int = 0):
        return tuple.__new__(cls, (num, gen))

    @property
    def num(self) -> int:
        return self[0]

    @property
    def gen(self) -> int:
        return self[1]

    def __repr__(self) -> str:  # pragma: no cover
        return f"{self[0]} {self[1]} R"


class PdfString(bytes):
    """A PDF string object — raw bytes, encoding resolved later."""

    __slots__ = ()


def get_number(obj: PdfObject) -> Optional[float]:
    """A direct numeric object as a float; None for anything else (bool,
    an int subclass, included)."""
    if isinstance(obj, bool):
        return None
    if isinstance(obj, (int, float)):
        return float(obj)
    return None


class Stream:
    """A stream object: dictionary + raw (still encoded) data."""

    __slots__ = ("dict", "raw")

    def __init__(self, d: dict, raw: bytes):
        self.dict = d
        self.raw = raw

    def decoded(self, doc: Optional["Document"] = None) -> bytes:
        """Apply /Filter chain. Supported: FlateDecode (+ predictors),
        LZWDecode (+ predictors + EarlyChange), ASCIIHexDecode,
        ASCII85Decode, RunLengthDecode — the filter set the reference
        inherits from lopdf (/root/reference/Cargo.toml:11-12; its
        Content::decode path at src/extractor.rs:953-957 works on whatever
        lopdf decompresses). Unknown filters raise PdfError; callers that
        want the reference's "fall back to raw content" behavior catch it
        (/root/reference/src/detector.rs:249-252)."""
        data = self.raw
        filters = self.dict.get("Filter")
        if filters is None:
            return data
        if doc is not None and isinstance(filters, Reference):
            filters = doc.get_object(filters)
        if not isinstance(filters, list):
            filters = [filters]
        parms = self.dict.get("DecodeParms")
        if doc is not None and isinstance(parms, Reference):
            parms = doc.get_object(parms)
        if not isinstance(parms, list):
            parms = [parms] * len(filters)
        for f, p in zip(filters, parms):
            fname = str(f)
            if doc is not None and isinstance(p, Reference):
                p = doc.get_object(p)
            if fname in ("FlateDecode", "Fl"):
                try:
                    d = zlib.decompressobj()
                    data = d.decompress(data, _MAX_DECODE_BYTES)
                    if d.unconsumed_tail:
                        raise PdfError("flate output exceeds decode cap")
                except zlib.error as e:
                    raise PdfError(f"flate decode failed: {e}") from e
                if isinstance(p, dict):
                    data = _apply_predictor(data, p, doc)
            elif fname in ("LZWDecode", "LZW"):
                early = 1
                if isinstance(p, dict):
                    ev = p.get("EarlyChange", 1)
                    if doc is not None and isinstance(ev, Reference):
                        ev = doc.get_object(ev)
                    early = int(ev if ev is not None else 1)
                data = _lzw_decode(data, early_change=early)
                if isinstance(p, dict):
                    data = _apply_predictor(data, p, doc)
            elif fname in ("ASCIIHexDecode", "AHx"):
                # spec §7.4.2: '>' is EOD — everything after it is ignored;
                # non-hex non-whitespace bytes are a parse error (PdfError,
                # never a raw ValueError — fuzz-found crash)
                end = data.find(b">")
                hexpart = data[:end] if end >= 0 else data
                hexdata = bytes(c for c in hexpart if not chr(c).isspace())
                if len(hexdata) % 2:
                    hexdata += b"0"
                try:
                    data = bytes.fromhex(hexdata.decode("ascii"))
                except (ValueError, UnicodeDecodeError) as e:
                    raise PdfError(f"bad ASCIIHex data: {e}") from e
            elif fname in ("ASCII85Decode", "A85"):
                data = _ascii85_decode(data)
            elif fname in ("RunLengthDecode", "RL"):
                data = _runlength_decode(data)
            else:
                raise PdfError(f"unsupported filter {fname}")
        return data


_MAX_DECODE_BYTES = 1 << 28  # 256 MB cap: LZW output is quadratic in input
                             # worst-case (crafted bomb) — surface PdfError


def _lzw_decode(data: bytes, early_change: int = 1) -> bytes:
    """LZWDecode per PDF 1.7 §7.4.4: MSB-first variable-width codes
    9→12 bits, 256 = clear-table, 257 = EOD; ``EarlyChange=1`` (default)
    widens the code one entry early. Matches the lopdf/weezl behavior the
    reference inherits (validated against the spec's worked example)."""
    out = bytearray()
    table: list[bytes] = [bytes([i]) for i in range(256)] + [b"", b""]
    width = 9
    prev: Optional[bytes] = None
    bitbuf = 0
    nbits = 0
    for byte in data:
        bitbuf = (bitbuf << 8) | byte
        nbits += 8
        while nbits >= width:
            code = (bitbuf >> (nbits - width)) & ((1 << width) - 1)
            nbits -= width
            if code == 256:
                table = table[:258]
                width = 9
                prev = None
                continue
            if code == 257:
                return bytes(out)
            if prev is None:
                if code >= 256:
                    raise PdfError(f"bad initial LZW code {code}")
                entry = table[code]
            elif code < len(table):
                entry = table[code]
                table.append(prev + entry[:1])
            elif code == len(table):
                entry = prev + prev[:1]
                table.append(entry)
            else:
                raise PdfError(f"bad LZW code {code}")
            out += entry
            prev = entry
            if len(out) > _MAX_DECODE_BYTES:
                raise PdfError("LZW output exceeds decode cap")
            if len(table) + early_change >= (1 << width) and width < 12:
                width += 1
    return bytes(out)


def _ascii85_decode(data: bytes) -> bytes:
    """ASCII85Decode per PDF 1.7 §7.4.3: base-85 groups, ``z`` = four
    zero bytes (only between groups), whitespace ignored, ``~>`` EOD; a
    trailing partial group of n chars is padded with ``u`` and yields
    n−1 bytes."""
    out = bytearray()
    group: list[int] = []
    i = 0
    end = len(data)
    while i < end:
        c = data[i]
        if c in b" \t\r\n\f\x00":
            i += 1
            continue
        if c == 0x7E:  # '~' — EOD marker
            break
        if c == 0x7A:  # 'z'
            if group:
                raise PdfError("ascii85: 'z' inside group")
            out += b"\x00\x00\x00\x00"
            i += 1
            continue
        if not 0x21 <= c <= 0x75:
            raise PdfError(f"ascii85: bad char {c:#x}")
        group.append(c - 0x21)
        if len(group) == 5:
            acc = 0
            for g in group:
                acc = acc * 85 + g
            if acc > 0xFFFFFFFF:
                raise PdfError("ascii85: group overflow")
            out += acc.to_bytes(4, "big")
            group = []
        i += 1
    if group:
        if len(group) == 1:
            raise PdfError("ascii85: lone trailing char")
        n = len(group)
        group += [84] * (5 - n)  # pad with 'u'
        acc = 0
        for g in group:
            acc = acc * 85 + g
        if acc > 0xFFFFFFFF:
            raise PdfError("ascii85: trailing group overflow")
        out += acc.to_bytes(4, "big")[: n - 1]
    return bytes(out)


def _runlength_decode(data: bytes) -> bytes:
    """RunLengthDecode per PDF 1.7 §7.4.5: length byte L ∈ [0,127] copies
    the next L+1 bytes literally; L ∈ [129,255] repeats the next byte
    257−L times; 128 = EOD."""
    out = bytearray()
    i = 0
    end = len(data)
    while i < end:
        length = data[i]
        i += 1
        if length == 128:
            break
        if length < 128:
            run = data[i : i + length + 1]
            if len(run) != length + 1:
                raise PdfError("runlength: truncated literal run")
            out += run
            i += length + 1
        else:
            if i >= end:
                raise PdfError("runlength: truncated repeat run")
            out += bytes([data[i]]) * (257 - length)
            i += 1
    return bytes(out)


def _apply_predictor(data: bytes, parms: dict, doc: Optional["Document"]) -> bytes:
    def _res(v):
        if doc is not None and isinstance(v, Reference):
            return doc.get_object(v)
        return v

    predictor = int(_res(parms.get("Predictor", 1)) or 1)
    if predictor <= 1:
        return data
    colors = int(_res(parms.get("Colors", 1)) or 1)
    bpc = int(_res(parms.get("BitsPerComponent", 8)) or 8)
    columns = int(_res(parms.get("Columns", 1)) or 1)
    bpp = max(1, (colors * bpc) // 8)
    row_len = (columns * colors * bpc + 7) // 8
    if predictor >= 10:
        # PNG predictors: each row prefixed by a filter-type byte
        out = bytearray()
        prev = bytearray(row_len)
        i = 0
        while i + 1 <= len(data):
            ft = data[i]
            row = bytearray(data[i + 1 : i + 1 + row_len])
            if len(row) < row_len:
                row.extend(b"\x00" * (row_len - len(row)))
            if ft == 1:  # Sub
                for j in range(bpp, row_len):
                    row[j] = (row[j] + row[j - bpp]) & 0xFF
            elif ft == 2:  # Up
                for j in range(row_len):
                    row[j] = (row[j] + prev[j]) & 0xFF
            elif ft == 3:  # Average
                for j in range(row_len):
                    left = row[j - bpp] if j >= bpp else 0
                    row[j] = (row[j] + ((left + prev[j]) >> 1)) & 0xFF
            elif ft == 4:  # Paeth
                for j in range(row_len):
                    a = row[j - bpp] if j >= bpp else 0
                    b = prev[j]
                    c = prev[j - bpp] if j >= bpp else 0
                    p = a + b - c
                    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                    pred = a if (pa <= pb and pa <= pc) else (b if pb <= pc else c)
                    row[j] = (row[j] + pred) & 0xFF
            out.extend(row)
            prev = row
            i += 1 + row_len
        return bytes(out)
    # TIFF predictor 2
    out = bytearray(data)
    for r in range(0, len(out) - row_len + 1, row_len):
        for j in range(bpp, row_len):
            out[r + j] = (out[r + j] + out[r + j - bpp]) & 0xFF
    return bytes(out)


PdfObject = Union[None, bool, int, float, PdfString, Name, list, dict, Reference, Stream]

_WHITESPACE = b"\x00\t\n\x0c\r "
_DELIMS = b"()<>[]{}/%"


MAX_NESTING = 100  # container depth cap: malicious inputs must raise
                   # PdfError, never RecursionError


class Lexer:
    """Tokenizer / object parser over a byte buffer."""

    __slots__ = ("data", "pos", "depth")

    def __init__(self, data: bytes, pos: int = 0):
        self.data = data
        self.pos = pos
        self.depth = 0

    def skip_ws(self) -> None:
        # fast path: whitespace runs are 0-1 bytes almost always — a C-level
        # membership loop beats a regex call 1.5-3.5× here (hot: ~500 calls
        # per document); '%' comments fall back to the full regex
        d = self.data
        n = len(d)
        p = self.pos
        while p < n and d[p] in _WHITESPACE:
            p += 1
        if p < n and d[p] == 0x25:  # '%' comment — rare
            m = _WS_RE.match(d, self.pos)
            if m is not None:
                p = m.end()
        self.pos = p

    def peek(self) -> int:
        return self.data[self.pos] if self.pos < len(self.data) else -1

    def _read_token_word(self) -> bytes:
        d, n = self.data, len(self.data)
        start = self.pos
        p = start
        while p < n and d[p] not in _WHITESPACE and d[p] not in _DELIMS:
            p += 1
        self.pos = p
        return d[start:p]

    def parse_object(self) -> PdfObject:
        self.skip_ws()
        c = self.peek()
        if c == -1:
            raise PdfError("unexpected EOF")
        d = self.data
        if c == 0x2F:  # '/'
            return self._parse_name()
        if c == 0x28:  # '('
            return self._parse_literal_string()
        if c == 0x3C:  # '<'
            if self.pos + 1 < len(d) and d[self.pos + 1] == 0x3C:
                return self._parse_dict_or_stream()
            return self._parse_hex_string()
        if c == 0x5B:  # '['
            return self._parse_array()
        if c == 0x5D:  # ']'
            raise PdfError("unexpected ]")
        # number fast path (covers Widths / W / kern arrays — the hot loop)
        m = _NUM_RE.match(d, self.pos)
        if m is not None:
            end = m.end()
            nxt = d[end] if end < len(d) else 0x20
            if nxt in _WHITESPACE or nxt in _DELIMS:
                text = m.group(0)
                self.pos = end
                if b"." in text:
                    return float(text)
                # "N G R" reference lookahead as one regex
                m2 = _REF_RE.match(d, end)
                if m2 is not None:
                    self.pos = m2.end()
                    return Reference(int(text), int(m2.group(1)))
                return int(text)
        # keyword
        tok = self._read_token_word()
        if not tok:
            raise PdfError(f"bad token at {self.pos}")
        if tok == b"true":
            return True
        if tok == b"false":
            return False
        if tok == b"null":
            return None
        try:
            return float(tok)
        except ValueError:
            raise PdfError(f"bad token {tok!r} at {self.pos}")

    def _parse_name(self) -> Name:
        # fast path: one regex grab; '#xx' escapes handled only if present.
        # raw→Name memo: PDF name vocabulary is tiny (/Type /Font /Page …)
        # and the mapping is deterministic, so recurring tokens skip the
        # decode+alloc. Capped: cleared wholesale if adversarially flooded.
        m = _NAME_RE.match(self.data, self.pos)
        raw = m.group(1)
        self.pos = m.end()
        nm = _NAME_TOKEN_CACHE.get(raw)
        if nm is not None:
            return nm
        if b"#" not in raw:
            nm = Name(raw.decode("latin-1"))
        else:
            out = bytearray()
            i, n = 0, len(raw)
            while i < n:
                c = raw[i]
                if c == 0x23 and i + 2 < n:
                    try:
                        out.append(int(raw[i + 1 : i + 3], 16))
                        i += 3
                        continue
                    except ValueError:
                        pass
                out.append(c)
                i += 1
            nm = Name(out.decode("latin-1"))
        if len(_NAME_TOKEN_CACHE) > 8192:
            _NAME_TOKEN_CACHE.clear()
        _NAME_TOKEN_CACHE[raw] = nm
        return nm

    def _parse_literal_string(self) -> PdfString:
        # fast path: no escapes, no nested parens
        m = _SIMPLE_STR_RE.match(self.data, self.pos)
        if m is not None:
            self.pos = m.end()
            return PdfString(m.group(1))
        d, n = self.data, len(self.data)
        p = self.pos + 1
        out = bytearray()
        depth = 1
        while p < n:
            c = d[p]
            if c == 0x5C:  # backslash
                p += 1
                if p >= n:
                    break
                e = d[p]
                if e == 0x6E:
                    out.append(0x0A)
                elif e == 0x72:
                    out.append(0x0D)
                elif e == 0x74:
                    out.append(0x09)
                elif e == 0x62:
                    out.append(0x08)
                elif e == 0x66:
                    out.append(0x0C)
                elif e in b"()\\":
                    out.append(e)
                elif 0x30 <= e <= 0x37:  # octal
                    oct_digits = [e]
                    for _ in range(2):
                        if p + 1 < n and 0x30 <= d[p + 1] <= 0x37:
                            p += 1
                            oct_digits.append(d[p])
                        else:
                            break
                    out.append(int(bytes(oct_digits), 8) & 0xFF)
                elif e in b"\r\n":  # line continuation
                    if e == 0x0D and p + 1 < n and d[p + 1] == 0x0A:
                        p += 1
                else:
                    out.append(e)
                p += 1
                continue
            if c == 0x28:
                depth += 1
            elif c == 0x29:
                depth -= 1
                if depth == 0:
                    p += 1
                    break
            out.append(c)
            p += 1
        self.pos = p
        return PdfString(bytes(out))

    def _parse_hex_string(self) -> PdfString:
        d = self.data
        end = d.find(b">", self.pos + 1)
        if end < 0:
            end = len(d)
        body = d[self.pos + 1 : end]
        self.pos = end + 1
        return _hex_string(body)

    def _parse_array(self) -> list:
        self.pos += 1
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise PdfError("container nesting too deep")
        out = []
        append = out.append
        d, n = self.data, len(self.data)
        try:
            # all-numeric arrays (Widths, MediaBox) in one step; a token
            # int/float rejects ('1.2.3', '+-1', '1\x002') goes to the loop
            m = _NUM_ARRAY_RE.match(d, self.pos)
            if m is not None:
                try:
                    values = [float(t) if b"." in t else int(t)
                              for t in m.group(1).split()]
                except ValueError:
                    pass
                else:
                    self.pos = m.end()
                    return values
            while True:
                self.skip_ws()
                p = self.pos
                if p >= n:
                    raise PdfError("unterminated array")
                if d[p] == 0x5D:
                    self.pos = p + 1
                    return out
                append(self.parse_object())
        finally:
            self.depth -= 1

    def _parse_dict_or_stream(self) -> Union[dict, Stream]:
        self.pos += 2
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise PdfError("container nesting too deep")
        d = {}
        data, n = self.data, len(self.data)
        try:
            while True:
                self.skip_ws()
                p = self.pos
                if p >= n:
                    raise PdfError("unterminated dict")
                c = data[p]
                if c == 0x3E:  # '>>'
                    self.pos = p + 2
                    break
                if c != 0x2F:
                    raise PdfError(f"dict key not a name at {p}")
                key = self._parse_name()
                val = self.parse_object()
                d[str(key)] = val
        finally:
            self.depth -= 1
        # stream?
        save = self.pos
        self.skip_ws()
        if self.data[self.pos : self.pos + 6] == b"stream":
            self.pos += 6
            if self.data[self.pos : self.pos + 2] == b"\r\n":
                self.pos += 2
            elif self.pos < len(self.data) and self.data[self.pos] in b"\n\r":
                self.pos += 1
            length = d.get("Length")
            start = self.pos
            if isinstance(length, int) and length >= 0:
                end = start + length
                tail = self.data[end : end + 20]
                if b"endstream" not in tail:
                    end = self._find_endstream(start)
            else:
                end = self._find_endstream(start)
            raw = self.data[start:end]
            # move past endstream
            idx = self.data.find(b"endstream", end)
            self.pos = (idx + 9) if idx >= 0 else end
            return Stream(d, raw)
        self.pos = save
        return d

    def _find_endstream(self, start: int) -> int:
        idx = self.data.find(b"endstream", start)
        if idx < 0:
            raise PdfError("missing endstream")
        end = idx
        if end > start and self.data[end - 1 : end] == b"\n":
            end -= 1
        if end > start and self.data[end - 1 : end] == b"\r":
            end -= 1
        return end


_NAME_TOKEN_CACHE: dict[bytes, "Name"] = {}

_NAME_RE = re.compile(rb"/([^\x00\t\n\x0c\r /<>\[\]{}()%]*)")
_SIMPLE_STR_RE = re.compile(rb"\(([^()\\]*)\)")
_WS_RE = re.compile(rb"(?:[\x00\t\n\x0c\r ]+|%[^\r\n]*)+")
_NUM_RE = re.compile(rb"[+-]?(?:\d+\.\d*|\.\d+|\d+)")
_NUM_ARRAY_RE = re.compile(rb"([0-9+\-.\x00\t\n\x0c\r ]*)\]")
_NON_HEX_RE = re.compile(rb"[^0-9A-Fa-f]")
_REF_RE = re.compile(rb"[\x00\t\n\x0c\r ]+(\d+)[\x00\t\n\x0c\r ]+R(?![0-9A-Za-z])")
_OBJ_HEADER_RE = re.compile(rb"(\d+)[\x00\t\n\x0c\r ]+(\d+)[\x00\t\n\x0c\r ]+obj\b")


def _hex_string(body: bytes) -> PdfString:
    """The bytes of a hex string's body: non-hex bytes ignored, an odd
    digit count padded with '0' (PDF 1.7 §7.3.4.3)."""
    digits = _NON_HEX_RE.sub(b"", body)
    if len(digits) % 2:
        digits += b"0"
    return PdfString(bytes.fromhex(digits.decode("ascii")))


class Document:
    """A loaded PDF document: object table + trailer + page tree."""

    def __init__(self, data: bytes):
        self.data = data
        self.xref: dict[int, tuple] = {}  # obj_num -> ("n", offset) | ("c", stm_num, idx)
        self.trailer: dict = {}
        self._cache: dict[int, PdfObject] = {}
        self._objstm_cache: dict[int, dict[int, PdfObject]] = {}
        self._pages: Optional[dict[int, Reference]] = None
        # id(font dict) -> parsed font entry, filled by extract._FontScope
        # (pages and forms share font objects: each is parsed once)
        self.font_cache: dict[int, tuple] = {}

    # -- loading -----------------------------------------------------------
    @classmethod
    def load_mem(cls, data: bytes) -> "Document":
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise PdfError("buffer required", kind="Io")
        data = bytes(data)
        head = data[:1024]
        if b"%PDF" not in head:
            raise PdfError("not a PDF: missing %PDF header", kind="InvalidStructure")
        doc = cls(data)
        try:
            doc._load_xref()
        except PdfError:
            doc._recover_scan()
        if not doc.xref and not doc._recover_scan_done:
            doc._recover_scan()
        if not doc.trailer.get("Root"):
            doc._recover_find_root()
        if doc.trailer.get("Encrypt") is not None:
            raise PdfError("PDF is encrypted", kind="Encrypted")
        if not doc.trailer.get("Root"):
            raise PdfError("no document catalog", kind="InvalidStructure")
        return doc

    _recover_scan_done = False

    def _load_xref(self) -> None:
        tail = self.data[-2048:]
        m = None
        for m in re.finditer(rb"startxref[\x00\t\n\x0c\r ]+(\d+)", tail):
            pass
        if m is None:
            raise PdfError("no startxref")
        offset = int(m.group(1))
        seen = set()
        while offset and offset not in seen and 0 <= offset < len(self.data):
            seen.add(offset)
            offset = self._parse_xref_section(offset)

    def _parse_xref_section(self, offset: int) -> int:
        lex = Lexer(self.data, offset)
        lex.skip_ws()
        if self.data[lex.pos : lex.pos + 4] == b"xref":
            return self._parse_xref_table(lex.pos + 4)
        # xref stream: "N G obj << ... >> stream"
        mo = _OBJ_HEADER_RE.match(self.data, lex.pos)
        if not mo:
            raise PdfError(f"bad xref at {offset}")
        lex.pos = mo.end()
        obj = lex.parse_object()
        if not isinstance(obj, Stream):
            raise PdfError("xref stream expected")
        self._parse_xref_stream(obj)
        prev = obj.dict.get("Prev")
        for k, v in obj.dict.items():
            if k not in self.trailer:
                self.trailer[k] = v
        return int(prev) if isinstance(prev, (int, float)) else 0

    def _parse_xref_table(self, pos: int) -> int:
        lex = Lexer(self.data, pos)
        while True:
            lex.skip_ws()
            if self.data[lex.pos : lex.pos + 7] == b"trailer":
                lex.pos += 7
                trailer = lex.parse_object()
                if not isinstance(trailer, dict):
                    raise PdfError("bad trailer")
                for k, v in trailer.items():
                    if k not in self.trailer:
                        self.trailer[k] = v
                # Hybrid files: /XRefStm points to an xref stream with more entries
                xrefstm = trailer.get("XRefStm")
                if isinstance(xrefstm, (int, float)):
                    try:
                        self._parse_xref_section(int(xrefstm))
                    except PdfError:
                        pass
                prev = trailer.get("Prev")
                return int(prev) if isinstance(prev, (int, float)) else 0
            m = re.match(rb"(\d+)[\x00\t\n\x0c\r ]+(\d+)", self.data[lex.pos : lex.pos + 40])
            if not m:
                raise PdfError("bad xref subsection header")
            start, count = int(m.group(1)), int(m.group(2))
            lex.pos += m.end()
            lex.skip_ws()
            for i in range(count):
                entry = self.data[lex.pos : lex.pos + 20]
                em = re.match(rb"(\d{10})[ ]?(\d{5})[ ]?([nf])", entry)
                if not em:
                    raise PdfError("bad xref entry")
                if em.group(3) == b"n":
                    num = start + i
                    if num not in self.xref:
                        self.xref[num] = ("n", int(em.group(1)))
                lex.pos += em.end()
                lex.skip_ws()

    def _parse_xref_stream(self, stm: Stream) -> None:
        data = stm.decoded(self)
        w = [int(x) for x in stm.dict.get("W", [1, 1, 1])]
        size = int(stm.dict.get("Size", 0))
        index = stm.dict.get("Index", [0, size])
        index = [int(x) for x in index]
        row_len = sum(w)
        pos = 0

        def field(row: bytes, start: int, width: int, default: int) -> int:
            if width == 0:
                return default
            return int.from_bytes(row[start : start + width], "big")

        for k in range(0, len(index), 2):
            start, count = index[k], index[k + 1]
            for i in range(count):
                row = data[pos : pos + row_len]
                pos += row_len
                if len(row) < row_len:
                    return
                ftype = field(row, 0, w[0], 1)
                f2 = field(row, w[0], w[1], 0)
                f3 = field(row, w[0] + w[1], w[2], 0)
                num = start + i
                if num in self.xref:
                    continue
                if ftype == 1:
                    self.xref[num] = ("n", f2)
                elif ftype == 2:
                    self.xref[num] = ("c", f2, f3)

    def _recover_scan(self) -> None:
        """Brute-force scan for ``N G obj`` patterns (mirrors lopdf recovery)."""
        self._recover_scan_done = True
        for m in _OBJ_HEADER_RE.finditer(self.data):
            num = int(m.group(1))
            # later definitions win (incremental updates appear later in file)
            self.xref[num] = ("n", m.start())
        # parse trailer dict if present
        tpos = self.data.rfind(b"trailer")
        if tpos >= 0:
            try:
                lex = Lexer(self.data, tpos + 7)
                trailer = lex.parse_object()
                if isinstance(trailer, dict):
                    for k, v in trailer.items():
                        self.trailer.setdefault(k, v)
            except PdfError:
                pass

    def _recover_find_root(self) -> None:
        if not self._recover_scan_done:
            self._recover_scan()
        if self.trailer.get("Root"):
            return
        for num in sorted(self.xref):
            try:
                obj = self.get_object(Reference(num))
            except PdfError:
                continue
            d = obj.dict if isinstance(obj, Stream) else obj
            if isinstance(d, dict) and str(d.get("Type", "")) == "Catalog":
                self.trailer["Root"] = Reference(num)
                return

    # -- object access -----------------------------------------------------
    def get_object(self, ref: Union[Reference, int]) -> PdfObject:
        num = ref.num if isinstance(ref, Reference) else int(ref)
        if num in self._cache:
            return self._cache[num]
        entry = self.xref.get(num)
        if entry is None:
            raise PdfError(f"object {num} not found")
        if entry[0] == "n":
            obj = self._parse_at(entry[1], num)
        else:
            obj = self._from_objstm(entry[1], entry[2], num)
        self._cache[num] = obj
        return obj

    def _parse_at(self, offset: int, expect_num: int) -> PdfObject:
        m = _OBJ_HEADER_RE.match(self.data, offset)
        if not m:
            # tolerate slightly-off offsets: search nearby
            window = self.data[max(0, offset - 32) : offset + 64]
            m2 = _OBJ_HEADER_RE.search(window)
            if not m2:
                raise PdfError(f"no obj header at {offset}")
            lex = Lexer(self.data, max(0, offset - 32) + m2.end())
        else:
            lex = Lexer(self.data, m.end())
        return lex.parse_object()

    def _from_objstm(self, stm_num: int, idx: int, expect_num: int) -> PdfObject:
        table = self._objstm_cache.get(stm_num)
        if table is None:
            # cycle guard: the container of an ObjStm must be a direct
            # ("n") entry per spec; a malicious chain of "c" entries would
            # otherwise recurse forever
            entry = self.xref.get(stm_num)
            if entry is None or entry[0] != "n":
                raise PdfError(f"object stream {stm_num} not a direct object")
            stm = self.get_object(Reference(stm_num))
            if not isinstance(stm, Stream):
                raise PdfError(f"object stream {stm_num} missing")
            data = stm.decoded(self)
            try:
                n = int(self.resolve(stm.dict.get("N", 0)) or 0)
                first = int(self.resolve(stm.dict.get("First", 0)) or 0)
                hdr = Lexer(data, 0)
                pairs = []
                for _ in range(n):
                    hdr.skip_ws()
                    onum = int(hdr._read_token_word())
                    hdr.skip_ws()
                    ooff = int(hdr._read_token_word())
                    pairs.append((onum, ooff))
            except (ValueError, TypeError) as e:
                # a lying /N//First or undecodable header must surface as a
                # structured parse error, never a raw ValueError
                raise PdfError(
                    f"object stream {stm_num} malformed header") from e
            table = {}
            for onum, ooff in pairs:
                try:
                    table[onum] = Lexer(data, first + ooff).parse_object()
                except PdfError:
                    table[onum] = None
            self._objstm_cache[stm_num] = table
        if expect_num in table:
            return table[expect_num]
        raise PdfError(f"object {expect_num} not in stream {stm_num}")

    def resolve(self, obj: PdfObject) -> PdfObject:
        if type(obj) is not Reference:  # hot path: most operands are direct
            return obj
        seen = 0
        while isinstance(obj, Reference):
            obj = self.get_object(obj)
            seen += 1
            if seen > 32:
                raise PdfError("reference loop")
        return obj

    def get_dict(self, obj: PdfObject) -> Optional[dict]:
        if type(obj) is dict:  # hot path: already direct
            return obj
        try:
            o = self.resolve(obj)
        except PdfError:
            return None
        if isinstance(o, Stream):
            return o.dict
        return o if isinstance(o, dict) else None

    def get_array(self, obj: PdfObject) -> Optional[list]:
        if type(obj) is list:  # hot path: already direct
            return obj
        try:
            o = self.resolve(obj)
        except PdfError:
            return None
        return o if isinstance(o, list) else None

    # -- page tree ---------------------------------------------------------
    def get_pages(self) -> dict[int, Reference]:
        """Page number (1-based) -> page object reference, document order
        (mirrors lopdf ``get_pages``)."""
        if self._pages is not None:
            return self._pages
        pages: dict[int, Reference] = {}
        root = self.get_dict(self.trailer.get("Root"))
        if not root:
            self._pages = pages
            return pages
        top = root.get("Pages")
        visited: set[int] = set()
        order: list[Reference] = []
        # iterative pre-order DFS preserving Kids order (no recursion —
        # adversarial page trees must not raise RecursionError)
        stack = [top]
        while stack:
            node_ref = stack.pop()
            if isinstance(node_ref, Reference):
                if node_ref.num in visited:
                    continue
                visited.add(node_ref.num)
            node = self.get_dict(node_ref)
            if node is None:
                continue
            ntype = str(node.get("Type", ""))
            kids = self.get_array(node.get("Kids"))
            if ntype == "Pages" or (kids is not None and ntype != "Page"):
                stack.extend(reversed(kids or []))
            elif ntype == "Page" or "Contents" in node or "MediaBox" in node:
                if isinstance(node_ref, Reference):
                    order.append(node_ref)
        for i, ref in enumerate(order, start=1):
            pages[i] = ref
        self._pages = pages
        return pages

    def page_count(self) -> int:
        # Fast path: /Pages /Count (lopdf load_metadata equivalent)
        root = self.get_dict(self.trailer.get("Root"))
        if root:
            pages_node = self.get_dict(root.get("Pages"))
            if pages_node and isinstance(self.resolve(pages_node.get("Count")), int):
                return int(self.resolve(pages_node.get("Count")))
        return len(self.get_pages())

    def _page_attr(self, page_ref: Reference, key: str) -> PdfObject:
        """Look up a page attribute with inheritance via /Parent."""
        node = self.get_dict(page_ref)
        depth = 0
        while node is not None and depth < 64:
            if key in node:
                return node[key]
            node = self.get_dict(node.get("Parent"))
            depth += 1
        return None

    def get_page_resources(self, page_ref: Reference) -> Optional[dict]:
        return self.get_dict(self._page_attr(page_ref, "Resources"))

    def get_page_contents(self, page_ref: Reference) -> list[Reference]:
        raw = self._page_attr(page_ref, "Contents")
        refs: list[Reference] = []
        if isinstance(raw, Reference):
            try:
                resolved = self.resolve(raw)
            except PdfError:
                return []
            if isinstance(resolved, list):
                refs.extend(r for r in resolved if isinstance(r, Reference))
            else:
                refs.append(raw)
        elif isinstance(raw, list):
            refs.extend(r for r in raw if isinstance(r, Reference))
        return refs

    def get_page_content(self, page_ref: Reference) -> bytes:
        """Concatenated decompressed content streams for a page."""
        parts = []
        for ref in self.get_page_contents(page_ref):
            try:
                obj = self.resolve(ref)
            except PdfError:
                continue
            if isinstance(obj, Stream):
                try:
                    parts.append(obj.decoded(self))
                except PdfError:
                    parts.append(obj.raw)
        return b"\n".join(parts)

    def get_fonts(self, resources: Optional[dict]) -> dict[str, dict]:
        """Font resource name -> font dictionary (resolved) of a page's or a
        form XObject's resource dictionary (extractor.rs:1632-1678)."""
        fonts: dict[str, dict] = {}
        if not resources:
            return fonts
        font_dict = self.get_dict(resources.get("Font"))
        if not font_dict:
            return fonts
        for name, val in font_dict.items():
            d = self.get_dict(val)
            if d is not None:
                fonts[str(name)] = d
        return fonts


# -- content stream decoding ----------------------------------------------

class Operation:
    __slots__ = ("operator", "operands")

    def __init__(self, operator: str, operands: list):
        self.operator = operator
        self.operands = operands

    def __repr__(self) -> str:  # pragma: no cover
        return f"Operation({self.operator!r}, {self.operands!r})"


_CONTENT_TOKEN_RE = re.compile(
    rb"[\x00\t\n\x0c\r ]*"
    rb"(?:(?P<num>[+-]?(?:\d+\.\d*|\.\d+|\d+))"
    rb"|(?P<name>/[^\x00\t\n\x0c\r /<>\[\]{}()%]*)"
    rb"|(?P<lb>\[)|(?P<rb>\])"
    rb"|(?P<obj>[(<])"
    rb"|(?P<cmt>%[^\r\n]*)"
    rb"|(?P<op>[^\x00\t\n\x0c\r ()<>\[\]{}/%]+)"
    rb"|(?P<junk>.))",
    re.DOTALL,
)

# _CONTENT_TOKEN_RE with '(' and '<' widened to simple literals and closed
# hex strings (a lone '(' or '<' is left to the slow path). Groups: number,
# name, delimiter token, operator; none for a comment or a junk byte.
_CONTENT_SCAN_RE = re.compile(
    rb"[\x00\t\n\x0c\r ]*"
    rb"(?:([+-]?(?:\d+\.\d*|\.\d+|\d+))"
    rb"|(/[^\x00\t\n\x0c\r /<>\[\]{}()%]*)"
    rb"|(\[|\]|\([^()\\]*\)|<(?!<)[^>]*>|[(<])"
    rb"|%[^\r\n]*"
    rb"|([^\x00\t\n\x0c\r ()<>\[\]{}/%]+)"
    rb"|.)",
    re.DOTALL,
)

# number / operator / resource-name token memos: content streams draw from a
# small vocabulary (72, 11, Tj, Td, /F1, …) — converting each occurrence is
# measurable. Capped: cleared wholesale if an adversarial stream floods them.
_CONTENT_NUM_CACHE: dict[bytes, Union[int, float]] = {}
_CONTENT_OP_CACHE: dict[bytes, str] = {}
_CONTENT_NAME_CACHE: dict[bytes, "Name"] = {}
_CONTENT_KEYWORDS = {"true": True, "false": False, "null": None}


def decode_content(data: bytes) -> list[Operation]:
    """Parse a content stream into operations (lopdf ``Content::decode``)
    in one ``findall`` pass of ``_CONTENT_SCAN_RE`` — content streams
    contain no indirect references, so numbers need no ``N G R``
    lookahead. The scan reads numbers, names, arrays, operators, comments,
    simple ``( … )`` literals and terminated ``< … >`` hex strings. The
    first token it cannot read — a literal with an escape or a nested
    paren, ``<<``, an unterminated ``<``, or ``BI`` — sends the whole
    stream to ``_decode_content_slow``, the token-at-a-time scanner, so
    both give the same operations on every input.

    Inline images (BI ... ID ... EI) are skipped. Malformed trailing bytes
    are tolerated (operands without an operator are dropped).
    """
    ops: list[Operation] = []
    operands: list = []
    stack: list[list] = []  # open arrays
    target = operands
    num_cache = _CONTENT_NUM_CACHE
    op_cache = _CONTENT_OP_CACHE
    name_cache = _CONTENT_NAME_CACHE
    # one group per tuple is non-empty (none for a comment or junk byte);
    # tested by frequency — content streams are mostly numbers and operators
    for num, name, delim, word in _CONTENT_SCAN_RE.findall(data):
        if num:
            value = num_cache.get(num)
            if value is None:
                if len(num_cache) > 4096:
                    num_cache.clear()
                value = num_cache[num] = float(num) if b"." in num else int(num)
            target.append(value)
        elif word:
            op = op_cache.get(word)
            if op is None:
                if len(op_cache) > 4096:
                    op_cache.clear()
                op = op_cache[word] = word.decode("latin-1")
            if op == "BI":
                return _decode_content_slow(data)
            if op in _CONTENT_KEYWORDS:
                target.append(_CONTENT_KEYWORDS[op])
            else:
                ops.append(Operation(op, operands))
                operands = []
                target = operands
                stack = []
        elif name:
            nm = name_cache.get(name)
            if nm is None:
                if len(name_cache) > 4096:
                    name_cache.clear()
                nm = name_cache[name] = Name(name[1:].decode("latin-1"))
            target.append(nm)
        elif delim:
            c = delim[0]
            if c == 0x5B:  # '['
                new: list = []
                target.append(new)
                stack.append(target)
                target = new
            elif c == 0x5D:  # ']'
                if stack:
                    target = stack.pop()
            elif len(delim) == 1:  # a '(' or '<' only the slow path reads
                return _decode_content_slow(data)
            elif c == 0x28:  # '(' simple literal string
                target.append(PdfString(delim[1:-1]))
            else:  # '<' hex string
                target.append(_hex_string(delim[1:-1]))
    return ops


def _decode_content_slow(data: bytes) -> list[Operation]:
    """``decode_content`` one ``_CONTENT_TOKEN_RE`` match at a time;
    literal and hex strings and dictionaries go to the :class:`Lexer`, and
    an inline image (BI ... ID ... EI) is skipped to the first ``EI``."""
    ops: list[Operation] = []
    operands: list = []
    stack: list[list] = []  # open arrays
    n = len(data)
    pos = 0
    lex = None
    target = operands
    token_match = _CONTENT_TOKEN_RE.match
    op_cache = _CONTENT_OP_CACHE
    name_cache = _CONTENT_NAME_CACHE
    # dispatch on group index (1=num 2=name 3=lb 4=rb 5=obj 6=cmt 7=op
    # 8=junk), ordered by token frequency — content streams are mostly
    # numbers and operators
    while pos < n:
        m = token_match(data, pos)
        if m is None:
            break
        pos = m.end()
        kind = m.lastindex
        if kind == 1:  # number
            text = m.group(1)
            target.append(float(text) if b"." in text else int(text))
        elif kind == 7:  # operator
            raw = m.group(7)
            op = op_cache.get(raw)
            if op is None:
                if len(op_cache) > 4096:
                    op_cache.clear()
                op = op_cache[raw] = raw.decode("latin-1")
            if op == "BI":
                idx = data.find(b"EI", pos)
                pos = (idx + 2) if idx >= 0 else n
                operands = []
                target = operands
                stack = []
            elif op in _CONTENT_KEYWORDS:
                target.append(_CONTENT_KEYWORDS[op])
            else:
                ops.append(Operation(op, operands))
                operands = []
                target = operands
                stack = []
        elif kind == 2:  # name
            raw = m.group(2)
            nm = name_cache.get(raw)
            if nm is None:
                if len(name_cache) > 4096:
                    name_cache.clear()
                nm = name_cache[raw] = Name(raw[1:].decode("latin-1"))
            target.append(nm)
        elif kind == 3:  # '['
            new: list = []
            target.append(new)
            stack.append(target)
            target = new
        elif kind == 4:  # ']'
            if stack:
                target = stack.pop()
        elif kind == 5:  # '(' literal, '<' hex string or '<<' dict
            if lex is None:
                lex = Lexer(data)
            lex.pos = pos - 1
            try:
                target.append(lex.parse_object())
            except PdfError:
                break
            pos = lex.pos
        # cmt(6) / junk(8): skip
    return ops


def load_mem(data: bytes) -> Document:
    return Document.load_mem(data)
