"""Font width + encoding parsing.

Port of the font machinery in /root/reference/src/extractor.rs:19-469:
simple-font Widths (extractor.rs:96-188), Type0/CID DW+W arrays
(extractor.rs:192-336), string width computation (extractor.rs:341-370),
and Encoding /Differences maps (extractor.rs:400-469).
"""

from __future__ import annotations

from typing import Optional

from .glyphs import glyph_to_char
from .objects import Document, Name, PdfError, Reference, get_number


class FontWidthInfo:
    """extractor.rs:21-34."""

    __slots__ = ("widths", "default_width", "space_width", "is_cid",
                 "units_scale", "_byte_widths")

    def __init__(self, widths: dict[int, int], default_width: int,
                 space_width: int, is_cid: bool, units_scale: float):
        self._byte_widths: Optional[list] = None  # lazy 256-entry lookup
        self.widths = widths
        self.default_width = default_width
        self.space_width = space_width
        self.is_cid = is_cid
        self.units_scale = units_scale


def _as_int(doc: Document, obj) -> Optional[int]:
    # hot path: width arrays are overwhelmingly direct ints (type() check
    # rather than isinstance so bool, an int subclass, falls through)
    t = type(obj)
    if t is int:
        return obj
    if t is float:
        return int(obj)
    try:
        o = doc.resolve(obj)
    except PdfError:
        return None
    if isinstance(o, bool):
        return None
    if isinstance(o, (int, float)):
        return int(o)
    return None


def _as_num(doc: Document, obj) -> Optional[float]:
    try:
        return get_number(doc.resolve(obj))
    except PdfError:
        return None


def parse_font_widths(doc: Document, font_dict: dict) -> Optional[FontWidthInfo]:
    """Dispatch by Subtype (extractor.rs:81-91)."""
    subtype = font_dict.get("Subtype")
    if not isinstance(subtype, Name):
        return None
    st = str(subtype)
    if st == "Type0":
        return parse_type0_widths(doc, font_dict)
    if st in ("Type1", "TrueType", "MMType1", "Type3"):
        return parse_simple_font_widths(doc, font_dict)
    return None


def parse_simple_font_widths(doc: Document, font_dict: dict) -> Optional[FontWidthInfo]:
    """extractor.rs:96-188."""
    first_char = _as_int(doc, font_dict.get("FirstChar"))
    last_char = _as_int(doc, font_dict.get("LastChar"))
    if first_char is None or last_char is None:
        return None
    widths_array = doc.get_array(font_dict.get("Widths"))
    if widths_array is None:
        return None

    widths: dict[int, int] = {}
    space_width = 0
    for i, w_obj in enumerate(widths_array):
        code = first_char + i
        if code > last_char:
            break
        w = w_obj if type(w_obj) is int else _as_int(doc, w_obj)
        if w is None:
            continue
        if code == 32:
            space_width = w
        widths[code] = w
    if space_width == 0:
        space_width = 250

    units_scale = 0.001
    fm = font_dict.get("FontMatrix")
    if fm is not None:
        arr = doc.get_array(fm)
        if arr:
            v = _as_num(doc, arr[0])
            units_scale = abs(v) if v is not None else 0.001
    return FontWidthInfo(widths, 0, space_width, False, units_scale)


def parse_type0_widths(doc: Document, font_dict: dict) -> Optional[FontWidthInfo]:
    """extractor.rs:192-241."""
    desc_fonts = doc.get_array(font_dict.get("DescendantFonts"))
    if not desc_fonts:
        return None
    cid_font_dict = doc.get_dict(desc_fonts[0])
    if cid_font_dict is None:
        return None
    dw = _as_int(doc, cid_font_dict.get("DW"))
    default_width = dw if dw is not None else 1000
    widths: dict[int, int] = {}
    w_array = doc.get_array(cid_font_dict.get("W"))
    if w_array is not None:
        parse_cid_w_array(doc, w_array, widths)
    space_width = widths.get(32)
    if space_width is None:
        space_width = widths.get(3)
    if space_width is None:
        space_width = default_width // 4 if default_width > 0 else 250
    return FontWidthInfo(widths, default_width, space_width, True, 0.001)


def parse_cid_w_array(doc: Document, w_array: list, widths: dict[int, int]) -> None:
    """extractor.rs:245-336: [c [w...]] and [c_first c_last w] forms."""
    i = 0
    n = len(w_array)
    while i < n:
        start = get_number(w_array[i])
        if start is None:
            i += 1
            continue
        start_cid = int(start) & 0xFFFF
        i += 1
        if i >= n:
            break
        nxt = w_array[i]
        if isinstance(nxt, list):
            for j, w_obj in enumerate(nxt):
                w = get_number(w_obj)
                if w is None:
                    continue
                widths[(start_cid + j) & 0xFFFF] = int(w)
            i += 1
        elif isinstance(nxt, Reference):
            try:
                resolved = doc.resolve(nxt)
            except PdfError:
                resolved = None
            if isinstance(resolved, list):
                for j, w_obj in enumerate(resolved):
                    w = get_number(w_obj)
                    if w is None:
                        continue
                    widths[(start_cid + j) & 0xFFFF] = int(w)
                i += 1
            else:
                i += 1  # skip (mirrors the reference's bail)
        elif get_number(nxt) is not None:
            end_cid = int(get_number(nxt)) & 0xFFFF
            i += 1
            if i >= n:
                break
            w = get_number(w_array[i])
            if w is None:
                i += 1
                continue
            for cid in range(start_cid, end_cid + 1):
                widths[cid] = int(w)
            i += 1
        else:
            i += 1


def compute_string_width_ts(data: bytes, font_info: FontWidthInfo, font_size: float) -> float:
    """extractor.rs:341-370: width in text-space units."""
    if font_info.is_cid:
        total = 0.0
        widths = font_info.widths
        default = font_info.default_width
        for j in range(0, len(data) - 1, 2):
            cid = (data[j] << 8) | data[j + 1]
            total += widths.get(cid, default)
    else:
        # single-byte codes: a flat 256-entry list (built once per font)
        # turns the per-byte dict.get loop into one C-level sum(map(...))
        bw = font_info._byte_widths
        if bw is None:
            widths = font_info.widths
            default = font_info.default_width
            bw = font_info._byte_widths = [
                widths.get(i, default) for i in range(256)]
        total = float(sum(map(bw.__getitem__, data)))
    return total * font_info.units_scale * font_size


# -- encodings (Differences) -----------------------------------------------

def parse_encoding_dictionary(doc: Document, enc_dict: dict) -> Optional[dict[int, str]]:
    """extractor.rs:425-469."""
    differences = enc_dict.get("Differences")
    diff_array = doc.get_array(differences)
    if diff_array is None:
        return None
    encoding_map: dict[int, str] = {}
    current_code = 0
    for item in diff_array:
        if isinstance(item, bool):
            continue
        if isinstance(item, (int, float)):
            current_code = int(item) & 0xFF
        elif isinstance(item, Name):
            ch = glyph_to_char(str(item))
            if ch is not None:
                encoding_map[current_code] = ch
            current_code = (current_code + 1) & 0xFF
    return encoding_map if encoding_map else None


def parse_font_encoding(doc: Document, font_dict: dict) -> Optional[dict[int, str]]:
    """extractor.rs:400-422: only dict/reference Encodings with Differences."""
    encoding_obj = font_dict.get("Encoding")
    if encoding_obj is None:
        return None
    if isinstance(encoding_obj, Name):
        return None  # standard encoding names handled by the base fallback
    enc_dict = doc.get_dict(encoding_obj)
    if enc_dict is None:
        return None
    return parse_encoding_dictionary(doc, enc_dict)


# -- base encoding decode (stand-in for lopdf's get_font_encoding path) ----

_WINANSI_EXTRA = {
    0x80: "€", 0x82: "‚", 0x83: "ƒ", 0x84: "„", 0x85: "…", 0x86: "†",
    0x87: "‡", 0x88: "ˆ", 0x89: "‰", 0x8A: "Š", 0x8B: "‹", 0x8C: "Œ",
    0x8E: "Ž", 0x91: "‘", 0x92: "’", 0x93: "“", 0x94: "”", 0x95: "•",
    0x96: "–", 0x97: "—", 0x98: "˜", 0x99: "™", 0x9A: "š", 0x9B: "›",
    0x9C: "œ", 0x9E: "ž", 0x9F: "Ÿ",
}


def decode_with_base_encoding(data: bytes, encoding_name: str) -> str:
    """Decode bytes via a named base encoding. This replaces the reference's
    ``lopdf get_font_encoding + Document::decode_text`` step
    (extractor.rs:1934-1941). WinAnsi ≈ cp1252, MacRoman ≈ mac-roman,
    everything else Latin-1."""
    if encoding_name == "WinAnsiEncoding":
        out = []
        for b in data:
            if b in _WINANSI_EXTRA:
                out.append(_WINANSI_EXTRA[b])
            else:
                out.append(chr(b))
        return "".join(out)
    if encoding_name == "MacRomanEncoding":
        try:
            return data.decode("mac-roman")
        except (UnicodeDecodeError, LookupError):
            pass
    return data.decode("latin-1")


def get_declared_encoding_name(doc: Document, font_dict: dict) -> Optional[str]:
    """Name-valued /Encoding (or /BaseEncoding of an encoding dict)."""
    encoding_obj = font_dict.get("Encoding")
    if isinstance(encoding_obj, Name):
        return str(encoding_obj)
    enc_dict = doc.get_dict(encoding_obj)
    if enc_dict is not None:
        base = enc_dict.get("BaseEncoding")
        if isinstance(base, Name):
            return str(base)
    return None
