"""Positioned text extraction: content-stream interpreter + layout analysis.

Port of /root/reference/src/extractor.rs:472-2441 — TextItem model, the
BT/ET/Tf/Td/Tm/T*/Tj/TJ/'/Do state machine (extractor.rs:909-1298), the
text-operand decode cascade (extractor.rs:1854-1957, order preserved), form
XObjects (extractor.rs:1375-1629), link annotations (extractor.rs:1681-1787),
column detection (extractor.rs:2010-2186) and line grouping / word-join
heuristics (extractor.rs:2223-2441, 619-830).

The page interpreter and the reduced form-XObject interpreter keep only
their operator dispatch, which is where upstream's semantic differences
live. What they share is in one ``_FontScope`` per resource dictionary: the
parsed fonts (read from the per-document ``Document.font_cache``), the
decode cascade, and the one Tj and one TJ body.

Pure per-document code; runs inside the Ray extract actor's ``__call__``.
"""

from __future__ import annotations

import functools
import math
import re
from typing import Optional

from .fonts import (
    FontWidthInfo,
    compute_string_width_ts,
    decode_with_base_encoding,
    get_declared_encoding_name,
    parse_font_encoding,
    parse_font_widths,
)
from .objects import (
    Document,
    Name,
    PdfError,
    PdfString,
    Reference,
    Stream,
    decode_content,
    get_number,
)
from .tounicode import FontCMaps, ToUnicodeCMap

ITEM_TEXT = "Text"
ITEM_IMAGE = "Image"
ITEM_LINK = "Link"


class TextItem:
    """extractor.rs:484-508."""

    __slots__ = ("text", "x", "y", "width", "height", "font", "font_size",
                 "page", "is_bold", "is_italic", "item_type", "link")

    def __init__(self, text: str, x: float, y: float, width: float, height: float,
                 font: str, font_size: float, page: int, is_bold: bool,
                 is_italic: bool, item_type: str = ITEM_TEXT, link: str = ""):
        self.text = text
        self.x = x
        self.y = y
        self.width = width
        self.height = height
        self.font = font
        self.font_size = font_size
        self.page = page
        self.is_bold = is_bold
        self.is_italic = is_italic
        self.item_type = item_type
        self.link = link

    def clone(self) -> "TextItem":
        return TextItem(self.text, self.x, self.y, self.width, self.height,
                        self.font, self.font_size, self.page, self.is_bold,
                        self.is_italic, self.item_type, self.link)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"TextItem({self.text!r}, x={self.x:.1f}, y={self.y:.1f}, "
                f"w={self.width:.1f}, size={self.font_size}, p={self.page})")


class TextLine:
    """extractor.rs:511-516."""

    __slots__ = ("items", "y", "page")

    def __init__(self, items: list[TextItem], y: float, page: int):
        self.items = items
        self.y = y
        self.page = page

    # -- text rendering (extractor.rs:519-651) ------------------------------
    def text(self) -> str:
        return self.text_with_formatting(False, False)

    def text_with_formatting(self, format_bold: bool, format_italic: bool) -> str:
        if not format_bold and not format_italic:
            return self._text_plain()
        res_str = ""
        current_bold = False
        current_italic = False
        for i, item in enumerate(self.items):
            text = item.text
            text_trimmed = text.strip()
            if not text_trimmed:
                continue
            if i == 0 or not res_str:
                needs_space = False
            else:
                prev_item = self.items[i - 1]
                needs_space = self._needs_space_between(prev_item, item, res_str)
            has_leading_space = text.startswith(" ")
            item_bold = format_bold and item.is_bold
            item_italic = format_italic and item.is_italic
            if current_italic and not item_italic:
                res_str += "*"
                current_italic = False
            if current_bold and not item_bold:
                res_str += "**"
                current_bold = False
            if needs_space or (has_leading_space and res_str and not res_str.endswith(" ")):
                res_str += " "
            if item_bold and not current_bold:
                res_str += "**"
                current_bold = True
            if item_italic and not current_italic:
                res_str += "*"
                current_italic = True
            res_str += text_trimmed
        if current_italic:
            res_str += "*"
        if current_bold:
            res_str += "**"
        return res_str

    def _text_plain(self) -> str:
        res = ""
        for i, item in enumerate(self.items):
            if i == 0:
                res += item.text
            else:
                prev_item = self.items[i - 1]
                if self._needs_space_between(prev_item, item, res):
                    res += " "
                res += item.text
        return res

    def _needs_space_between(self, prev_item: TextItem, item: TextItem, result: str) -> bool:
        """extractor.rs:619-651."""
        text = item.text
        prev_ends_with_hyphen = result.endswith("-")
        curr_is_hyphen = text.strip() == "-"
        curr_starts_with_hyphen = text.startswith("-")
        font_ratio = item.font_size / prev_item.font_size if prev_item.font_size else 1.0
        reverse_font_ratio = prev_item.font_size / item.font_size if item.font_size else 1.0
        y_diff = abs(item.y - prev_item.y)
        is_sub_super = font_ratio < 0.85 and y_diff > 1.0
        was_sub_super = reverse_font_ratio < 0.85 and y_diff > 1.0
        should_join = should_join_items(prev_item, item)
        space_already_exists = result.endswith(" ") or text.startswith(" ")
        return not (
            prev_ends_with_hyphen
            or curr_is_hyphen
            or curr_starts_with_hyphen
            or is_sub_super
            or was_sub_super
            or should_join
            or space_already_exists
        )


def is_cjk_char(c: str) -> bool:
    """extractor.rs:1805-1814."""
    o = ord(c)
    return (
        0x3000 <= o <= 0x303F
        or 0x3040 <= o <= 0x309F
        or 0x30A0 <= o <= 0x30FF
        or 0x4E00 <= o <= 0x9FFF
        or 0xF900 <= o <= 0xFAFF
        or 0xFF00 <= o <= 0xFFEF
    )


def should_join_items(prev_item: TextItem, curr_item: TextItem) -> bool:
    """extractor.rs:657-830 — the word-join / spacing decision. Ported
    branch-for-branch; the tuned thresholds are the text-equality contract."""
    if prev_item.text.endswith(" ") or curr_item.text.startswith(" "):
        return False

    prev_stripped = prev_item.text.rstrip()
    curr_stripped = curr_item.text.lstrip()
    prev_last = prev_stripped[-1] if prev_stripped else None
    curr_first = curr_stripped[0] if curr_stripped else None

    if curr_first is not None and curr_first in ".,;!?)]}'":
        return True

    if prev_last == ":" and curr_first is not None and curr_first.isalnum():
        return False

    if prev_item.width > 0.0:
        prev_end_x = prev_item.x + prev_item.width
        gap = curr_item.x - prev_end_x
        font_size = prev_item.font_size

        prev_chars = len(prev_item.text.strip())
        curr_chars = len(curr_item.text.strip())
        pt = prev_item.text.strip()
        ct = curr_item.text.strip()
        prev_last_char = pt[-1] if pt else None
        curr_first_char = ct[0] if ct else None
        is_cjk = (prev_last_char is not None and is_cjk_char(prev_last_char)) or (
            curr_first_char is not None and is_cjk_char(curr_first_char)
        )

        if (not is_cjk and 0.0 <= gap < font_size * 0.01
                and prev_chars >= 3 and curr_chars >= 2):
            prev_word_count = len(prev_item.text.split())
            if prev_word_count >= 3:
                return gap < font_size * 0.15
            prev_trimmed = prev_item.text.rstrip()
            last_word = prev_trimmed.split()[-1] if prev_trimmed.split() else prev_trimmed
            last_word_len = len(last_word) if last_word else prev_chars
            curr_trimmed = curr_item.text.lstrip()
            first_word = curr_trimmed.split()[0] if curr_trimmed.split() else curr_trimmed
            first_word_len = len(first_word) if first_word else curr_chars
            if last_word_len > 2 and first_word_len > 2:
                return False

        if prev_last is not None and curr_first is not None:
            prev_is_numeric = prev_last.isdigit() or prev_last in ",."
            curr_is_numeric = curr_first.isdigit() or curr_first in "%."
            if prev_is_numeric and curr_is_numeric:
                return gap < font_size * 0.3
            if prev_last in "+-" and curr_first.isdigit():
                return gap < font_size * 0.3

        if (prev_chars == 1) != (curr_chars == 1):
            return gap < font_size * 0.25

        if prev_chars == 1 and curr_chars == 1:
            if prev_last is not None and curr_first is not None:
                p_numeric = prev_last.isdigit() or prev_last in ",.%+-"
                c_numeric = curr_first.isdigit() or curr_first in ",.%"
                if p_numeric and c_numeric:
                    return gap < font_size * 0.25

        return gap < font_size * 0.15

    # Width-less fallback (extractor.rs:783-829)
    char_width = prev_item.font_size * 0.45
    estimated_prev_width = len(prev_item.text) * char_width
    prev_end_x = prev_item.x + estimated_prev_width
    gap = curr_item.x - prev_end_x

    is_cjk = (prev_last is not None and is_cjk_char(prev_last)) or (
        curr_first is not None and is_cjk_char(curr_first)
    )
    if is_cjk:
        return gap < char_width * 0.8

    if (prev_last is not None and curr_first is not None
            and prev_last.isalpha() and curr_first.isalpha()):
        same_case = (prev_last.isupper() and curr_first.isupper()) or (
            prev_last.islower() and curr_first.islower()
        )
        if same_case:
            return gap < char_width * 0.8
        if prev_last.islower() and curr_first.isupper():
            return False
        return gap < char_width * 0.3
    return gap < char_width * 0.5


@functools.lru_cache(maxsize=4096)
def is_bold_font(font_name: str) -> bool:
    """extractor.rs:1818-1835. Memoized — called once per text item but
    font names repeat per document."""
    lower = font_name.lower()
    return (
        "bold" in lower
        or "-bd" in lower
        or "_bd" in lower
        or "black" in lower
        or "heavy" in lower
        or "demibold" in lower
        or "semibold" in lower
        or "demi-bold" in lower
        or "semi-bold" in lower
        or "extrabold" in lower
        or "ultrabold" in lower
        or ("medium" in lower and "mediumitalic" not in lower)
    )


@functools.lru_cache(maxsize=4096)
def is_italic_font(font_name: str) -> bool:
    """extractor.rs:1839-1850. Memoized like is_bold_font."""
    lower = font_name.lower()
    return (
        "italic" in lower
        or "oblique" in lower
        or "-it" in lower
        or "_it" in lower
        or "slant" in lower
        or "inclined" in lower
        or "kursiv" in lower
    )


_CTRL_RE = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f]")
_CTRL_OR_LIG_RE = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1fﬀﬁﬂﬃﬄ]")
_LIGATURES = str.maketrans(
    {"ﬀ": "ff", "ﬁ": "fi", "ﬂ": "fl", "ﬃ": "ffi", "ﬄ": "ffl"})


def expand_ligatures(text: str) -> str:
    """extractor.rs:1961-1987: strip controls <0x20 (keep \\n\\r\\t), expand
    U+FB00..FB04."""
    if _CTRL_OR_LIG_RE.search(text) is None:
        return text
    return _CTRL_RE.sub("", text).translate(_LIGATURES)


def effective_font_size(base_size: float, tm: list[float]) -> float:
    """extractor.rs:1791-1800."""
    scale_x = math.hypot(tm[0], tm[1])
    scale_y = math.hypot(tm[2], tm[3])
    return base_size * max(scale_x, scale_y)


def multiply_matrices(m1, m2):
    """extractor.rs:897-906."""
    return [
        m1[0] * m2[0] + m1[1] * m2[2],
        m1[0] * m2[1] + m1[1] * m2[3],
        m1[2] * m2[0] + m1[3] * m2[2],
        m1[2] * m2[1] + m1[3] * m2[3],
        m1[4] * m2[0] + m1[5] * m2[2] + m2[4],
        m1[4] * m2[1] + m1[5] * m2[3] + m2[5],
    ]


class _FontScope:
    """The fonts of one resource dictionary (a page's or a form XObject's)
    and the text-showing code both interpreters share: the decode cascade,
    the Tj and TJ bodies and the item they place. The interpreters keep
    only their operator dispatch; the text state (font, size, text matrix,
    CTM) is passed in per call and the text matrix advanced in place."""

    __slots__ = ("widths", "encodings", "declared", "base_names",
                 "tounicode_refs", "font_cmaps", "cmap_chains", "page_num")

    def __init__(self, doc: Document, resources: Optional[dict],
                 font_cmaps: FontCMaps, page_num: int):
        self.widths: dict[str, FontWidthInfo] = {}
        self.encodings: dict[str, dict[int, str]] = {}
        self.declared: dict[str, str] = {}
        self.base_names: dict[str, str] = {}
        self.tounicode_refs: dict[str, int] = {}
        self.font_cmaps = font_cmaps
        self.cmap_chains: dict[str, tuple[ToUnicodeCMap, ...]] = {}
        self.page_num = page_num
        cache = doc.font_cache
        for name, font_dict in doc.get_fonts(resources).items():
            entry = cache.get(id(font_dict))
            if entry is None:
                # extractor.rs:64-78 widths, 382-397 Differences, plus the
                # declared base encoding of cascade step (6)
                entry = cache[id(font_dict)] = (
                    parse_font_widths(doc, font_dict),
                    parse_font_encoding(doc, font_dict),
                    get_declared_encoding_name(doc, font_dict))
            widths, encoding, declared = entry
            if widths is not None:
                self.widths[name] = widths
            if encoding is not None:
                self.encodings[name] = encoding
            if declared is not None:
                self.declared[name] = declared
            base_font = font_dict.get("BaseFont")
            if isinstance(base_font, Name):
                self.base_names[name] = str(base_font)
            tounicode = font_dict.get("ToUnicode")
            if isinstance(tounicode, Reference):
                self.tounicode_refs[name] = tounicode.num

    def decode(self, obj, font: str) -> Optional[str]:
        """The decode cascade (extractor.rs:1854-1957). Order is the contract:
        (1) CMap by ToUnicode obj ref, (2) base-name+obj, (3) base name,
        (4) resource name, (5) Differences map with printable-byte base
        fallback, (6) declared base encoding, (7) UTF-16BE BOM, (8) Latin-1."""
        if not isinstance(obj, PdfString):
            return None
        data = bytes(obj)
        chain = self.cmap_chains.get(font)
        if chain is None:
            chain = self.cmap_chains[font] = self._cmap_chain(font)
        for cmap in chain:
            decoded = cmap.decode_cids(data)
            if decoded:
                return decoded

        encoding_map = self.encodings.get(font)
        if encoding_map is not None:
            if any(b in encoding_map for b in data):
                out = []
                for b in data:
                    ch = encoding_map.get(b)
                    if ch is not None:
                        out.append(ch)
                    elif b >= 0x20:
                        out.append(chr(b))
                decoded = "".join(out)
                if decoded:
                    return decoded

        enc_name = self.declared.get(font)
        if enc_name is not None:
            return decode_with_base_encoding(data, enc_name)

        if len(data) >= 2 and data[0] == 0xFE and data[1] == 0xFF:
            body = data[2:]
            if len(body) % 2:
                body = body[:-1]
            return body.decode("utf-16-be", errors="replace")

        return data.decode("latin-1")

    def _cmap_chain(self, font: str) -> tuple[ToUnicodeCMap, ...]:
        """The CMaps of cascade steps (1)-(4) for ``font``, in order. Only
        the lookups are memoized: ``decode`` still tries each CMap per
        string, since a CMap's "" (>50% codes unmapped) depends on it."""
        font_cmaps = self.font_cmaps
        obj_num = self.tounicode_refs.get(font)
        base_name = self.base_names.get(font)
        found = []
        if obj_num is not None:
            found.append(font_cmaps.get_by_obj(obj_num))
            if base_name is not None:
                found.append(font_cmaps.get_with_obj(base_name, obj_num))
        if base_name is not None:
            found.append(font_cmaps.get(base_name))
        found.append(font_cmaps.get(font))
        return tuple(cmap for cmap in found if cmap is not None)

    def show(self, operand, font: str, size: float, tm: list[float],
             ctm: list[float], items: list[TextItem]) -> None:
        """Tj (extractor.rs:1044-1104)."""
        text = self.decode(operand, font)
        if text is not None and text.strip():
            font_info = self.widths.get(font)
            width_ts = None
            if font_info is not None:
                width_ts = compute_string_width_ts(bytes(operand), font_info, size)
            self.place(text, width_ts, font, size, tm, ctm, items)

    def show_array(self, array: list, font: str, size: float,
                   tm: list[float], ctm: list[float],
                   items: list[TextItem]) -> None:
        """TJ (extractor.rs:1105-1208): strings joined, a kern wider than
        clamp(0.4 space widths, 80, 200) thousandths (120 without widths)
        becomes one space."""
        font_info = self.widths.get(font)
        if font_info is not None:
            space_em = font_info.space_width * font_info.units_scale
            threshold = space_em * 1000.0 * 0.4
            space_threshold = min(max(threshold, 80.0), 200.0)
        else:
            space_threshold = 120.0
        combined: list[str] = []
        combined_len = 0
        total_width_ts = 0.0
        for element in array:
            n = get_number(element)
            if n is not None:
                total_width_ts += -n / 1000.0 * size
                if (n < -space_threshold and combined_len > 0
                        and not combined[-1].endswith(" ")):
                    combined.append(" ")
                    combined_len += 1
                continue
            if font_info is not None and isinstance(element, PdfString):
                total_width_ts += compute_string_width_ts(bytes(element), font_info, size)
            text = self.decode(element, font)
            if text is not None:
                combined.append(text)
                combined_len += len(text)
        text = "".join(combined)
        if text.strip():
            self.place(text, total_width_ts if font_info is not None else None,
                       font, size, tm, ctm, items)

    def place(self, text: str, width_ts: Optional[float], font: str,
              size: float, tm: list[float], ctm: list[float],
              items: list[TextItem]) -> None:
        """Append ``text`` shown at ``tm`` through ``ctm``; with a width
        (text-space units) advance ``tm`` past it, without one it is placed
        at width 0 and ``tm`` stays."""
        rendered_size = effective_font_size(size, tm)
        combined = multiply_matrices(tm, ctm)
        width = 0.0
        if width_ts is not None:
            width = abs(width_ts * (tm[0] * ctm[0] + tm[1] * ctm[2]))
            tm[4] += width_ts * tm[0]
            tm[5] += width_ts * tm[1]
        base_font = self.base_names.get(font, font)
        items.append(TextItem(
            expand_ligatures(text), combined[4], combined[5], width,
            rendered_size, font, rendered_size, self.page_num,
            is_bold_font(base_font), is_italic_font(base_font), ITEM_TEXT))


# -- content-stream interpreters --------------------------------------------

def _get_page_xobjects(doc: Document, resources: Optional[dict]) -> dict[str, tuple[str, Optional[Reference]]]:
    """extractor.rs:1318-1372: name -> ("Image", None) | ("Form", ref)."""
    out: dict[str, tuple[str, Optional[Reference]]] = {}
    if not resources:
        return out
    xobjects = doc.get_dict(resources.get("XObject"))
    if not xobjects:
        return out
    for name, value in xobjects.items():
        if not isinstance(value, Reference):
            continue
        try:
            obj = doc.resolve(value)
        except PdfError:
            continue
        if isinstance(obj, Stream):
            subtype = str(obj.dict.get("Subtype", ""))
            if subtype == "Image":
                out[str(name)] = ("Image", None)
            elif subtype == "Form":
                out[str(name)] = ("Form", value)
    return out


def extract_page_text_items(
    doc: Document,
    page_ref: Reference,
    page_num: int,
    font_cmaps: FontCMaps,
) -> list[TextItem]:
    """extractor.rs:909-1298."""
    items: list[TextItem] = []
    resources = doc.get_page_resources(page_ref)
    scope = _FontScope(doc, resources, font_cmaps, page_num)
    xobjects = _get_page_xobjects(doc, resources)

    content_data = doc.get_page_content(page_ref)
    operations = decode_content(content_data)

    ctm = [1.0, 0.0, 0.0, 1.0, 0.0, 0.0]
    ctm_stack: list[list[float]] = []
    current_font = ""
    current_font_size = 12.0
    text_matrix = [1.0, 0.0, 0.0, 1.0, 0.0, 0.0]
    line_matrix = [1.0, 0.0, 0.0, 1.0, 0.0, 0.0]
    in_text_block = False

    # Tj, BT and ET are most of a text page's operators: tested first
    for op in operations:
        operator = op.operator
        operands = op.operands
        if operator == "Tj":
            if in_text_block and operands:
                scope.show(operands[0], current_font, current_font_size,
                           text_matrix, ctm, items)
        elif operator == "BT":
            in_text_block = True
            text_matrix = [1.0, 0.0, 0.0, 1.0, 0.0, 0.0]
            line_matrix = [1.0, 0.0, 0.0, 1.0, 0.0, 0.0]
        elif operator == "ET":
            in_text_block = False
        elif operator == "q":
            ctm_stack.append(ctm[:])
        elif operator == "Q":
            if ctm_stack:
                ctm = ctm_stack.pop()
        elif operator == "cm":
            if len(operands) >= 6:
                nums = [get_number(operands[i]) for i in range(6)]
                new_matrix = [
                    nums[0] if nums[0] is not None else 1.0,
                    nums[1] if nums[1] is not None else 0.0,
                    nums[2] if nums[2] is not None else 0.0,
                    nums[3] if nums[3] is not None else 1.0,
                    nums[4] if nums[4] is not None else 0.0,
                    nums[5] if nums[5] is not None else 0.0,
                ]
                ctm = multiply_matrices(new_matrix, ctm)
        elif operator == "Tf":
            if len(operands) >= 2:
                if isinstance(operands[0], Name):
                    current_font = str(operands[0])
                size = get_number(operands[1])
                if size is not None:
                    current_font_size = size
        elif operator in ("Td", "TD"):
            if len(operands) >= 2:
                tx = get_number(operands[0]) or 0.0
                ty = get_number(operands[1]) or 0.0
                line_matrix[4] += tx
                line_matrix[5] += ty
                text_matrix = line_matrix[:]
        elif operator == "Tm":
            if len(operands) >= 6:
                for i in range(6):
                    v = get_number(operands[i])
                    text_matrix[i] = v if v is not None else (1.0 if i in (0, 3) else 0.0)
                line_matrix = text_matrix[:]
        elif operator == "T*":
            line_matrix[5] -= current_font_size * 1.2
            text_matrix = line_matrix[:]
        elif operator == "TJ":
            if in_text_block and operands and isinstance(operands[0], list):
                scope.show_array(operands[0], current_font, current_font_size,
                                 text_matrix, ctm, items)
        elif operator == "'":
            line_matrix[5] -= current_font_size * 1.2
            text_matrix = line_matrix[:]
            if operands:
                text = scope.decode(operands[0], current_font)
                if text is not None and text.strip():
                    scope.place(text, None, current_font, current_font_size,
                                text_matrix, ctm, items)
        elif operator == "Do":
            if operands and isinstance(operands[0], Name):
                xobj_name = str(operands[0])
                entry = xobjects.get(xobj_name)
                if entry is not None:
                    kind, form_ref = entry
                    if kind == "Image":
                        items.append(TextItem(
                            f"[Image: {xobj_name}]", ctm[4], ctm[5],
                            abs(ctm[0]), abs(ctm[3]), "", 0.0, page_num,
                            False, False, ITEM_IMAGE))
                    elif kind == "Form" and form_ref is not None:
                        items.extend(extract_form_xobject_text(
                            doc, form_ref, page_num, font_cmaps, ctm))
    return items


def extract_form_xobject_text(
    doc: Document,
    form_ref: Reference,
    page_num: int,
    font_cmaps: FontCMaps,
    parent_ctm: list[float],
) -> list[TextItem]:
    """extractor.rs:1375-1629 — reduced interpreter over the form's fonts:
    no q/Q/cm/T*/'/Do, Td moves the text matrix itself, and a Tf without a
    numeric size resets it to 12."""
    items: list[TextItem] = []
    try:
        stream = doc.resolve(form_ref)
    except PdfError:
        return items
    if not isinstance(stream, Stream):
        return items
    try:
        content_data = stream.decoded(doc)
    except PdfError:
        return items
    operations = decode_content(content_data)
    scope = _FontScope(doc, doc.get_dict(stream.dict.get("Resources")),
                       font_cmaps, page_num)

    current_font = ""
    current_font_size = 12.0
    text_matrix = [1.0, 0.0, 0.0, 1.0, 0.0, 0.0]
    in_text_block = False

    for op in operations:
        operator = op.operator
        operands = op.operands
        if operator == "BT":
            in_text_block = True
            text_matrix = [1.0, 0.0, 0.0, 1.0, 0.0, 0.0]
        elif operator == "ET":
            in_text_block = False
        elif operator == "Tf":
            if len(operands) >= 2:
                if isinstance(operands[0], Name):
                    current_font = str(operands[0])
                size = get_number(operands[1])
                current_font_size = size if size is not None else 12.0
        elif operator in ("Td", "TD"):
            if len(operands) >= 2:
                text_matrix[4] += get_number(operands[0]) or 0.0
                text_matrix[5] += get_number(operands[1]) or 0.0
        elif operator == "Tm":
            if len(operands) >= 6:
                for i in range(6):
                    v = get_number(operands[i])
                    text_matrix[i] = v if v is not None else (1.0 if i in (0, 3) else 0.0)
        elif operator == "Tj":
            if in_text_block and operands:
                scope.show(operands[0], current_font, current_font_size,
                           text_matrix, parent_ctm, items)
        elif operator == "TJ":
            if in_text_block and operands and isinstance(operands[0], list):
                scope.show_array(operands[0], current_font, current_font_size,
                                 text_matrix, parent_ctm, items)
    return items


def extract_page_links(doc: Document, page_ref: Reference, page_num: int) -> list[TextItem]:
    """extractor.rs:1681-1761."""
    links: list[TextItem] = []
    page_dict = doc.get_dict(page_ref)
    if not page_dict:
        return links
    annots = doc.get_array(page_dict.get("Annots"))
    if annots is None:
        return links
    for annot_ref in annots:
        annot_dict = doc.get_dict(annot_ref)
        if annot_dict is None:
            continue
        subtype = annot_dict.get("Subtype")
        if isinstance(subtype, Name) and str(subtype) != "Link":
            continue
        rect = None
        rect_array = doc.get_array(annot_dict.get("Rect"))
        if rect_array is not None and len(rect_array) >= 4:
            vals = [get_number(doc.resolve(v)) if isinstance(v, Reference) else get_number(v)
                    for v in rect_array[:4]]
            x1 = vals[0] or 0.0
            y1 = vals[1] or 0.0
            x2 = vals[2] or 0.0
            y2 = vals[3] or 0.0
            rect = (x1, y1, x2 - x1, y2 - y1)
        uri = _extract_link_uri(doc, annot_dict)
        if rect is not None and uri is not None:
            x, y, width, height = rect
            links.append(TextItem(uri, x, y, width, height, "", 0.0,
                                  page_num, False, False, ITEM_LINK, uri))
    return links


def _extract_link_uri(doc: Document, annot_dict: dict) -> Optional[str]:
    """extractor.rs:1764-1787."""
    action_dict = doc.get_dict(annot_dict.get("A"))
    if action_dict is not None:
        uri_obj = action_dict.get("URI")
        try:
            uri_obj = doc.resolve(uri_obj)
        except PdfError:
            uri_obj = None
        if isinstance(uri_obj, PdfString):
            return bytes(uri_obj).decode("utf-8", errors="replace")
    return None


# -- whole-document extraction ---------------------------------------------

def extract_text_with_positions_mem(
    buffer: bytes, font_cmaps: Optional[FontCMaps] = None
) -> list[TextItem]:
    """extractor.rs:864-890. ``font_cmaps`` may be supplied by the actor's
    per-worker cache to skip the raw-bytes pre-pass on repeated payloads."""
    if font_cmaps is None:
        font_cmaps = FontCMaps.from_pdf_bytes(buffer)
    doc = Document.load_mem(buffer)
    return extract_positioned_text_from_doc(doc, font_cmaps)


def extract_positioned_text_from_doc(doc: Document, font_cmaps: FontCMaps) -> list[TextItem]:
    all_items: list[TextItem] = []
    for page_num, page_ref in doc.get_pages().items():
        all_items.extend(extract_page_text_items(doc, page_ref, page_num, font_cmaps))
        all_items.extend(extract_page_links(doc, page_ref, page_num))
    return all_items


def extract_text_mem(buffer: bytes) -> str:
    """Legacy plain-text API (extractor.rs:839-851). The reference delegates
    to lopdf's extract_text; we approximate with the positioned extractor,
    emitting one line per text operation in stream order with newlines on
    Y changes."""
    doc = Document.load_mem(buffer)
    font_cmaps = FontCMaps.from_pdf_bytes(buffer)
    out: list[str] = []
    for page_num, page_ref in doc.get_pages().items():
        prev_y: Optional[float] = None
        for item in extract_page_text_items(doc, page_ref, page_num, font_cmaps):
            if item.item_type != ITEM_TEXT:
                continue
            if prev_y is not None and abs(item.y - prev_y) > 0.5:
                out.append("\n")
            elif out and not out[-1].endswith("\n"):
                out.append(" ")
            out.append(item.text)
            prev_y = item.y
        out.append("\n")
    return "".join(out)


# -- layout: columns + line grouping (extractor.rs:1989-2441) ---------------

def effective_width(item: TextItem) -> float:
    """extractor.rs:1990-1996."""
    if item.width > 0.0:
        return item.width
    return len(item.text) * item.font_size * 0.5


class ColumnRegion:
    __slots__ = ("x_min", "x_max")

    def __init__(self, x_min: float, x_max: float):
        self.x_min = x_min
        self.x_max = x_max


def detect_columns(items: list[TextItem], page: int) -> list[ColumnRegion]:
    """extractor.rs:2010-2186 — horizontal occupancy histogram + valleys."""
    BIN_WIDTH = 2.0
    MIN_GUTTER_WIDTH = 8.0
    MIN_VERTICAL_SPAN_RATIO = 0.30
    MIN_ITEMS_PER_COLUMN = 10
    NOISE_FRACTION = 0.05

    page_items = [i for i in items if i.page == page]
    if not page_items:
        return []
    x_min = min(i.x for i in page_items)
    x_max = max(i.x + effective_width(i) for i in page_items)
    page_width = x_max - x_min
    if page_width < 200.0 or len(page_items) < 20:
        return [ColumnRegion(x_min, x_max)]

    num_bins = max(1, math.ceil(page_width / BIN_WIDTH))
    # difference-array histogram (numpy): identical integer semantics to the
    # reference's per-bin loop (extractor.rs:2044-2053), vectorized
    import numpy as np

    lefts = np.fromiter(
        (min(int((i.x - x_min) / BIN_WIDTH), num_bins) for i in page_items),
        dtype=np.int64, count=len(page_items))
    rights = np.fromiter(
        (min(math.ceil((i.x + effective_width(i) - x_min) / BIN_WIDTH),
             num_bins) for i in page_items),
        dtype=np.int64, count=len(page_items))
    diff = np.zeros(num_bins + 1, dtype=np.int64)
    np.add.at(diff, lefts, 1)
    np.add.at(diff, rights, -1)
    histogram = np.cumsum(diff[:-1]).tolist()

    max_count = max(histogram) if histogram else 0
    noise_threshold = int(max_count * NOISE_FRACTION)

    valleys: list[tuple[int, int]] = []
    valley_start: Optional[int] = None
    for i, count in enumerate(histogram):
        if count <= noise_threshold:
            if valley_start is None:
                valley_start = i
        elif valley_start is not None:
            valleys.append((valley_start, i))
            valley_start = None
    if valley_start is not None:
        valleys.append((valley_start, num_bins))

    margin_threshold = page_width * 0.05
    filtered = []
    for start, end in valleys:
        width_pts = (end - start) * BIN_WIDTH
        if width_pts < MIN_GUTTER_WIDTH:
            continue
        center_pts = ((start + end) / 2.0) * BIN_WIDTH
        if margin_threshold < center_pts < (page_width - margin_threshold):
            filtered.append((start, end))
    valleys = filtered
    if not valleys:
        return [ColumnRegion(x_min, x_max)]

    y_min = min(i.y for i in page_items)
    y_max = max(i.y for i in page_items)
    y_range = y_max - y_min

    valid_valleys = []
    for start, end in valleys:
        gutter_left = x_min + start * BIN_WIDTH
        gutter_right = x_min + end * BIN_WIDTH
        gutter_center = (gutter_left + gutter_right) / 2.0
        left_items = [i for i in page_items if i.x + effective_width(i) <= gutter_center]
        right_items = [i for i in page_items if i.x >= gutter_center]
        if len(left_items) < MIN_ITEMS_PER_COLUMN or len(right_items) < MIN_ITEMS_PER_COLUMN:
            continue
        if y_range > 0.0:
            left_y_min = min(i.y for i in left_items)
            left_y_max = max(i.y for i in left_items)
            right_y_min = min(i.y for i in right_items)
            right_y_max = max(i.y for i in right_items)
            overlap = max(0.0, min(left_y_max, right_y_max) - max(left_y_min, right_y_min))
            if overlap / y_range < MIN_VERTICAL_SPAN_RATIO:
                continue
        valid_valleys.append((start, end))

    if not valid_valleys:
        return [ColumnRegion(x_min, x_max)]
    if len(valid_valleys) > 3:
        valid_valleys.sort(key=lambda v: -(v[1] - v[0]))
        valid_valleys = valid_valleys[:3]
        valid_valleys.sort(key=lambda v: v[0])

    columns: list[ColumnRegion] = []
    col_start = x_min
    for start, end in valid_valleys:
        gutter_center = x_min + ((start + end) / 2.0) * BIN_WIDTH
        columns.append(ColumnRegion(col_start, gutter_center))
        col_start = gutter_center
    columns.append(ColumnRegion(col_start, x_max))
    return columns


def spans_multiple_columns(item: TextItem, columns: list[ColumnRegion]) -> bool:
    """extractor.rs:2189-2202."""
    w = effective_width(item)
    item_right = item.x + w
    overlap_count = 0
    for col in columns:
        overlap = max(0.0, min(item_right, col.x_max) - max(item.x, col.x_min))
        if overlap > (col.x_max - col.x_min) * 0.10 or overlap > 20.0:
            overlap_count += 1
    return overlap_count >= 2


def is_page_number(item: TextItem) -> bool:
    """extractor.rs:2205-2220."""
    text = item.text.strip()
    if not text or len(text) > 4:
        return False
    if not all(c.isdigit() and c.isascii() for c in text):
        return False
    return item.y > 720.0 or item.y < 100.0


def should_use_y_sorting(items: list[TextItem]) -> bool:
    """extractor.rs:2324-2357."""
    if len(items) < 5:
        return False
    ys = [i.y for i in items]
    large_jumps_up = 0
    large_jumps_down = 0
    jump_threshold = 50.0
    for a, b in zip(ys, ys[1:]):
        delta = b - a
        if delta > jump_threshold:
            large_jumps_up += 1
        elif delta < -jump_threshold:
            large_jumps_down += 1
    total = large_jumps_up + large_jumps_down
    if total < 3:
        return False
    return large_jumps_up / total > 0.4


def group_single_column(items: list[TextItem]) -> list[TextLine]:
    """extractor.rs:2361-2441."""
    if not items:
        return []
    if should_use_y_sorting(items):
        items = sorted(items, key=lambda i: (-i.y, i.x))

    lines: list[TextLine] = []
    y_tolerance = 3.0
    for item in items:
        should_merge = False
        if lines:
            last_line = lines[-1]
            if last_line.page == item.page:
                y_diff = abs(last_line.y - item.y)
                if y_diff < y_tolerance:
                    should_merge = True
                    if y_diff > 0.5:
                        first_item = last_line.items[0]
                        if abs(item.x - first_item.x) < 5.0:
                            should_merge = False
                        elif item.x < last_line.items[-1].x - 10.0:
                            should_merge = False
        if should_merge:
            lines[-1].items.append(item)
        else:
            lines.append(TextLine([item], item.y, item.page))

    for line in lines:
        line.items.sort(key=lambda i: i.x)
    return lines


def group_into_lines(items: list[TextItem]) -> list[TextLine]:
    """extractor.rs:2223-2320 — page-number filter, per-page columns,
    spanning-vs-column split, section-based merge."""
    if not items:
        return []
    items = [i for i in items if not is_page_number(i)]
    pages = sorted({i.page for i in items})
    all_lines: list[TextLine] = []
    for page in pages:
        page_items = [i for i in items if i.page == page]
        columns = detect_columns(page_items, page)
        if len(columns) <= 1:
            all_lines.extend(group_single_column(page_items))
            continue
        spanning_items: list[TextItem] = []
        column_items: list[TextItem] = []
        for item in page_items:
            if spans_multiple_columns(item, columns):
                spanning_items.append(item)
            else:
                column_items.append(item)
        per_column_lines: list[list[TextLine]] = []
        for column in columns:
            col_items = [
                i for i in column_items
                if column.x_min <= i.x + effective_width(i) / 2.0 < column.x_max
            ]
            per_column_lines.append(group_single_column(col_items))
        spanning_lines = group_single_column(spanning_items)
        spanning_lines.sort(key=lambda l: -l.y)

        merged: list[TextLine] = []
        col_cursors = [0] * len(per_column_lines)
        for span_line in spanning_lines:
            span_y = span_line.y
            for ci, col_lines in enumerate(per_column_lines):
                while col_cursors[ci] < len(col_lines) and col_lines[col_cursors[ci]].y >= span_y:
                    merged.append(col_lines[col_cursors[ci]])
                    col_cursors[ci] += 1
            merged.append(span_line)
        for ci, col_lines in enumerate(per_column_lines):
            while col_cursors[ci] < len(col_lines):
                merged.append(col_lines[col_cursors[ci]])
                col_cursors[ci] += 1
        all_lines.extend(merged)
    return all_lines
