"""Table detection + markdown rendering.

Port of /root/reference/src/tables.rs: the two-pass detector (SmallFont
tables.rs:38-70 / BodyFont tables.rs:72-106), the loose + strict Y-region
finders (tables.rs:112-271), the grid builder with its 8 validations
(tables.rs:274-426), form-header skipping (tables.rs:999-1115), and the
pipe-table renderer with continuation-row merge and footnote extraction
(tables.rs:887-995).
"""

from __future__ import annotations

from typing import Optional

from .extract import TextItem

MODE_SMALL_FONT = "SmallFont"
MODE_BODY_FONT = "BodyFont"


class Table:
    """tables.rs:18-27."""

    __slots__ = ("columns", "rows", "cells", "item_indices")

    def __init__(self, columns: list[float], rows: list[float],
                 cells: list[list[str]], item_indices: list[int]):
        self.columns = columns
        self.rows = rows
        self.cells = cells
        self.item_indices = item_indices


def detect_tables(items: list[TextItem], base_font_size: float) -> list[Table]:
    """tables.rs:30-109."""
    if len(items) < 6:
        return []
    tables: list[Table] = []
    claimed: set[int] = set()

    # Pass 1: small-font
    table_font_threshold = base_font_size * 0.90
    table_candidates = [
        (idx, item) for idx, item in enumerate(items)
        if item.font_size <= table_font_threshold and item.font_size >= 6.0
    ]
    if len(table_candidates) >= 6:
        for y_min, y_max in find_table_regions(table_candidates):
            region_items = [(i, it) for i, it in table_candidates
                            if y_min <= it.y <= y_max]
            if len(region_items) < 6:
                continue
            table = detect_table_in_region(region_items, MODE_SMALL_FONT)
            if table is not None:
                claimed.update(table.item_indices)
                tables.append(table)

    # Pass 2: body-font (stricter)
    body_font_low = base_font_size * 0.85
    body_font_high = base_font_size * 1.05
    body_candidates = [
        (idx, item) for idx, item in enumerate(items)
        if idx not in claimed
        and body_font_low <= item.font_size <= body_font_high
        and item.font_size >= 6.0
    ]
    if len(body_candidates) >= 9:
        for y_min, y_max in find_table_regions_strict(body_candidates):
            region_items = [(i, it) for i, it in body_candidates
                            if y_min <= it.y <= y_max]
            if len(region_items) < 9:
                continue
            table = detect_table_in_region(region_items, MODE_BODY_FONT)
            if table is not None:
                tables.append(table)
    return tables


def find_table_regions(items: list[tuple[int, TextItem]]) -> list[tuple[float, float]]:
    """tables.rs:112-149: sort Y asc, split on gaps >30, keep runs >=4, pad ±5."""
    if not items:
        return []
    y_positions = sorted(it.y for _, it in items)
    regions: list[tuple[float, float]] = []
    gap_threshold = 30.0
    region_start = y_positions[0]
    region_end = y_positions[0]
    region_count = 1
    for y in y_positions[1:]:
        if y - region_end > gap_threshold:
            if region_count >= 4:
                regions.append((region_start - 5.0, region_end + 5.0))
            region_start = y
            region_end = y
            region_count = 1
        else:
            region_end = y
            region_count += 1
    if region_count >= 4:
        regions.append((region_start - 5.0, region_end + 5.0))
    return regions


def find_table_regions_strict(items: list[tuple[int, TextItem]]) -> list[tuple[float, float]]:
    """tables.rs:155-271."""
    if not items:
        return []
    # Step 1: group by Y (8pt tolerance, first-match like the reference)
    row_groups: list[tuple[float, list[float]]] = []
    for _, item in items:
        found = False
        for gi, (center, xs) in enumerate(row_groups):
            if abs(item.y - center) < 8.0:
                xs.append(item.x)
                found = True
                break
        if not found:
            row_groups.append((item.y, [item.x]))

    # Step 2: rows with 3+ X clusters (20pt)
    qualifying_rows: list[tuple[float, list[float]]] = []
    for y, xs in row_groups:
        sorted_xs = sorted(xs)
        if not sorted_xs:
            continue
        cluster_starts = [sorted_xs[0]]
        last_x = sorted_xs[0]
        for x in sorted_xs[1:]:
            if x - last_x > 20.0:
                cluster_starts.append(x)
                last_x = x
        if len(cluster_starts) >= 3:
            qualifying_rows.append((y, cluster_starts))
    if len(qualifying_rows) < 3:
        return []

    # Step 3: contiguous runs (25pt max gap), ascending Y
    qualifying_rows.sort(key=lambda r: r[0])
    candidate_regions: list[list[tuple[float, list[float]]]] = []
    current: list[tuple[float, list[float]]] = [qualifying_rows[0]]
    for row in qualifying_rows[1:]:
        prev_y = current[-1][0]
        if row[0] - prev_y > 25.0:
            if len(current) >= 3:
                candidate_regions.append(current)
            current = [row]
        else:
            current.append(row)
    if len(current) >= 3:
        candidate_regions.append(current)

    # Step 4: pairwise cross-row column alignment score >= 0.5 (10pt tol).
    # Vectorized as one padded (rows × rows × w × w) tolerance tensor per
    # region — same float comparisons and integer counts as the reference's
    # per-pair loops (tables.rs:231-254), ~20× fewer Python ops on real
    # tables (this is the hottest loop of the markdown phase).
    import numpy as np
    regions: list[tuple[float, float]] = []
    for region_rows in candidate_regions:
        num_rows = len(region_rows)
        tolerance = 10.0
        if num_rows <= 5:
            # few pairs: scalar loop beats numpy setup overhead
            total_score = 0.0
            pair_count = 0
            for i in range(num_rows):
                for j in range(i + 1, num_rows):
                    a = region_rows[i][1]
                    b = region_rows[j][1]
                    ma = sum(1 for ax in a
                             if any(abs(ax - bx) < tolerance for bx in b))
                    mb = sum(1 for bx in b
                             if any(abs(ax - bx) < tolerance for ax in a))
                    ml = max(len(a), len(b))
                    if ml > 0:
                        total_score += (ma + mb) / (2 * ml)
                        pair_count += 1
            if pair_count and total_score / pair_count >= 0.5:
                regions.append((region_rows[0][0] - 5.0,
                                region_rows[-1][0] + 5.0))
            continue
        w = max(len(r[1]) for r in region_rows)
        grid = np.full((num_rows, w), np.inf)
        valid = np.zeros((num_rows, w), dtype=bool)
        for i, (_, xs) in enumerate(region_rows):
            grid[i, : len(xs)] = xs
            valid[i, : len(xs)] = True
        # close[i, j, p, q] = |x_ip - x_jq| < tol (inf padding never matches)
        with np.errstate(invalid="ignore"):
            diff = np.abs(grid[:, None, :, None] - grid[None, :, None, :])
        close = diff < tolerance
        # matches[i, j] = count of row-i entries within tol of ANY row-j entry
        matches = (close.any(axis=3) & valid[:, None, :]).sum(axis=2)
        lens = valid.sum(axis=1)
        max_len = np.maximum(lens[:, None], lens[None, :])
        iu, ju = np.triu_indices(num_rows, 1)
        pair_scores = (matches[iu, ju] + matches[ju, iu]) / (2 * max_len[iu, ju])
        # accumulate in the reference's (i, j) order so the float sum is
        # bit-identical to the old per-pair loop (goldens are byte-frozen)
        total_score = 0.0
        for v in pair_scores.tolist():
            total_score += v
        avg_score = total_score / len(pair_scores) if len(pair_scores) else 0.0
        if avg_score >= 0.5:
            regions.append((region_rows[0][0] - 5.0, region_rows[-1][0] + 5.0))
    return regions


def detect_table_in_region(items: list[tuple[int, TextItem]], mode: str) -> Optional[Table]:
    """tables.rs:274-426."""
    columns = find_column_boundaries(items, mode)
    min_cols = 2 if mode == MODE_SMALL_FONT else 3
    if len(columns) < min_cols or len(columns) > 15:
        return None
    rows = find_row_boundaries(items)
    min_rows = 2 if mode == MODE_SMALL_FONT else 3
    if len(rows) < min_rows:
        return None
    col_alignment = check_column_alignment(items, columns, mode)
    min_alignment = 0.5 if mode == MODE_SMALL_FONT else 0.7
    if col_alignment < min_alignment:
        return None

    cell_items: list[list[list[TextItem]]] = [
        [[] for _ in columns] for _ in rows
    ]
    item_indices: list[int] = []
    # tables.rs:798-836 find_column_index/find_row_index, vectorized over
    # all items at once (same nearest-boundary + threshold semantics;
    # argmin picks the first minimal index exactly like min(range, key=...))
    import numpy as np
    if len(columns) >= 2:
        min_gap = min(abs(b - a) for a, b in zip(columns, columns[1:]))
        col_threshold = min(max(min_gap / 2.0, 25.0), 50.0)
    else:
        col_threshold = 50.0
    xs = np.array([it.x for _, it in items])
    ys = np.array([it.y for _, it in items])
    cols_a = np.array(columns)
    rows_a = np.array(rows)
    dc = np.abs(xs[:, None] - cols_a[None, :])
    col_idx = dc.argmin(axis=1)
    col_ok = dc[np.arange(len(xs)), col_idx] < col_threshold
    dr = np.abs(ys[:, None] - rows_a[None, :])
    row_idx = dr.argmin(axis=1)
    row_ok = dr[np.arange(len(ys)), row_idx] < 15.0
    ok = col_ok & row_ok
    for k, (idx, item) in enumerate(items):
        if ok[k]:
            cell_items[row_idx[k]][col_idx[k]].append(item)
            item_indices.append(idx)

    first_table_row, excluded_items = find_first_table_row(cell_items, rows, items)
    item_indices = [i for i in item_indices if i not in excluded_items]
    if first_table_row > 0:
        rows = rows[first_table_row:]
        cell_items = cell_items[first_table_row:]

    cells: list[list[str]] = []
    for row_items in cell_items:
        row_cells = []
        for col_items in row_items:
            col_items.sort(key=lambda i: i.x)
            row_cells.append(join_cell_items(col_items))
        cells.append(row_cells)

    # Validation 1: first-column fill >= 50%
    rows_with_first_col = sum(1 for row in cells if row and row[0])
    if rows_with_first_col < len(rows) // 2:
        return None
    # Validation 2: multi-column rows
    rows_with_multi = sum(1 for row in cells
                          if sum(1 for c in row if c) >= 2)
    if mode == MODE_SMALL_FONT:
        multi_threshold = max(len(rows) // 3, 1)
    else:
        multi_threshold = max(len(rows) // 2, 1)
    if rows_with_multi < multi_threshold:
        return None
    # Validation 3: <=200 rows
    if len(rows) > 200:
        return None
    # Validation 4: avg filled cells per row
    total_filled = sum(sum(1 for c in row if c) for row in cells)
    avg_cells = total_filled / len(rows) if rows else 0.0
    min_avg = 1.5 if mode == MODE_SMALL_FONT else 2.5
    if avg_cells < min_avg:
        return None
    # Validation 5: key-value layout
    if is_key_value_layout(cells):
        return None
    # Validation 6: column-count consistency
    if not has_consistent_columns(cells):
        return None
    # Validation 7: data-like content
    if not has_table_like_content(cells, mode):
        return None
    # Validation 8: TOC pattern
    if is_table_of_contents(cells):
        return None

    return Table(columns, rows, cells, item_indices)


def is_key_value_layout(cells: list[list[str]]) -> bool:
    """tables.rs:429-468."""
    if not cells:
        return False
    num_cols = len(cells[0])
    label_like_first = 0
    rows_with_two_or_less = 0
    for row in cells:
        filled = sum(1 for c in row if c)
        if filled <= 2:
            rows_with_two_or_less += 1
        first = (row[0] if row else "").strip()
        if first.endswith(":") or (
            len(first) > 3
            and all(c.isupper() or c.isspace() or c in "()" for c in first)
        ):
            label_like_first += 1
    pct_two = rows_with_two_or_less / len(cells)
    pct_label = label_like_first / len(cells)
    return pct_two > 0.7 and pct_label > 0.5 and num_cols <= 6


def has_consistent_columns(cells: list[list[str]]) -> bool:
    """tables.rs:471-501."""
    if len(cells) < 3:
        return True
    filled_counts = [sum(1 for c in row if c) for row in cells]
    freq: dict[int, int] = {}
    for c in filled_counts:
        freq[c] = freq.get(c, 0) + 1
    most_common = max(freq.items(), key=lambda kv: kv[1])[0] if freq else 0
    consistent = sum(
        1 for c in filled_counts
        if max(0, most_common - 2) <= c <= most_common + 2
    )
    return consistent / len(cells) > 0.4


def has_table_like_content(cells: list[list[str]], mode: str) -> bool:
    """tables.rs:504-538."""
    data_like = 0
    total = 0
    for row in cells[1:]:  # skip header
        for cell in row:
            t = cell.strip()
            if t:
                total += 1
                if looks_like_table_data(t):
                    data_like += 1
    if total == 0:
        return False
    pct = data_like / total
    num_cols = len(cells[0]) if cells else 0
    min_pct = 0.2 if mode == MODE_SMALL_FONT else 0.3
    return pct > min_pct or (mode == MODE_SMALL_FONT and num_cols >= 5)


def looks_like_table_data(s: str) -> bool:
    """tables.rs:542-601."""
    s = s.strip()
    if not s:
        return False
    if looks_like_number(s):
        return True
    # dates
    if (len(s) <= 10
            and sum(1 for c in s if c.isdigit() and c.isascii()) >= 4
            and ("/" in s or "-" in s)
            and all((c.isdigit() and c.isascii()) or c in "/-" for c in s)):
        return True
    # part numbers / model codes
    if (len(s) <= 10
            and all(c.isalnum() for c in s)
            and any(c.isdigit() and c.isascii() for c in s)):
        return True
    # specs with units
    has_number = any(c.isdigit() and c.isascii() for c in s)
    has_unit = ("°" in s or "V" in s or "A" in s or "Hz" in s or "mA" in s
                or "µ" in s or "pin" in s or "MHz" in s or "kHz" in s)
    if has_number and has_unit:
        return True
    # package designations
    if "(" in s and ")" in s and any(c.isdigit() and c.isascii() for c in s):
        return True
    # temperature ranges
    if ("°C" in s or "°F" in s) and "to" in s:
        return True
    return False


def looks_like_number(s: str) -> bool:
    """tables.rs:604-614."""
    s = s.strip()
    if not s:
        return False
    return (all((c.isdigit() and c.isascii()) or c in ".,-+" for c in s)
            and any(c.isdigit() and c.isascii() for c in s))


def is_table_of_contents(cells: list[list[str]]) -> bool:
    """tables.rs:618-664."""
    if not cells:
        return False
    dot_cells = 0
    page_number_cells = 0
    total = 0
    for row in cells:
        for cell in row:
            t = cell.strip()
            if not t:
                continue
            total += 1
            dot_count = t.count(".")
            if dot_count > len(t) // 2 and dot_count >= 3:
                dot_cells += 1
            digits_only = "".join(c for c in t if not c.isspace())
            if (len(digits_only) <= 4 and digits_only
                    and all(c.isdigit() and c.isascii() for c in digits_only)):
                page_number_cells += 1
    if total == 0:
        return False
    dot_ratio = dot_cells / total
    page_ratio = page_number_cells / total
    return dot_ratio > 0.15 or (dot_ratio > 0.05 and page_ratio > 0.15)


def check_column_alignment(items: list[tuple[int, TextItem]], columns: list[float],
                           mode: str) -> float:
    """tables.rs:667-682."""
    tolerance = 40.0 if mode == MODE_SMALL_FONT else 30.0
    if not items or not columns:
        return 0.0
    import numpy as np
    xs = np.array([item.x for _, item in items])
    cols = np.array(columns)
    aligned = int((np.abs(xs[:, None] - cols[None, :]) < tolerance)
                  .any(axis=1).sum())
    return aligned / len(items)


def find_column_boundaries(items: list[tuple[int, TextItem]], mode: str) -> list[float]:
    """tables.rs:685-755."""
    x_positions = sorted(it.x for _, it in items)
    if not x_positions:
        return []
    x_range = x_positions[-1] - x_positions[0]
    avg_gap = x_range / (len(x_positions) - 1) if len(x_positions) > 1 else 60.0
    cluster_threshold = min(max(avg_gap, 25.0), 50.0)

    columns: list[float] = []
    cluster: list[float] = [x_positions[0]]
    for x in x_positions[1:]:
        center = sum(cluster) / len(cluster)
        if x - center > cluster_threshold:
            columns.append(center)
            cluster = [x]
        else:
            cluster.append(x)
    if cluster:
        columns.append(sum(cluster) / len(cluster))

    min_items_per_col = max(len(items) // max(len(columns), 1) // 4, 2)
    import numpy as np
    xs = np.array([i.x for _, i in items])
    cols_arr = np.array(columns)
    counts = (np.abs(xs[:, None] - cols_arr[None, :])
              < cluster_threshold).sum(axis=0)
    columns = [col for col, c in zip(columns, counts.tolist())
               if c >= min_items_per_col]

    if mode == MODE_BODY_FONT:
        total = len(items)
        kept = {col for col in columns}
        for col, c in zip(cols_arr.tolist(), counts.tolist()):
            if col in kept and total and c / total > 0.60:
                return []
    return columns


def find_row_boundaries(items: list[tuple[int, TextItem]]) -> list[float]:
    """tables.rs:758-795: Y desc clustering, threshold max(0.8*median_font, 4)."""
    y_positions = sorted((it.y for _, it in items), reverse=True)
    if not y_positions:
        return []
    font_sizes = sorted(it.font_size for _, it in items)
    median_font = font_sizes[len(font_sizes) // 2]
    cluster_threshold = max(median_font * 0.8, 4.0)
    rows: list[float] = []
    cluster: list[float] = [y_positions[0]]
    for y in y_positions[1:]:
        center = sum(cluster) / len(cluster)
        if center - y >= cluster_threshold:
            rows.append(center)
            cluster = [y]
        else:
            cluster.append(y)
    if cluster:
        rows.append(sum(cluster) / len(cluster))
    return rows


def join_cell_items(items: list[TextItem]) -> str:
    """tables.rs:840-884."""
    result = ""
    for i, item in enumerate(items):
        text = item.text.strip()
        if not text:
            continue
        if not result:
            result = text
            continue
        prev_item = items[i - 1]
        prev_ends_with_hyphen = result.endswith("-")
        curr_is_hyphen = text == "-"
        curr_starts_with_hyphen = text.startswith("-")
        font_ratio = item.font_size / prev_item.font_size if prev_item.font_size else 1.0
        reverse_ratio = prev_item.font_size / item.font_size if item.font_size else 1.0
        y_diff = abs(item.y - prev_item.y)
        is_sub_super = font_ratio < 0.85 and y_diff > 1.0
        was_sub_super = reverse_ratio < 0.85 and y_diff > 1.0
        if (prev_ends_with_hyphen or curr_is_hyphen or curr_starts_with_hyphen
                or is_sub_super or was_sub_super):
            result += text
        else:
            result += " " + text
    return result


def table_to_markdown(table: Table) -> str:
    """tables.rs:887-943."""
    if not table.cells or not table.cells[0]:
        return ""
    cleaned_cells, footnotes = clean_table_cells(table.cells)
    if not cleaned_cells:
        return ""
    num_cols = len(cleaned_cells[0])
    out: list[str] = []
    col_widths = [
        max(3, max((len(row[col]) if col < len(row) else 0)
                   for row in cleaned_cells))
        for col in range(num_cols)
    ]
    for row_idx, row in enumerate(cleaned_cells):
        parts = ["|"]
        for col_idx, cell in enumerate(row):
            width = col_widths[col_idx] if col_idx < len(col_widths) else 3
            parts.append(f" {cell:<{width}} |")
        out.append("".join(parts))
        if row_idx == 0:
            sep = ["|"]
            for width in col_widths:
                sep.append(f" {'-' * width} |")
            out.append("".join(sep))
    result = "\n".join(out) + "\n"
    if footnotes:
        result += "\n"
        for fn in footnotes:
            result += fn + "\n"
    return result


def clean_table_cells(cells: list[list[str]]) -> tuple[list[list[str]], list[str]]:
    """tables.rs:946-995."""
    cleaned: list[list[str]] = []
    footnotes: list[str] = []
    for row in cells:
        if all(not c.strip() for c in row):
            continue
        first_cell = (row[0] if row else "").strip()
        if is_footnote_row(first_cell):
            footnotes.append(" ".join(c.strip() for c in row if c.strip()))
            continue
        is_continuation = (
            not first_cell
            and any(c.strip() for c in row[1:])
            and bool(cleaned)
        )
        if is_continuation:
            prev_row = cleaned[-1]
            for col_idx, cell in enumerate(row):
                t = cell.strip()
                if t and col_idx < len(prev_row):
                    if prev_row[col_idx]:
                        prev_row[col_idx] += " "
                    prev_row[col_idx] += t
        else:
            cleaned.append([c.strip() for c in row])
    return cleaned, footnotes


def find_first_table_row(
    cell_items: list[list[list[TextItem]]],
    rows: list[float],
    original_items: list[tuple[int, TextItem]],
) -> tuple[int, set[int]]:
    """tables.rs:999-1115."""
    excluded: set[int] = set()
    cells = [[join_cell_items(col) for col in row] for row in cell_items]
    if not cells:
        return 0, excluded
    total_cols = len(cells[0])
    first_table_row = 0

    def has_form(row: list[str]) -> bool:
        for c in row:
            t = c.strip()
            if not t:
                continue
            if (t.endswith(":") and len(t) > 1) or (": " in t and not looks_like_number(t)):
                return True
        return False

    for row_idx, row in enumerate(cells):
        filled_cells = [c for c in row if c.strip()]
        fill_ratio = len(filled_cells) / total_cols if total_cols else 0.0
        has_form_patterns = any(
            (c.strip().endswith(":") and len(c.strip()) > 1)
            or (": " in c.strip() and not looks_like_number(c.strip()))
            for c in filled_cells
        )
        numeric_count = sum(1 for c in filled_cells if looks_like_number(c.strip()))
        has_data = numeric_count >= 2
        if has_form_patterns:
            continue
        if has_data:
            first_table_row = row_idx
            break
        if fill_ratio >= 0.4:
            first_table_row = row_idx
            break
        if fill_ratio < 0.3:
            continue
        if row_idx + 1 < len(cells):
            next_row = cells[row_idx + 1]
            next_filled = sum(1 for c in next_row if c.strip())
            next_ratio = next_filled / total_cols if total_cols else 0.0
            next_numeric = sum(1 for c in next_row if looks_like_number(c.strip()))
            if (next_ratio >= 0.4 or next_numeric >= 2) and not has_form(next_row):
                first_table_row = row_idx
                break

    if first_table_row > 0:
        y_tolerance = 15.0
        for idx, item in original_items:
            for row_y in rows[:first_table_row]:
                if abs(item.y - row_y) < y_tolerance:
                    excluded.add(idx)
                    break
    return first_table_row, excluded


def is_footnote_row(text: str) -> bool:
    """tables.rs:1118-1150."""
    t = text.strip()
    if t.startswith("(") and len(t) >= 2:
        inside = t[1:]
        close = inside.find(")")
        if close != -1:
            num = inside[:close]
            # NB: the reference accepts an empty num here ("()" is a footnote)
            if all(c.isdigit() and c.isascii() for c in num):
                return True
    if len(t) >= 2:
        paren = t.find(")")
        if paren != -1:
            num = t[:paren]
            if num and all(c.isdigit() and c.isascii() for c in num):
                return True
    lower = t.lower()
    if lower.startswith("note:") or lower.startswith("notes:"):
        return True
    return False
