"""CLI surface mirroring the reference's binaries plus the Ray job entry.

* ``pdf2md <file> [output] [--json|--raw]`` — /root/reference/src/bin/pdf2md.rs
  (exit 2 when OCR is needed, exit 1 on parse error)
* ``detect <file> [--json]`` — /root/reference/src/bin/detect_pdf.rs
* ``run --input DIR --output DIR [--num-buckets N] [--no-resume]`` — the
  distributed flagship job (usable under ``ray job submit -- python -m
  pdf_inspector_ray.cli run ...``); owns its Ray session (guarded init).

Usage: ``python -m pdf_inspector_ray.cli <command> ...``
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .pdfi.detect import detect_pdf_type_mem
from .pdfi.objects import PdfError
from .pdfi.process import process_pdf_mem

_TYPE_JSON = {"TextBased": "text_based", "Scanned": "scanned",
              "ImageBased": "image_based", "Mixed": "mixed"}


def cmd_pdf2md(args: argparse.Namespace) -> int:
    try:
        with open(args.pdf_file, "rb") as f:
            buffer = f.read()
        result = process_pdf_mem(buffer)
    except (OSError, PdfError) as e:
        if args.json:
            print(json.dumps({"error": str(e)}))
        else:
            print(f"Error: {e}", file=sys.stderr)
        return 1

    if args.json:
        print(json.dumps({
            "pdf_type": _TYPE_JSON[result.pdf_type],
            "page_count": result.page_count,
            "has_text": result.text is not None,
            "processing_time_ms": result.processing_time_ms,
            "markdown_length": len(result.markdown or ""),
            "markdown": result.markdown or "",
        }))
        return 0
    if result.pdf_type in ("Scanned", "ImageBased"):
        print(f"Error: PDF requires OCR (type: {result.pdf_type})",
              file=sys.stderr)
        return 2
    markdown = result.markdown or ""
    if args.output:
        with open(args.output, "w") as f:
            f.write(markdown)
        print(f"Markdown written to: {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(markdown)
    return 0


def cmd_detect(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    try:
        with open(args.pdf_file, "rb") as f:
            buffer = f.read()
        result = detect_pdf_type_mem(buffer)
    except (OSError, PdfError) as e:
        if args.json:
            print(json.dumps({"error": str(e)}))
        else:
            print(f"Error: {e}", file=sys.stderr)
        return 1
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    if args.json:
        print(json.dumps({
            "pdf_type": _TYPE_JSON[result.pdf_type],
            "page_count": result.page_count,
            "pages_sampled": result.pages_sampled,
            "pages_with_text": result.pages_with_text,
            "confidence": round(result.confidence, 2),
            "title": result.title,
            "ocr_recommended": result.ocr_recommended,
            "detection_time_ms": elapsed_ms,
        }))
    else:
        print(f"Type: {result.pdf_type}")
        print(f"Confidence: {result.confidence * 100:.0f}%")
        print(f"Page count: {result.page_count}")
        print(f"Pages sampled: {result.pages_sampled}")
        print(f"Pages with text: {result.pages_with_text}")
        print(f"OCR recommended: {'YES' if result.ocr_recommended else 'NO'}")
        if result.title:
            print(f"Title: {result.title}")
        print(f"Detection time: {elapsed_ms}ms")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    import ray

    owns_session = not ray.is_initialized()
    if owns_session:
        ray.init(include_dashboard=False)
    try:
        from .pipelines.flagship import (
            read_transcripts, run_to_partitioned_output, sized_concurrency)

        # cap extract tasks below the cluster's CPUs (slack for the read
        # and finalize tasks); prune the read to the pipeline's input columns
        pool = args.max_actors or sized_concurrency()
        import pyarrow.dataset as pads
        have = pads.dataset(args.input, format="parquet").schema.names
        cols = [c for c in ("conv_id", "turn_idx", "role", "text", "tool",
                            "ts", "pdf_sha256") if c in have]
        ds = read_transcripts(args.input, columns=cols)
        metrics = run_to_partitioned_output(
            ds, args.output,
            num_buckets=args.num_buckets,
            resume=not args.no_resume,
            concurrency=pool)
        print(json.dumps(metrics))
        return 0
    finally:
        if owns_session:
            ray.shutdown()


def cmd_run_files(args: argparse.Namespace) -> int:
    """Distributed job over a DIRECTORY OF PDF FILES (the reference CLI's
    native input shape, S1, at corpus scale): ``ray.data.read_binary_files``
    → adapt each file to a one-turn transcript row (conv_id = relative
    path) → the same resumable extract → partitioned parquet job as
    ``run``. Zero-copy binary blocks; one row per file."""
    import hashlib

    import ray

    owns_session = not ray.is_initialized()
    if owns_session:
        ray.init(include_dashboard=False)
    try:
        import pyarrow as pa
        import ray.data

        from .pipelines.flagship import (run_to_partitioned_output,
                                         sized_concurrency)

        prefix = args.input.rstrip("/") + "/"

        def adapt(batch: pa.Table) -> pa.Table:
            paths = batch["path"].to_pylist()
            blobs = batch["bytes"].to_pylist()
            rel = [p[len(prefix):] if p.startswith(prefix) else p
                   for p in paths]
            return pa.table({
                "conv_id": pa.array(rel, pa.string()),
                "turn_idx": pa.array([0] * len(rel), pa.int32()),
                "text": pa.array([b.decode("latin-1") for b in blobs],
                                 pa.string()),
                "pdf_sha256": pa.array(
                    [hashlib.sha256(b).hexdigest() for b in blobs],
                    pa.string()),
            })

        ds = ray.data.read_binary_files(
            args.input, include_paths=True).map_batches(
                adapt, batch_format="pyarrow")
        pool = args.max_actors or sized_concurrency()
        metrics = run_to_partitioned_output(
            ds, args.output, num_buckets=args.num_buckets,
            resume=not args.no_resume, concurrency=pool)
        print(json.dumps(metrics))
        return 0
    finally:
        if owns_session:
            ray.shutdown()


def cmd_debug(args: argparse.Namespace) -> int:
    """Developer debug dumps mirroring the reference's four debug bins
    (src/bin/debug_pages.rs, debug_ygaps.rs, debug_ligatures.rs,
    debug_order.rs), generalized: the order tool takes the x-window and
    substring filter as flags instead of hardcoded sample values."""
    from .pdfi.extract import extract_text_with_positions_mem, group_into_lines

    try:
        with open(args.pdf_file, "rb") as f:
            buffer = f.read()
    except OSError as e:
        print(f"Error: {e}", file=sys.stderr)
        return 1

    if args.mode == "ligatures":
        from .pdfi.objects import Document
        from .pdfi.tounicode import FontCMaps
        cmaps = FontCMaps.from_pdf_bytes(buffer)
        print("=== Font CMaps ===")
        if not cmaps.by_name and not cmaps.by_obj_num:
            print("  (none found)")
        for name, cm in sorted(cmaps.by_name.items()):
            print(f"  font={name:30} code_byte_length={cm.code_byte_length} "
                  f"char_map_entries={len(cm.char_map)} ranges={len(cm.ranges)}")
        print("\n=== Font Encoding Differences ===")
        doc = Document.load_mem(buffer)
        for page_num, page_ref in doc.get_pages().items():
            print(f"--- Page {page_num} ---")
            fonts = doc.get_fonts(doc.get_page_resources(page_ref))
            for fname, fdict in fonts.items():
                enc = doc.resolve(fdict.get("Encoding")) if isinstance(
                    fdict, dict) else None
                if enc is None:
                    continue
                if not isinstance(enc, dict):
                    print(f"  font={fname}: Encoding={enc}")
                    continue
                if enc.get("BaseEncoding"):
                    print(f"  font={fname}: BaseEncoding={enc['BaseEncoding']}")
                diffs = doc.get_array(enc.get("Differences"))
                if diffs:
                    print(f"  font={fname}: Differences={diffs}")
        return 0

    try:
        items = extract_text_with_positions_mem(buffer)
    except PdfError as e:
        print(f"Error extracting text: {e}", file=sys.stderr)
        return 1
    if not items:
        print("No text items found in PDF.", file=sys.stderr)
        return 0

    if args.mode == "pages":
        rng = args.pages or "1-3"
        lo, _, hi = rng.partition("-")
        lo_p, hi_p = int(lo or 1), int(hi or lo or 3)
        for page in range(lo_p, hi_p + 1):
            page_items = [i for i in items if i.page == page]
            print(f"=== PAGE {page} ({len(page_items)} items) ===")
            for it in page_items:
                print(f"  x={it.x:7.1f} y={it.y:7.1f} w={it.width:7.1f} "
                      f"fs={it.font_size:5.1f} text={it.text!r}")
            print()
        return 0

    if args.mode == "order":
        page = int(args.pages or 1)
        if args.contains:
            print(f"Items containing {args.contains!r}:")
            for it in items:
                if it.page == page and args.contains in it.text:
                    print(f"  x={it.x:6.1f} y={it.y:6.1f} \"{it.text}\"")
        lo, hi = args.x_window
        col = [i for i in items if i.page == page and lo < i.x < hi]
        if col:
            ys = [i.y for i in col]
            print(f"\nColumn (x={lo:g}-{hi:g}) Y range: "
                  f"{min(ys):.1f} to {max(ys):.1f}")
        return 0

    # ygaps: per-line Y gaps + paragraph-break markers
    from collections import Counter
    size_counts = Counter(round(i.font_size * 10) for i in items
                          if i.font_size >= 9.0)
    base_size = (size_counts.most_common(1)[0][0] / 10.0
                 if size_counts else 10.0)
    print(f"Base font size: {base_size:.1f}pt", file=sys.stderr)
    print(f"Paragraph break threshold: y_gap > {base_size * 1.8:.1f} "
          f"(base * 1.8)", file=sys.stderr)
    lines = group_into_lines(items)
    filter_page = int(args.pages) if args.pages else None
    for page in sorted({ln.page for ln in lines}):
        if filter_page is not None and page != filter_page:
            continue
        page_lines = [ln for ln in lines if ln.page == page]
        print(f"===== PAGE {page} ({len(page_lines)} lines) =====")
        print(f"{'Y':>8} {'Gap':>8} {'GapRatio':>8} {'Font':>6} {'Bold':>5}"
              f"  Text (first 80 chars)")
        print("-" * 120)
        prev_y = None
        for ln in page_lines:
            fs = ln.items[0].font_size if ln.items else 0.0
            bold = ln.items[0].is_bold if ln.items else False
            text = ln.text()[:80]
            if prev_y is not None:
                gap = prev_y - ln.y
                marker = " <<PARA>>" if gap > base_size * 1.8 else ""
                gap_s, ratio_s = f"{gap:8.1f}", f"{gap / base_size:8.2f}"
            else:
                gap_s, ratio_s, marker = "     ---", "     ---", ""
            print(f"{ln.y:8.1f} {gap_s} {ratio_s} {fs:6.1f} "
                  f"{'B' if bold else '':>5}  {text}{marker}")
            prev_y = ln.y
        print()
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="pdf_inspector_ray")
    sub = parser.add_subparsers(dest="command", required=True)

    p1 = sub.add_parser("pdf2md", help="convert one PDF to markdown")
    p1.add_argument("pdf_file")
    p1.add_argument("output", nargs="?")
    p1.add_argument("--json", action="store_true")
    p1.add_argument("--raw", action="store_true")
    p1.set_defaults(func=cmd_pdf2md)

    p2 = sub.add_parser("detect", help="classify one PDF")
    p2.add_argument("pdf_file")
    p2.add_argument("--json", action="store_true")
    p2.set_defaults(func=cmd_detect)

    p3 = sub.add_parser("run", help="run the flagship Ray job")
    p3.add_argument("--input", required=True)
    p3.add_argument("--output", required=True)
    p3.add_argument("--num-buckets", type=int, default=64)
    p3.add_argument("--max-actors", type=int, default=0,
                    help="cap on concurrent extract tasks; 0 = auto "
                         "(CPUs - max(2, CPUs/16))")
    p3.add_argument("--no-resume", action="store_true",
                    help="remove the existing output partitions first")
    p3.set_defaults(func=cmd_run)

    p5 = sub.add_parser("run-files",
                        help="run the flagship job over a directory of "
                             "PDF files")
    p5.add_argument("--input", required=True)
    p5.add_argument("--output", required=True)
    p5.add_argument("--num-buckets", type=int, default=64)
    p5.add_argument("--max-actors", type=int, default=0,
                    help="cap on concurrent extract tasks; 0 = auto "
                         "(CPUs - max(2, CPUs/16))")
    p5.add_argument("--no-resume", action="store_true",
                    help="remove the existing output partitions first")
    p5.set_defaults(func=cmd_run_files)

    p4 = sub.add_parser("debug", help="developer debug dumps "
                        "(pages/ygaps/ligatures/order)")
    p4.add_argument("mode", choices=["pages", "ygaps", "ligatures", "order"])
    p4.add_argument("pdf_file")
    p4.add_argument("pages", nargs="?",
                    help="page / page range (pages: '1-3'; ygaps/order: one)")
    p4.add_argument("--contains", default="",
                    help="order: dump items whose text contains this")
    p4.add_argument("--x-window", nargs=2, type=float, default=(300.0, 400.0),
                    metavar=("LO", "HI"),
                    help="order: x window for the column Y-range summary")
    p4.set_defaults(func=cmd_debug)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
