"""``python -m repro.obs`` — pretty-print slow-query traces as span trees.

Input is the ``GET /debug/slow`` document (or any JSON holding either a
single trace, a list of traces, or a ``{"traces": [...]}`` wrapper)::

    # from a file (or "-" for stdin)
    python -m repro.obs slow.json
    curl -s http://127.0.0.1:8080/debug/slow | python -m repro.obs -

    # straight from a running gateway
    python -m repro.obs --url http://127.0.0.1:8080/debug/slow

Each trace renders as an indented tree: one line per span with its
duration, ``(unfinished)`` markers for spans still open when the trace
ended, and span metadata (a span an exception unwound carries ``error``:
a deadline-exceeded trace names the span whose checkpoint expired).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List

from repro.obs.tracing import format_trace


def _traces_of(document: object) -> List[Dict[str, object]]:
    """Trace documents from any of the accepted input shapes."""
    if isinstance(document, dict):
        if isinstance(document.get("traces"), list):
            return [t for t in document["traces"] if isinstance(t, dict)]
        return [document]
    if isinstance(document, list):
        return [t for t in document if isinstance(t, dict)]
    raise SystemExit("input is not a trace document (dict or list expected)")


def _read_source(path: str, url: str) -> object:
    if url:
        from urllib.request import urlopen

        with urlopen(url, timeout=30.0) as response:
            return json.loads(response.read().decode("utf-8"))
    if path == "-":
        return json.load(sys.stdin)
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Pretty-print slow-query trace documents as span trees.",
    )
    parser.add_argument(
        "path",
        nargs="?",
        default="-",
        help="JSON file holding a /debug/slow document ('-' = stdin)",
    )
    parser.add_argument(
        "--url",
        default="",
        help="fetch the document from a gateway URL instead of a file",
    )
    parser.add_argument(
        "--limit",
        type=int,
        default=None,
        help="print at most N traces (newest first in /debug/slow order)",
    )
    args = parser.parse_args(argv)

    document = _read_source(args.path, args.url)
    traces = _traces_of(document)
    if isinstance(document, dict) and "threshold_ms" in document:
        print(
            f"slow-query log: {len(traces)} retained "
            f"(threshold {document['threshold_ms']}ms, "
            f"capacity {document.get('capacity', '?')})"
        )
    if args.limit is not None:
        traces = traces[: max(0, args.limit)]
    for index, trace in enumerate(traces):
        if index:
            print()
        print(format_trace(trace))
    if not traces:
        print("no traces retained")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
