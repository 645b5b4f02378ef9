#!/usr/bin/env python3
"""Summarise one JSONL run trace, or diff two.

Usage::

    # One trace: run header, per-round aggregates, totals, runner stages,
    # and — when the sweep hit faults — the runner's fault-handling log
    # (retries, timeouts, worker deaths, quarantines).
    PYTHONPATH=src python tools/trace_report.py trace.jsonl

    # Two traces: positional phase-by-phase diff — where do the runs diverge?
    PYTHONPATH=src python tools/trace_report.py left.jsonl right.jsonl \
        [--fields num_slots,newly_informed,...] [--max-rows 40]

Traces are produced by running any orchestrator with a
:class:`repro.observability.TraceCollector` recorder and exporting with
:func:`repro.observability.write_jsonl`::

    from repro.observability import TraceCollector, write_jsonl
    recorder = TraceCollector()
    MultiHopBroadcast(config, recorder=recorder).run()
    write_jsonl(recorder.events, "trace.jsonl")

The diff aligns ``"phase"`` events by execution order (two runs of the same
configuration execute the same schedule until something diverges), so it
pinpoints the first round/phase where e.g. ``pipeline=True`` and
``pipeline=False`` stop agreeing, and which measured field moved.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.observability import read_jsonl
from repro.observability.report import DEFAULT_DIFF_FIELDS, diff_traces, summarise_trace


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", help="JSONL trace to summarise (or the diff's left side)")
    parser.add_argument("other", nargs="?", default=None, help="optional right side: diff mode")
    parser.add_argument(
        "--fields",
        default=None,
        help="comma-separated phase-event fields to compare in diff mode "
        f"(default: {','.join(DEFAULT_DIFF_FIELDS)})",
    )
    parser.add_argument(
        "--max-rows",
        type=int,
        default=40,
        help="maximum divergence rows to print in diff mode (default: 40)",
    )
    args = parser.parse_args()

    left = read_jsonl(args.trace)
    if args.other is None:
        print(summarise_trace(left))
        return
    right = read_jsonl(args.other)
    fields = (
        tuple(name.strip() for name in args.fields.split(",") if name.strip())
        if args.fields
        else None
    )
    print(diff_traces(left, right, fields=fields, max_rows=args.max_rows))


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Downstream pager/head closed the pipe: exit quietly, devnull'ing
        # stdout so the interpreter's shutdown flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
