"""Shared scaffolding of the ``scripts/bench_*.py`` regression gates.

Every bench records one JSON measurement and, with ``--check BASELINE``,
compares its gated fields against a committed record.  :class:`Bench` owns
that scaffolding, so each bench script keeps only its measurement:

* the ``-o/--output``, ``--check`` and ``--repeats`` options;
* loading the committed record before anything is written (with identical
  paths the check would otherwise compare a measurement against itself);
* writing the record and the verdict on each gated field.

A gated field is ``"higher"`` (fails below ``TOLERANCE`` times the committed
value), ``"lower"`` (fails above the committed value divided by
``TOLERANCE``) or ``"exact"`` (fails on any difference).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

#: How far a ratio may fall behind its committed value before ``--check``
#: fails: with the default 0.8, a regression of more than 20% (25% for a
#: ``"lower"`` field).  ``REPRO_BENCH_TOLERANCE`` widens it without a code
#: change if a runner generation proves noisier.
TOLERANCE = float(os.environ.get("REPRO_BENCH_TOLERANCE", "0.8"))

#: Where a ``--check`` run writes its measurement unless ``-o`` says otherwise.
CHECK_OUTPUT = "bench-measured.json"


class Bench:
    """Options, committed record and verdict of one bench script."""

    def __init__(self, doc: str, record: str) -> None:
        self.record = record
        self.baseline: dict | None = None
        self.output = record
        self.parser = argparse.ArgumentParser(description=doc.splitlines()[0])
        self.parser.add_argument(
            "-o", "--output", default=None,
            help=f"where to write the measurement record (default: {record} "
            f"when recording, {CHECK_OUTPUT} with --check so the committed "
            "record is never clobbered)",
        )
        self.parser.add_argument(
            "--check", metavar="BASELINE", default=None,
            help="compare against a committed record and exit non-zero when "
            "a gated field regresses",
        )
        self.parser.add_argument(
            "--repeats", type=int, default=2,
            help="measurement repeats; the best is recorded so one noisy sample "
            "(shared CI runners!) cannot fail the regression check",
        )

    def parse(self, argv: list[str] | None) -> argparse.Namespace:
        """Parse the options and load the committed record, if checking."""
        args = self.parser.parse_args(argv)
        self.output = args.output or (CHECK_OUTPUT if args.check else self.record)
        if args.check:
            self.baseline = json.loads(Path(args.check).read_text())
        return args

    def workers(self, requested: int | None) -> int:
        """Pool width: ``requested``, else the committed record's width when
        checking (so the measurements compare like for like), else every
        core, at least 2 so the parallel path is exercised."""
        if requested is None and self.baseline is not None:
            requested = int(self.baseline.get("workers", 0)) or None
        return requested if requested is not None else max(2, os.cpu_count() or 1)

    def finish(self, record: dict, gates: dict[str, str]) -> int:
        """Write ``record``; when checking, judge each gated field.

        ``gates`` maps a record field to its direction (``"higher"``,
        ``"lower"`` or ``"exact"``).  Returns the exit status.
        """
        Path(self.output).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(f"wrote {self.output}", file=sys.stderr)
        if self.baseline is None:
            return 0
        failed = False
        for field, better in gates.items():
            ok, verdict = _judge(field, better, record[field], self.baseline[field])
            print(("OK: " if ok else "FAIL: ") + verdict, file=sys.stderr)
            failed = failed or not ok
        return 1 if failed else 0


def _judge(field: str, better: str, measured, committed) -> tuple[bool, str]:
    if better == "higher":
        floor = TOLERANCE * committed
        return measured >= floor, (
            f"{field} {measured} vs floor {floor:.2f} "
            f"({TOLERANCE:.0%} of the committed {committed})"
        )
    if better == "lower":
        ceiling = committed / TOLERANCE
        return measured <= ceiling, (
            f"{field} {measured} vs ceiling {ceiling:.2f} "
            f"({1 / TOLERANCE:.0%} of the committed {committed})"
        )
    if better == "exact":
        return measured == committed, f"{field} {measured} vs the committed {committed}"
    raise ValueError(f"unknown gate direction {better!r}")
