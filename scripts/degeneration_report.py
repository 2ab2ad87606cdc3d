#!/usr/bin/env python3
"""Verify every shipped degeneration certificate and tabulate the results.

Prints one line per certificate (verdict, tier, determinant valuation,
sampled parameters) followed by summary counts, so changes in the exact /
numeric split are easy to spot.  --timings also prints each certificate's
verification wall time, and the total, to stderr; stdout and the --json
file are the same with and without it.

Examples:
    python scripts/degeneration_report.py
    python scripts/degeneration_report.py --mode numeric --truncation 24
    python scripts/degeneration_report.py --only "Z_14 -> Z_10" --json out.json
    python scripts/degeneration_report.py --mode numeric --timings
"""

import argparse
import json
import sys
import time
from collections import Counter

from zinbiel5.catalog import certificates
from zinbiel5.degeneration import verify_certificate


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("auto", "exact", "numeric"), default="auto")
    parser.add_argument("--truncation", type=int, default=16)
    parser.add_argument(
        "--precision", type=int, default=None,
        help="numeric bits (default 256; 53 leaves 32 of the 49 certificates inconclusive)",
    )
    parser.add_argument("--only", default="", help="substring filter on labels")
    parser.add_argument("--json", default="", help="also write results to this file")
    parser.add_argument(
        "--timings", action="store_true", help="print verification wall times to stderr"
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    rows = []
    verdicts = Counter()
    tiers = Counter()
    elapsed = 0.0
    for cert in certificates():
        if args.only and args.only not in cert.label:
            continue
        start = time.perf_counter()
        try:
            report = verify_certificate(
                cert, mode=args.mode, trunc=args.truncation, precision=args.precision
            )
        except ValueError as exc:  # e.g. a truncation or precision out of range
            print(f"error: {exc}", file=sys.stderr)
            return 2
        seconds = time.perf_counter() - start
        elapsed += seconds
        if args.timings:
            print(f"{cert.label:28s} {seconds:8.3f} s", file=sys.stderr)
        verdicts[report.verdict] += 1
        tiers[report.mode] += 1
        dets = sorted(
            {str(s.det_valuation) for s in report.samples if s.det_valuation is not None}
        )
        params = [
            "{" + ", ".join(f"{k}={v}" for k, v in s.params) + "}"
            for s in report.samples
            if s.params
        ]
        line = f"{cert.label:28s} {report.verdict:12s} {report.mode:8s}"
        line += f" det-val {','.join(dets) or '-':8s}"
        if params:
            line += " at " + " ".join(params)
        print(line)
        rows.append(
            {
                "label": cert.label,
                "verdict": report.verdict,
                "mode": report.mode,
                "det_valuations": dets,
                "samples": len(report.samples),
            }
        )
    total = sum(verdicts.values())
    if args.timings:
        print(f"{'total':28s} {elapsed:8.3f} s", file=sys.stderr)
    print(f"\n{total} certificates:",
          " ".join(f"{k}={v}" for k, v in sorted(verdicts.items())),
          "| tiers:", " ".join(f"{k}={v}" for k, v in sorted(tiers.items())))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json}")
    return 0 if total and verdicts.get("verified", 0) == total else 1


if __name__ == "__main__":
    sys.exit(main())
