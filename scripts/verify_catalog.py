#!/usr/bin/env python3
"""Run the full catalog verification suite and print the report.

Examples:
    python scripts/verify_catalog.py
    python scripts/verify_catalog.py --checks identity,h2 --format json
"""

import argparse
import sys

from zinbiel5.catalog import SuiteConfig, verify_all


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--checks", default="", help="comma-separated subset")
    parser.add_argument("--mode", choices=("auto", "exact", "numeric"), default="auto")
    parser.add_argument("--truncation", type=int, default=16)
    parser.add_argument("--format", choices=("text", "json"), default="text")
    ns = parser.parse_args(argv)
    config = SuiteConfig(
        checks=tuple(c for c in ns.checks.split(",") if c),
        mode=ns.mode,
        trunc=ns.truncation,
    )
    try:
        report = verify_all(config)
    except ValueError as exc:  # e.g. a truncation out of range
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.as_json() if ns.format == "json" else report.as_text())
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
