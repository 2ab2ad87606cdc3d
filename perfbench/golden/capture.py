"""Capture the golden data the benchmark checks its outputs against.

    python3 perfbench/golden/capture.py

Writes, next to this file:

* ``verify_all.json``: the canonical ``verify_all(SuiteConfig()).as_json()``;
* ``fingerprints.json``: the exact fingerprint of every catalog algebra
  without parameters, in dimensions 4 and 5, as
  ``[dim, [dim A^2..A^5], ann, der, z2, h2]``.

The committed files were captured from the library as it stood when the
benchmark was defined; recapture only when a verdict is meant to change.
"""
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))

from zinbiel5 import algebra, catalog  # noqa: E402


def main() -> None:
    report = catalog.verify_all(catalog.SuiteConfig())
    (HERE / "verify_all.json").write_text(report.as_json())
    prints = {
        e.id: algebra.fingerprint(catalog.instantiate(e.id)).as_tuple()
        for e in catalog.all_entries()
        if not e.is_parametric and e.dim in (4, 5)
    }
    lines = [f" {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(prints.items())]
    (HERE / "fingerprints.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main()
