"""CLI cold start: import ``zinbiel5.cli`` and load every bundled table.

    python3 perfbench/setup_probe.py

Prints one JSON line with the seconds spent importing and loading, as
measured inside the interpreter; the caller times the whole process.
"""
import sys
import time


def load_tables():
    """Load every bundled table through the catalog's accessors."""
    from zinbiel5 import catalog

    catalog.all_entries()
    catalog.extension_records()
    catalog.h2_tables()
    catalog.certificates()
    catalog.rset_rows()
    catalog.expected()


if __name__ == "__main__":
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    t0 = time.perf_counter()
    import zinbiel5.cli  # noqa: F401

    t1 = time.perf_counter()
    load_tables()
    t2 = time.perf_counter()
    print('{"import_s": %r, "load_s": %r}' % (t1 - t0, t2 - t1))
