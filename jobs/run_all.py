"""Reproduce the tables T1–T8 in one Spark session.

Usage:
    spark-submit jobs/run_all.py [T1 … T8] [output.md]
    (or: python jobs/run_all.py …)

Builds the named tables (all eight when none is named) and prints each
as markdown; with an output path, also writes the combined report there
(this is how the numbers in EXPERIMENTS.md were generated). One session
is reused so the chain DataFrames and collected series are generated
once and shared across tables.
"""

import pathlib
import sys

from repro.core.tables import ALL_TABLES, to_markdown
from repro.session import get_session

USAGE = f"usage: run_all.py [{' '.join(ALL_TABLES)}] [output.md]"


def parse_args(argv: list[str]) -> tuple[list[str], str | None]:
    """Split the arguments into table keys (in order) and an output path."""
    keys = [a for a in argv if a in ALL_TABLES]
    paths = [a for a in argv if a not in ALL_TABLES]
    if len(paths) > 1 or any(not p.endswith(".md") for p in paths):
        sys.exit(f"unexpected arguments {paths}\n{USAGE}")
    return keys or list(ALL_TABLES), paths[0] if paths else None


def main(keys: list[str], out_path: str | None = None) -> None:
    spark = get_session("repro-all-tables")
    spark.sparkContext.setLogLevel("ERROR")
    chunks = []
    try:
        for name in keys:
            builder = ALL_TABLES[name]
            pdf = builder(spark)
            chunk = f"\n## Table {builder.__doc__.splitlines()[0].rstrip('.')}\n\n{to_markdown(pdf)}\n"
            print(chunk)
            chunks.append(chunk)
    finally:
        spark.stop()
    if out_path:
        pathlib.Path(out_path).write_text("".join(chunks))
        print(f"wrote {out_path}")


if __name__ == "__main__":
    main(*parse_args(sys.argv[1:]))
