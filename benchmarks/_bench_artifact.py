"""Shared machine-readable benchmark artifact writer (``BENCH_*.new.json``).

The serving, fleet and massive-scale throughput modules each archive their
recorded rows through one :class:`BenchArtifact` so the artifact format —
path override via an environment variable, the ``{"benchmarks": {...}}``
payload, sorted keys, trailing newline — lives in exactly one place and the
JSON files cannot drift apart.

A run writes ``BENCH_<name>.new.json`` (gitignored) unless
``$BENCH_<NAME>_JSON`` names another path.  The committed
``BENCH_<name>.json`` files are the baselines ``bench_delta.py`` compares a
run against, so running the suite never rewrites them.
"""

import json
import os
from pathlib import Path


class BenchArtifact:
    """Accumulates benchmark rows, written as one JSON file at teardown."""

    def __init__(self, name: str):
        self.env_var = f"BENCH_{name.upper()}_JSON"
        self.default_path = f"BENCH_{name}.new.json"
        self.results = {}

    def record(self, name: str, row: dict) -> None:
        self.results[name] = row

    def write(self) -> None:
        if not self.results:
            return
        path = Path(os.environ.get(self.env_var, self.default_path))
        path.write_text(
            json.dumps({"benchmarks": self.results}, indent=1, sort_keys=True) + "\n"
        )
