"""``repro serve`` with the benchmark's span wrappers installed.

Usage: ``serve_launcher.py SPANS_JSON serve [serve options...]``.  The
wrappers go in before the server starts; on shutdown (SIGINT) the spans,
per-job counters and memo-cache counters are written to ``SPANS_JSON``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from tracing import Recorder, install_service, lru_snapshot

#: Span ids of the server start here, apart from the client's.
SERVER_ID_BASE = 10**9


def main() -> int:
    spans_path = Path(sys.argv[1])
    recorder = Recorder(id_prefix=SERVER_ID_BASE)
    install_service(recorder)
    from repro.cli import main as repro_main

    try:
        return repro_main(sys.argv[2:])
    finally:
        dump = recorder.dump()
        dump["lru"] = lru_snapshot()
        spans_path.write_text(json.dumps(dump))


if __name__ == "__main__":
    sys.exit(main())
