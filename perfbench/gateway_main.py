"""The gateway process of the gateway workload.

Started by :mod:`perfbench.gateway` as ``python3 perfbench/gateway_main.py``
from the repository root.  It serves the baseline graph through a default
(sharded) ``GraphDirectory`` behind a ``Gateway`` on an ephemeral port, in
its own interpreter so it shares no interpreter lock with the load
generator, and speaks a line protocol on stdin/stdout:

* on start it prints ``{"port": N}``;
* ``install`` installs the per-layer wrappers and starts capturing the
  gateway's JSON access log, answering ``{"ok": true}``;
* ``dump`` removes the wrappers and prints the ledger and the access-log
  totals of the POST requests served since ``install``;
* ``stop`` (or end of input) stops the gateway and prints
  ``{"rss_kb": N}``, the process's peak resident set.
"""

from __future__ import annotations

import json
import logging
import resource
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class AccessCapture(logging.Handler):
    """Sums ``duration_ms`` over the gateway's POST access-log lines."""

    def __init__(self) -> None:
        super().__init__(level=logging.INFO)
        self._lock_totals = threading.Lock()
        self.posts = 0
        self.duration_ms = 0.0

    def emit(self, record: logging.LogRecord) -> None:
        entry = json.loads(record.getMessage())
        if entry.get("method") == "POST":
            with self._lock_totals:
                self.posts += 1
                self.duration_ms += float(entry["duration_ms"])


def _reply(payload) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def main() -> int:
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    from repro.server import Gateway
    from repro.server.app import ACCESS_LOGGER
    from repro.serving import GraphDirectory

    from perfbench import inputs
    from perfbench.ledger import Ledger, install_gateway, install_kernel

    directory = GraphDirectory(config=inputs.search_config())
    directory.add(inputs.DATASET, inputs.load_bundle())
    ledger = Ledger()
    capture = None
    ACCESS_LOGGER.propagate = False
    with Gateway(directory, port=0) as gateway:
        _reply({"port": gateway.port})
        for line in sys.stdin:
            command = line.strip()
            if command == "install":
                install_kernel(ledger)
                install_gateway(ledger)
                ledger.reset()
                capture = AccessCapture()
                ACCESS_LOGGER.addHandler(capture)
                ACCESS_LOGGER.setLevel(logging.INFO)
                _reply({"ok": True})
            elif command == "dump":
                ledger.uninstall()
                ACCESS_LOGGER.setLevel(logging.WARNING)
                if capture is not None:
                    ACCESS_LOGGER.removeHandler(capture)
                _reply(
                    {
                        **ledger.snapshot(),
                        "access_posts": capture.posts if capture else 0,
                        "access_ms": capture.duration_ms if capture else 0.0,
                    }
                )
            elif command == "stop":
                break
    _reply({"rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss})
    return 0


if __name__ == "__main__":
    sys.exit(main())
