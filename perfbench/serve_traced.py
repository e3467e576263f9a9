"""``repro serve`` with the layer probes installed, for traced runs.

Usage (``run.py`` drives it)::

    PYTHONPATH=src python3 perfbench/serve_traced.py SPAWNED LEDGER serve ...

Runs the CLI's own ``serve`` command in this process after wrapping the
service's stage entry points (see :func:`probes.install_service_probes`).
When the server stops (SIGINT, as for any ``repro serve``), it writes the
ledger, its import time and the probes' own cost as JSON to ``LEDGER``.
"""

import json
import sys
import time

import repro.cli
import repro.service  # noqa: F401  (its import is part of set-up)

IMPORTED = time.perf_counter()

import probes  # noqa: E402


def main(argv):
    spawned, ledger_path, cli_args = float(argv[0]), argv[1], argv[2:]
    ledger = probes.Ledger()
    probes.install_service_probes(ledger)
    try:
        return repro.cli.main(cli_args)
    finally:
        snapshot = ledger.snapshot()
        snapshot["probe_overhead_s"] = probes.probe_overhead_s(
            snapshot["calls"])
        with open(ledger_path, "w", encoding="utf-8") as sink:
            json.dump({"import_s": IMPORTED - spawned, **snapshot},
                      sink, sort_keys=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
