"""The custom-policy example of docs/SCHEDULING.md runs as written.

The ``PackLeft`` code block is extracted from the document and executed
against a small cluster, so the documented policy contract cannot drift
from the one :class:`~repro.sched.PlacementPolicy` enforces.
"""

from pathlib import Path

from repro import api
from repro.sched import event_log_lines
from tests.sched.reference_engine import run_reference

DOC = Path(__file__).resolve().parents[2] / "docs" / "SCHEDULING.md"


def _pack_left_block() -> str:
    blocks = DOC.read_text(encoding="utf-8").split("```python\n")[1:]
    (block,) = [b.split("```", 1)[0] for b in blocks if "class PackLeft" in b]
    return block


def test_pack_left_example_runs_and_packs_left():
    cluster = api.load_preset("longhorn", seed=3, scale=0.25)
    trace = api.TraceConfig(n_jobs=12, arrival_rate_per_hour=600.0, seed=2)
    namespace = {"api": api, "cluster": cluster, "trace": trace}
    exec(compile(_pack_left_block(), str(DOC), "exec"), namespace)

    result = namespace["result"]
    assert result.report.metrics["n_jobs"] == 12
    assert result.records[0].node_indices[0] == 0
    oracle = run_reference(
        cluster, api.generate_trace(trace), namespace["PackLeft"]()
    )
    assert event_log_lines(result.events) == event_log_lines(oracle.events)
