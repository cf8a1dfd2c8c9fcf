"""JSON serialization of matrix cells.

The store's one invariant is *bit-exact round-tripping*: a
:class:`~repro.eval.runner.CellResult` read back from disk must compare
equal — floats included — to the freshly computed one, so warm-store
re-runs produce byte-identical reports. Python's ``json`` guarantees
exactly that for finite floats (``repr`` round-trips IEEE doubles), so
the payload is plain JSON with sorted keys and no float formatting.
"""

from __future__ import annotations

import json

from repro.eval.runner import CellResult
from repro.rtm.report import SimReport


def cell_to_payload(cell: CellResult) -> str:
    """Serialize one cell to its canonical JSON payload.

    Both dataclasses hold only JSON scalars and tuples, which ``json``
    writes as lists, so their field dicts serialize as they are.
    """
    return json.dumps(
        {**vars(cell), "report": vars(cell.report)},
        sort_keys=True, separators=(",", ":"),
    )


def cell_from_payload(payload: str) -> CellResult:
    """Rebuild a cell from its JSON payload (inverse of ``cell_to_payload``)."""
    data = json.loads(payload)
    report = data.pop("report")
    report["per_dbc_shifts"] = tuple(report["per_dbc_shifts"])
    # ``.get``: payloads written before the fault axis carry no
    # histogram — SimReport's defaults cover the other fault fields.
    report["drift_histogram"] = tuple(
        (int(drift), int(count))
        for drift, count in report.get("drift_histogram", ())
    )
    return CellResult(report=SimReport(**report), **data)
