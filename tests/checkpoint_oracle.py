"""The ``fedsel-metastore-v1`` JSON renderer, for the tests.

The store writes and reads only ``fedsel-metastore-v2`` archives. The tests
render checkpoints as v1 text to fold them into golden digests recorded when
the store wrote v1.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

import numpy as np

from fedsel.metastore import _COLUMNS, Checkpoint

_RECORD_FORMAT = ('{"client_id":%s,"speed_hint":%s,"stat_utility":%s,'
                  '"last_round":%s,"duration":%s,"times_selected":%s,'
                  '"blacklisted":%s,"explored":%s}')


def _json_tokens(col: np.ndarray) -> list[str]:
    """The JSON text of each element, as ``json.dumps`` writes it."""
    if col.size == 0:
        return []
    return json.dumps(col.tolist(), separators=(",", ":"))[1:-1].split(",")


def render_v1(checkpoint: Checkpoint) -> str:
    """The v1 file text of ``checkpoint``, records in table order."""
    head = json.dumps({
        "version": "fedsel-metastore-v1",
        "round_index": checkpoint.round_index,
        "preferred_duration": checkpoint.preferred_duration,
        "utility_history": list(checkpoint.utility_history),
    }, separators=(",", ":"))
    t = checkpoint.table
    hints, *rest = (_json_tokens(getattr(t, name)) for name, _ in _COLUMNS)
    hints = ["null" if h == "NaN" else h for h in hints]
    rows = map(_RECORD_FORMAT.__mod__,
               zip(map(encode_basestring_ascii, t.ids), hints, *rest))
    return f'{head[:-1]},"records":[{",".join(rows)}]}}'
