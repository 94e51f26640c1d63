"""Helpers shared by the collective implementations.

These are pure functions: payload size estimation (for the byte accounting
the cost model consumes) and destination bucketing of numpy arrays (the
"packing" step of an Alltoallv exchange, reported separately in the paper's
Figure 4 efficiency breakdown).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.seq.packing import PackedReadBlock

#: Approximate per-object overhead charged for generic Python payloads, in
#: bytes.  Collectives moving structured Python objects (read-pair tuples,
#: read strings) are charged their contents plus this envelope, which keeps
#: the accounting monotone in payload size without trying to model pickle.
_OBJECT_OVERHEAD = 16


def payload_nbytes(payload: Any) -> int:
    """Estimate the wire size of a collective payload in bytes.

    numpy arrays are charged their exact buffer size; strings and bytes their
    length; numbers a machine word; containers the sum of their elements plus
    a small per-object envelope.  ``None`` (an empty contribution) is free.
    """
    if payload is None:
        return 0
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    if isinstance(payload, PackedReadBlock):
        # The 2-bit packed read-block wire format: headers + packed payload
        # (matches the serialized tag-R frame, so the trace reflects the
        # volume the packing actually saves).
        return payload.wire_nbytes
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return len(payload)
    if isinstance(payload, str):
        return len(payload)
    if isinstance(payload, (bool, int, float, np.integer, np.floating)):
        return 8
    if isinstance(payload, dict):
        return _OBJECT_OVERHEAD + sum(
            payload_nbytes(k) + payload_nbytes(v) for k, v in payload.items()
        )
    if isinstance(payload, (list, tuple, set, frozenset)):
        return _OBJECT_OVERHEAD + sum(payload_nbytes(item) for item in payload)
    # Dataclass-like objects: charge their __dict__ if present, else a word.
    attrs = getattr(payload, "__dict__", None)
    if attrs:
        return _OBJECT_OVERHEAD + sum(payload_nbytes(v) for v in attrs.values())
    return _OBJECT_OVERHEAD


#: Recursion bound for :func:`payload_signature` — deep enough for every
#: payload the pipeline exchanges (lists of arrays, tuples of blocks), small
#: enough that a pathological nesting cannot make the digest expensive.
_SIGNATURE_DEPTH = 4


def payload_signature(payload: Any, _depth: int = 0) -> str:
    """Type/dtype/shape-rank digest of a collective payload.

    The runtime sanitizer compares this digest across ranks before each
    congruence-checked collective: two ranks contributing payloads of
    different dtype or array rank to the same op get a descriptive mismatch
    error instead of silently mixed (or mis-decoded) science data.

    The digest deliberately ignores payload *sizes* — per-destination counts
    legitimately differ between ranks — and collapses containers to the
    sorted set of their element digests, so a rank whose send list holds
    empty arrays still matches its peers as long as the dtypes agree (the
    stages construct typed empties for exactly this reason).
    """
    if payload is None:
        return "none"
    if isinstance(payload, np.ndarray):
        return f"ndarray[{payload.dtype.str},r{payload.ndim}]"
    if isinstance(payload, (bool, np.bool_)):
        return "bool"
    if isinstance(payload, (int, np.integer)):
        return "int"
    if isinstance(payload, (float, np.floating)):
        return "float"
    if isinstance(payload, str):
        return "str"
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return "bytes"
    if isinstance(payload, PackedReadBlock):
        return "PackedReadBlock"
    if isinstance(payload, (list, tuple)):
        kind = "list" if isinstance(payload, list) else "tuple"
        if _depth >= _SIGNATURE_DEPTH:
            return f"{kind}[...]"
        inner = sorted({payload_signature(item, _depth + 1) for item in payload})
        return f"{kind}[{','.join(inner)}]"
    if isinstance(payload, dict):
        if _depth >= _SIGNATURE_DEPTH:
            return "dict[...]"
        inner = sorted({payload_signature(v, _depth + 1) for v in payload.values()})
        return f"dict[{','.join(inner)}]"
    return type(payload).__name__


def bucket_by_destination(
    values: np.ndarray, destinations: np.ndarray, n_ranks: int
) -> list[np.ndarray]:
    """Group rows of *values* by destination rank.

    ``values`` may be 1-D (one scalar per element) or 2-D (one row per
    element); ``destinations`` gives the target rank of each element.  The
    result is a list of ``n_ranks`` arrays, where entry ``d`` contains the
    values destined for rank ``d`` in their original relative order.  This is
    the message-packing step of an irregular all-to-all.
    """
    values = np.asarray(values)
    destinations = np.asarray(destinations, dtype=np.int64)
    if destinations.ndim != 1:
        raise ValueError("destinations must be 1-D")
    if values.shape[0] != destinations.shape[0]:
        raise ValueError(
            f"values ({values.shape[0]}) and destinations ({destinations.shape[0]}) "
            "must have the same leading dimension"
        )
    if destinations.size and (destinations.min() < 0 or destinations.max() >= n_ranks):
        raise ValueError("destination rank out of range")
    order = np.argsort(destinations, kind="stable")
    sorted_vals = values[order]
    sorted_dest = destinations[order]
    counts = np.bincount(sorted_dest, minlength=n_ranks)
    boundaries = np.concatenate(([0], np.cumsum(counts)))
    return [sorted_vals[boundaries[d] : boundaries[d + 1]] for d in range(n_ranks)]

