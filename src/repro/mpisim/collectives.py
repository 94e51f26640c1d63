"""Helpers shared by the collective implementations.

These are pure functions: payload size estimation (for the byte accounting
the cost model consumes) and destination bucketing of numpy arrays (the
"packing" step of an Alltoallv exchange, reported separately in the paper's
Figure 4 efficiency breakdown).  Bucketing runs the compiled ``route_rows``
(:mod:`repro.native`): one counting scatter per exchange, by given
destinations (:func:`bucket_by_destination`) or by k-mer owner
(:func:`bucket_by_owner`), with :func:`_bucket_numpy` as its reference and
fallback.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro import native
from repro.kmers.hashing import owner_of
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

    Arrays of 8-byte words (1-D, or 2-D rows of any width) are routed by the
    compiled ``route_rows`` (:mod:`repro.native`): one counting scatter into
    one buffer, returned as ``n_ranks`` views of it.  Other arrays, and every
    array when the compiled tier is unavailable, take :func:`_bucket_numpy`;
    both give the same buckets.
    """
    values = np.asarray(values)
    destinations = np.ascontiguousarray(destinations, dtype=np.int64)
    if destinations.ndim != 1:
        raise ValueError("destinations must be 1-D")
    if values.shape[0] != destinations.shape[0]:
        raise ValueError(
            f"values ({values.shape[0]}) and destinations ({destinations.shape[0]}) "
            "must have the same leading dimension"
        )
    return _route(values, destinations, n_ranks)


def bucket_by_owner(rows: np.ndarray, n_ranks: int) -> list[np.ndarray]:
    """Group k-mer rows by the owner rank of their code.

    *rows* is a ``uint64`` array of codes, or of rows whose first word is
    the code; a row goes to :func:`~repro.kmers.hashing.owner_of` of its
    code, §4's ``mix64(code) mod n_ranks``.  Otherwise as
    :func:`bucket_by_destination`: the compiled ``route_rows`` hashes the
    codes in the same pass that counts and scatters the rows, with no owner
    array built in NumPy.
    """
    rows = np.asarray(rows, dtype=np.uint64)
    if rows.ndim not in (1, 2) or rows.ndim == 2 and rows.shape[1] == 0:
        raise ValueError("rows must be codes, or 2-D rows that start with the code")
    if n_ranks <= 0:
        raise ValueError("n_ranks must be positive")
    return _route(rows, None, n_ranks)


def _route(values: np.ndarray, destinations: np.ndarray | None,
           n_ranks: int) -> list[np.ndarray]:
    """Bucket *values* by *destinations* (None: the owner of each row's
    first word), through ``route_rows`` when it can take them."""
    compiled = native.library()
    if (compiled is None or values.ndim not in (1, 2) or values.dtype.itemsize != 8
            or values.dtype.hasobject):
        if destinations is None:
            destinations = owner_of(values if values.ndim == 1 else values[:, 0], n_ranks)
        return _bucket_numpy(values, destinations, n_ranks)
    rows = np.ascontiguousarray(values)
    out = np.empty_like(rows)
    counts = np.empty(n_ranks, dtype=np.int64)
    owner = None if destinations is not None else np.empty(rows.shape[0], dtype=np.uint32)
    status = compiled.route_rows(
        rows.ctypes.data, rows.shape[0], 1 if rows.ndim == 1 else rows.shape[1],
        None if destinations is None else destinations.ctypes.data, n_ranks,
        None if owner is None else owner.ctypes.data, out.ctypes.data, counts.ctypes.data)
    if status < 0:
        raise ValueError("destination rank out of range")
    return split_routed(out, counts)


def split_routed(rows: np.ndarray, counts: np.ndarray) -> list[np.ndarray]:
    """Views of destination-ordered *rows*: ``counts[d]`` rows for rank ``d``."""
    bounds = [0, *np.cumsum(counts).tolist()]
    return [rows[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


def _bucket_numpy(values: np.ndarray, destinations: np.ndarray,
                  n_ranks: int) -> list[np.ndarray]:
    """The NumPy body of :func:`bucket_by_destination` (reference and
    fallback): a stable sort of the ranks and one gather."""
    if destinations.size and (destinations.min() < 0 or destinations.max() >= n_ranks):
        raise ValueError("destination rank out of range")
    # Sorted in the narrowest unsigned type that holds every rank: NumPy's
    # stable sort of 8- and 16-bit keys is a radix sort, linear and in the
    # same order as sorting the int64 ranks (2x faster at 2 ranks, 7x at 8).
    keys = destinations.astype(np.min_scalar_type(max(n_ranks - 1, 0)))
    sorted_vals = values[np.argsort(keys, kind="stable")]
    return split_routed(sorted_vals, np.bincount(destinations, minlength=n_ranks))
