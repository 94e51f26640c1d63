"""Typed wire protocol for cross-process collectives.

The thread backend can hand collective payloads between ranks by reference,
but the multiprocess backend moves them through shared memory, so every
payload must be *explicitly typed on the wire*: numpy arrays carry a dtype
string and a shape header instead of being pickled, and the container types
the pipeline actually exchanges (lists of per-destination arrays, small
scalars, read-sequence byte blocks) are encoded with one-byte type tags.

The format is deliberately strict: only the types below round-trip.  Passing
anything else (an arbitrary object that would silently pickle) raises
``TypeError`` — the contract that keeps the collectives protocol portable to
a real transport (MPI derived datatypes, UCX, a socket) and keeps the byte
accounting honest.

Supported payloads
------------------
``None``, ``bool``, ``int`` (64-bit signed), ``float``, ``str``, ``bytes``/
``bytearray``, ``numpy.ndarray`` (any dtype with a portable ``dtype.str``,
any shape, C-order on the wire), numpy scalars, and ``list`` / ``tuple`` /
``dict`` of supported payloads (dict keys must themselves be supported).

Layout
------
Every value is ``tag (1 byte) + body``:

* ``N`` — None, empty body.
* ``T``/``F`` — True / False, empty body.
* ``I`` — int64, 8-byte little-endian signed.
* ``G`` — big int, u32 length + ASCII decimal digits (ints beyond 64 bits).
* ``D`` — float64, 8-byte IEEE-754 little-endian.
* ``S`` — str, u64 length + UTF-8 bytes.
* ``Y`` — bytes, u64 length + raw bytes.
* ``A`` — ndarray, u8 dtype-string length + dtype string (``dtype.str``,
  e.g. ``"<i8"``) + u8 ndim + ndim × u64 shape + raw C-order buffer.
* ``L``/``U`` — list / tuple, u64 count + encoded items.
* ``M`` — dict, u64 count + encoded (key, value) pairs in insertion order.
* ``R`` — :class:`repro.seq.packing.PackedReadBlock`, u64 read count +
  read-count × i64 RIDs + read-count × i64 base lengths + u64 payload length
  + the 2-bit packed payload bytes (see ``docs/wire-format.md``).
"""

from __future__ import annotations

import struct
from typing import Any

import numpy as np

from repro.seq.packing import PackedReadBlock

__all__ = ["encode_parts", "encode_payload", "decode_payload", "UnsupportedPayloadError"]

_U8 = struct.Struct("<B")
_U64 = struct.Struct("<Q")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")

_I64_MIN = -(2**63)
_I64_MAX = 2**63 - 1


class UnsupportedPayloadError(TypeError):
    """Raised when a payload contains a type the wire protocol cannot carry."""


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------

def _array_part(array: np.ndarray) -> np.ndarray:
    """The C-order bytes of *array* as a ``uint8`` view: a reference to its
    buffer, copied only when it is not C-contiguous.  The view goes through
    ``reshape(-1)`` (a 0-d array becomes one element) so that dtypes the
    buffer protocol does not export, such as ``datetime64`` or a non-native
    byte order, travel too."""
    # NB: np.ascontiguousarray promotes 0-d arrays to 1-d, so only invoke it
    # when a copy is actually needed to make the buffer C-order.
    if not array.flags.c_contiguous:
        array = np.ascontiguousarray(array)
    return array.reshape(-1).view(np.uint8)


def _encode_array(array: np.ndarray, parts: list) -> None:
    dtype_str = array.dtype.str.encode("ascii")
    if array.dtype.hasobject:
        raise UnsupportedPayloadError("object-dtype arrays cannot be sent")
    if array.dtype.fields is not None or array.dtype.kind == "V":
        raise UnsupportedPayloadError(
            f"structured/void dtype {array.dtype} cannot be sent: dtype.str "
            "drops the field layout, so it would not round-trip"
        )
    if len(dtype_str) > 255:
        raise UnsupportedPayloadError(f"dtype string too long: {array.dtype}")
    parts.append(b"".join([b"A", _U8.pack(len(dtype_str)), dtype_str,
                           _U8.pack(array.ndim),
                           *(_U64.pack(dim) for dim in array.shape)]))
    parts.append(_array_part(array))


def _encode(value: Any, parts: list) -> None:
    if value is None:
        parts.append(b"N")
    elif isinstance(value, (bool, np.bool_)):
        parts.append(b"T" if value else b"F")
    elif isinstance(value, (int, np.integer)):
        value = int(value)
        if _I64_MIN <= value <= _I64_MAX:
            parts.append(b"I")
            parts.append(_I64.pack(value))
        else:
            digits = str(value).encode("ascii")
            parts.append(b"G")
            parts.append(struct.pack("<I", len(digits)))
            parts.append(digits)
    elif isinstance(value, (float, np.floating)):
        parts.append(b"D")
        parts.append(_F64.pack(float(value)))
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        parts.append(b"S")
        parts.append(_U64.pack(len(raw)))
        parts.append(raw)
    elif isinstance(value, (bytes, bytearray, memoryview)):
        raw = bytes(value)
        parts.append(b"Y")
        parts.append(_U64.pack(len(raw)))
        parts.append(raw)
    elif isinstance(value, np.ndarray):
        _encode_array(value, parts)
    elif isinstance(value, PackedReadBlock):
        # The alignment-stage read-block wire format: fixed-width headers
        # (RIDs, base lengths) followed by the 2-bit packed payload.  A
        # dedicated tag keeps the per-read framing implicit (byte offsets
        # derive from the lengths), so no per-read envelope is paid.
        rids = np.asarray(value.rids, dtype=np.int64)
        lengths = np.asarray(value.lengths, dtype=np.int64)
        packed = np.asarray(value.packed, dtype=np.uint8)
        parts.append(b"R" + _U64.pack(rids.size))
        parts.append(_array_part(rids))
        parts.append(_array_part(lengths))
        parts.append(_U64.pack(packed.size))
        parts.append(_array_part(packed))
    elif isinstance(value, (list, tuple)):
        parts.append(b"L" if isinstance(value, list) else b"U")
        parts.append(_U64.pack(len(value)))
        for item in value:
            _encode(item, parts)
    elif isinstance(value, dict):
        parts.append(b"M")
        parts.append(_U64.pack(len(value)))
        for key, item in value.items():
            _encode(key, parts)
            _encode(item, parts)
    else:
        raise UnsupportedPayloadError(
            f"cannot send a {type(value).__name__} through the typed collectives "
            "protocol; supported payloads are None, bool, int, float, str, bytes, "
            "numpy arrays/scalars and lists/tuples/dicts of these"
        )


def encode_parts(value: Any) -> list:
    """Serialise *value* into the typed wire format as a list of buffers.

    The wire bytes are the parts back to back.  Each part is a ``bytes``
    object (tags, headers, scalars) or a ``uint8`` view of an array's own
    buffer, so the array data is not copied here: a transport writes the
    parts straight to their destination (the process engine's arena).
    Raises :class:`UnsupportedPayloadError` for a payload the protocol
    cannot carry.
    """
    parts: list = []
    _encode(value, parts)
    return parts


def encode_payload(value: Any) -> bytes:
    """Serialise *value* into the typed wire format: the
    :func:`encode_parts` joined into one ``bytes``."""
    return b"".join(encode_parts(value))


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------

def _decode(buf: memoryview, offset: int) -> tuple[Any, int]:
    tag = buf[offset : offset + 1].tobytes()
    offset += 1
    if tag == b"N":
        return None, offset
    if tag == b"T":
        return True, offset
    if tag == b"F":
        return False, offset
    if tag == b"I":
        return _I64.unpack_from(buf, offset)[0], offset + 8
    if tag == b"G":
        (length,) = struct.unpack_from("<I", buf, offset)
        offset += 4
        return int(bytes(buf[offset : offset + length]).decode("ascii")), offset + length
    if tag == b"D":
        return _F64.unpack_from(buf, offset)[0], offset + 8
    if tag == b"S":
        (length,) = _U64.unpack_from(buf, offset)
        offset += 8
        return bytes(buf[offset : offset + length]).decode("utf-8"), offset + length
    if tag == b"Y":
        (length,) = _U64.unpack_from(buf, offset)
        offset += 8
        return bytes(buf[offset : offset + length]), offset + length
    if tag == b"A":
        (dtype_len,) = _U8.unpack_from(buf, offset)
        offset += 1
        dtype = np.dtype(bytes(buf[offset : offset + dtype_len]).decode("ascii"))
        offset += dtype_len
        (ndim,) = _U8.unpack_from(buf, offset)
        offset += 1
        shape = tuple(
            _U64.unpack_from(buf, offset + 8 * axis)[0] for axis in range(ndim)
        )
        offset += 8 * ndim
        count = int(np.prod(shape, dtype=np.int64)) if ndim else 1
        nbytes = count * dtype.itemsize
        # One copy, straight out of the (possibly shared-memory) buffer, so
        # the array owns its data and survives the segment being unmapped.
        array = np.frombuffer(buf, dtype=dtype, count=count, offset=offset)
        return array.reshape(shape).copy(), offset + nbytes
    if tag == b"R":
        (n_reads,) = _U64.unpack_from(buf, offset)
        offset += 8
        # Copy out of the (possibly shared-memory) buffer so the block owns
        # its data and survives the segment being unmapped.
        rids = np.frombuffer(buf, dtype=np.int64, count=n_reads, offset=offset).copy()
        offset += 8 * n_reads
        lengths = np.frombuffer(buf, dtype=np.int64, count=n_reads, offset=offset).copy()
        offset += 8 * n_reads
        (packed_len,) = _U64.unpack_from(buf, offset)
        offset += 8
        packed = np.frombuffer(buf, dtype=np.uint8, count=packed_len, offset=offset).copy()
        return PackedReadBlock(rids=rids, lengths=lengths, packed=packed), offset + packed_len
    if tag in (b"L", b"U"):
        (count,) = _U64.unpack_from(buf, offset)
        offset += 8
        items = []
        for _ in range(count):
            item, offset = _decode(buf, offset)
            items.append(item)
        return (items if tag == b"L" else tuple(items)), offset
    if tag == b"M":
        (count,) = _U64.unpack_from(buf, offset)
        offset += 8
        out: dict[Any, Any] = {}
        for _ in range(count):
            key, offset = _decode(buf, offset)
            value, offset = _decode(buf, offset)
            out[key] = value
        return out, offset
    raise ValueError(f"corrupt typed payload: unknown tag {tag!r} at offset {offset - 1}")


def decode_payload(buf: bytes | bytearray | memoryview) -> Any:
    """Reconstruct a payload encoded by :func:`encode_payload`.

    The whole buffer must be consumed; trailing bytes indicate a framing bug
    and raise ``ValueError``.
    """
    view = memoryview(buf)
    value, offset = _decode(view, 0)
    if offset != len(view):
        raise ValueError(
            f"typed payload has {len(view) - offset} trailing bytes (framing error)"
        )
    return value
