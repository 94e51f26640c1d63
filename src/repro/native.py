"""The compiled tier: one C library behind the pipeline's hot loops.

``_native.c`` holds the banded x-drop kernel of stage 4
(:mod:`repro.align.batched_xdrop`), the Bloom filter's test and
test-then-set of stage 1 (:class:`repro.kmers.bloom.BloomFilter`), the
candidate-key gate of stage 2 (:func:`repro.kmers.hashtable.key_mask`),
the batch k-mer extraction every stage runs
(:func:`repro.seq.kmer.extract_kmers_batch`), the routing of every
exchange's rows by destination
(:func:`repro.mpisim.collectives.bucket_by_destination` and
``bucket_by_owner``; stage 2's packing of occurrences into index keys,
:func:`repro.core.stages.route_occurrences`) and the HyperLogLog register
max (:meth:`repro.kmers.hyperloglog.HyperLogLog.add_many`).  Each of them
keeps its NumPy body as the reference the compiled entry point is tested
against bit for bit, and as the path taken whenever :func:`library`
returns ``None``.

The library is built with ``cc`` on the first call of :func:`library` —
never at import — cached under ``$XDG_CACHE_HOME/repro/`` and called
through :mod:`ctypes`, which releases the GIL, so thread-backend ranks run
it concurrently.  Anything that fails (no compiler, a compile error, an
unusable cache directory, a library that does not load) makes
:func:`library` return ``None`` for the rest of the process, and every
caller then runs NumPy.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import tempfile
import threading
from collections.abc import Callable
from pathlib import Path
from typing import NamedTuple

_C_SOURCE = Path(__file__).with_name("_native.c")
_CC_COMMAND = ("cc", "-O2", "-shared", "-fPIC")

_NATIVE_LOCK = threading.Lock()
_NATIVE: dict[str, object] = {}

_ptr = ctypes.c_void_p
_i32 = ctypes.c_int32
_i64 = ctypes.c_int64
_u64 = ctypes.c_uint64

#: ``(restype, argtypes)`` of every entry point, by C name.
_SIGNATURES: dict[str, tuple[object, tuple[object, ...]]] = {
    "xdrop_extend_batch": (ctypes.c_int, (_i64, _i64, _i64, _ptr, _ptr, _i32, _i32, _i32,
                                          _i64, _i64, _i64, _ptr, _ptr)),
    "bloom_test": (None, (_ptr, _i64, _ptr, _u64, _i64, _ptr)),
    "bloom_insert": (None, (_ptr, _i64, _ptr, _u64, _i64, _ptr, _u64, _ptr)),
    "key_gate": (None, (_ptr, _i64, _ptr, _u64, _ptr, _i64, _i64, _i64, _ptr)),
    "extract_kmers": (_i64, (_ptr, _ptr, _i64, _ptr, _i64, _i64, _i64,
                             _ptr, _ptr, _ptr, _ptr)),
    "route_rows": (_i64, (_ptr, _i64, _i64, _ptr, _i64, _ptr, _ptr, _ptr)),
    "route_occurrences": (_i64, (_ptr, _ptr, _ptr, _i64, _ptr, _ptr, _i64, _i64,
                                 _i64, _i64, _ptr, _ptr, _ptr)),
    "hll_add": (_i64, (_ptr, _i64, _i64, _ptr, _ptr)),
}


class NativeLibrary(NamedTuple):
    """The loaded library: its entry points (named as in ``_native.c``) and
    this CPU's x-drop lane width."""

    xdrop_extend_batch: Callable[..., int]
    bloom_test: Callable[..., None]
    bloom_insert: Callable[..., None]
    key_gate: Callable[..., None]
    extract_kmers: Callable[..., int]
    route_rows: Callable[..., int]
    route_occurrences: Callable[..., int]
    hll_add: Callable[..., int]
    #: The int32 x-drop lane count of the widest vector the CPU runs (16
    #: with AVX-512F+BW, 8 with AVX2, otherwise 4), chosen by the library's
    #: own CPU check; its int16 kernel runs twice as many lanes.
    lanes: int


def library() -> NativeLibrary | None:
    """The compiled library, built and loaded on the first call in a process.

    Returns ``None`` when the compiled tier is unavailable; callers then run
    their NumPy bodies.  The outcome is remembered for the process.
    """
    if "library" not in _NATIVE:
        with _NATIVE_LOCK:
            if "library" not in _NATIVE:
                _NATIVE["library"] = load_library(_cache_dir())
    return _NATIVE["library"]


def _cache_dir() -> Path:
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):
        root = os.path.join(os.path.expanduser("~"), ".cache")
    return Path(root) / "repro"


def _library_path(cache_dir: Path) -> Path:
    """Cache entry named after the source, the compile command and the CPU."""
    digest = hashlib.sha256()
    digest.update(_C_SOURCE.read_bytes())
    digest.update(" ".join(_CC_COMMAND).encode())
    digest.update(platform.machine().encode())
    return cache_dir / f"native-{digest.hexdigest()[:16]}.so"


def _check_cache_dir(cache_dir: Path) -> None:
    """Create *cache_dir* (mode 0700); refuse one another user could write."""
    cache_dir.mkdir(mode=0o700, parents=True, exist_ok=True)
    info = cache_dir.stat()
    if info.st_uid != os.getuid() or info.st_mode & 0o022:
        raise PermissionError(f"{cache_dir} is not a private cache directory")


def _compile(path: Path) -> None:
    """Compile the library to *path* atomically (temp file + ``os.replace``).

    The library is written with its SHA-256 appended (the loader ignores
    bytes past the ELF image), so :func:`_intact` can tell a complete cache
    entry from a truncated or corrupt one.  Concurrent thread or process
    ranks each build their own temp file; the replace is atomic, so no rank
    ever loads a half-written library.
    """
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    os.close(fd)
    try:
        subprocess.run([*_CC_COMMAND, "-o", tmp, str(_C_SOURCE)],
                       check=True, capture_output=True, timeout=120)
        built = Path(tmp).read_bytes()
        Path(tmp).write_bytes(built + hashlib.sha256(built).digest())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _intact(path: Path) -> bool:
    """True when *path* holds a complete library: its trailing digest matches.

    Checked before loading because mapping a truncated library can kill the
    process with SIGBUS instead of raising.
    """
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return False
    return len(data) > 32 and hashlib.sha256(data[:-32]).digest() == data[-32:]


def load_library(cache_dir: Path) -> NativeLibrary | None:
    """Build (if not cached intact) and load the library from *cache_dir*.

    Returns the bound entry points, or ``None`` on any failure: no compiler,
    a compile error, an unusable cache directory or a library that does not
    load.  A truncated or corrupt cache entry is rebuilt.
    """
    try:
        _check_cache_dir(cache_dir)
        path = _library_path(cache_dir)
        if not _intact(path):
            _compile(path)
        loaded = ctypes.CDLL(str(path))
        entry_points = {name: getattr(loaded, name) for name in _SIGNATURES}
        lanes = loaded.xdrop_lanes
    except (OSError, AttributeError, subprocess.SubprocessError):
        return None
    for name, (restype, argtypes) in _SIGNATURES.items():
        entry_points[name].restype = restype
        entry_points[name].argtypes = argtypes
    lanes.argtypes = ()
    lanes.restype = _i64
    return NativeLibrary(**entry_points, lanes=int(lanes()))
