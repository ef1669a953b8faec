"""On-disk caching of experiment results.

Reference traces (one full-detail pass per benchmark) and technique runs
are deterministic given their configuration, so they are cached under a
key derived from the configuration.  The cache directory defaults to
``<repo>/.expcache`` and can be overridden with the ``REPRO_CACHE_DIR``
environment variable; delete the directory to force recomputation.

The cache is safe for concurrent writers across processes:

* every entry is published with a write-to-unique-tmp + ``os.replace``
  sequence, so readers only ever observe absent or complete files;
* a ``<key>.<ext>.claim`` file (created with ``O_EXCL``) suppresses
  duplicate work — the first writer computes while the others wait for
  the published entry, stealing the claim only if its holder died;
* unreadable entries (torn by a crash predating this scheme, or damaged
  on disk) are quarantined to ``<key>.<ext>.corrupt`` and recomputed
  instead of poisoning every later read;
* per-instance ``hits`` / ``misses`` / ``races`` / ``corrupt`` counters
  make the behaviour observable (see :meth:`ResultCache.stats`).

Reference traces are also kept in memory, process-wide, for one cache
directory at a time (:meth:`ResultCache.trace`): every cell of a figure
run reads the same few traces, and decompressing an ``.npz`` costs more
than most cells' own work.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import threading
import time
import uuid
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple, TypeVar

from ..errors import CacheError
from ..sampling.full import ReferenceTrace

__all__ = ["ResultCache"]

T = TypeVar("T")

#: Bump when a change invalidates previously cached results (simulator
#: timing semantics, workload definitions, estimators).
CACHE_VERSION = 9

#: How long a reader waits on another process's claim before giving up
#: and computing the entry itself (results are deterministic, so a
#: duplicated computation publishes identical bytes).
_CLAIM_WAIT_S = 600.0

#: Poll interval while waiting on a peer's claim.
_CLAIM_POLL_S = 0.05

#: File suffixes the cache may leave in its directory.
_CACHE_SUFFIXES = (".json", ".npz", ".tmp", ".claim", ".corrupt")


#: What identifies one published version of an entry file:
#: ``(st_ino, st_size, st_mtime_ns)``.
_FileSignature = Tuple[int, int, int]


def _signature(path: Path) -> Optional[_FileSignature]:
    try:
        st = os.stat(path)
    except OSError:
        return None
    return (st.st_ino, st.st_size, st.st_mtime_ns)


class _TraceMemo:
    """The reference traces this process loaded or computed, for one
    cache directory at a time.

    Each entry holds the trace and the signature of the file it was
    published as.  A lookup hits only while the file still has that
    signature, so an entry republished with ``os.replace``, deleted,
    swept by ``clear()`` or quarantined is read through the cache again.
    Serving another directory drops every entry, which bounds the memo
    without a size limit.  It is process-wide, not per cache, because
    every cell rebuilds its context (and cache) from a JSON document.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.directory: Optional[str] = None
        self.entries: Dict[str, Tuple[_FileSignature, ReferenceTrace]] = {}

    def _serve(self, directory: str) -> None:
        if directory != self.directory:
            self.directory = directory
            self.entries = {}

    def get(self, directory: str, path: Path) -> Optional[ReferenceTrace]:
        with self._lock:
            self._serve(directory)
            entry = self.entries.get(path.name)
            if entry is None:
                return None
            if _signature(path) != entry[0]:
                del self.entries[path.name]
                return None
            return entry[1]

    def put(self, directory: str, path: Path, trace: ReferenceTrace) -> None:
        with self._lock:
            self._serve(directory)
            signature = _signature(path)
            if signature is not None:
                self.entries[path.name] = (signature, trace)


_TRACE_MEMO = _TraceMemo()


def _default_cache_dir() -> Path:
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path(__file__).resolve().parents[3] / ".expcache"


def _reject_unserializable(obj: Any) -> Any:
    raise CacheError(
        f"cache payload value {obj!r} of type {type(obj).__name__} is not "
        "JSON-serialisable; convert it explicitly before keying (silently "
        "stringifying could collapse distinct configurations onto one key)"
    )


class ResultCache:
    """Content-addressed store for traces and JSON-able results."""

    def __init__(self, directory: Optional[Path] = None) -> None:
        self.directory = Path(directory) if directory else _default_cache_dir()
        self.directory.mkdir(parents=True, exist_ok=True)
        # The trace memo's name for this directory, fixed now so a later
        # ``chdir`` cannot make a relative path name another directory.
        self._memo_directory = os.path.abspath(self.directory)
        self.hits = 0
        self.misses = 0
        #: Times this instance found another writer working on its key.
        self.races = 0
        #: Unreadable entries quarantined and recomputed.
        self.corrupt = 0

    def stats(self) -> Dict[str, int]:
        """Counter snapshot: hits, misses, races, corrupt."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "races": self.races,
            "corrupt": self.corrupt,
        }

    def key(self, payload: Dict[str, Any]) -> str:
        """Stable hash of a JSON-able payload plus the cache version.

        Raises:
            CacheError: if the payload contains values that JSON cannot
                represent (they would otherwise be stringified, which can
                merge distinct configurations into one key).
        """
        try:
            material = json.dumps(
                {"v": CACHE_VERSION, **payload},
                sort_keys=True,
                default=_reject_unserializable,
            )
        except (TypeError, ValueError) as exc:
            # Non-string dict keys and circular references surface as
            # TypeError/ValueError without consulting ``default``.
            if isinstance(exc, CacheError):
                raise
            raise CacheError(f"cache payload is not JSON-serialisable: {exc}") from exc
        return hashlib.sha256(material.encode()).hexdigest()[:24]

    def json(
        self, payload: Dict[str, Any], compute: Callable[[], Dict[str, Any]]
    ) -> Dict[str, Any]:
        """Return the cached result for *payload*, computing it on a miss."""
        path = self.directory / f"{self.key(payload)}.json"
        return self._get(path, _load_json, _dump_json, compute)

    def trace(
        self, payload: Dict[str, Any], compute: Callable[[], ReferenceTrace]
    ) -> ReferenceTrace:
        """Return the cached reference trace for *payload*.

        A trace this process already loaded or computed from this
        directory comes from the process-wide memo, as long as its entry
        file is still the one it was read from (same inode, size and
        mtime); otherwise the entry is read, or computed, as usual.
        Memo hits count as ``hits``.  Every caller shares the one trace
        object, so its arrays are read-only.
        """
        path = self.directory / f"{self.key(payload)}.npz"
        trace = _TRACE_MEMO.get(self._memo_directory, path)
        if trace is not None:
            self.hits += 1
            return trace
        trace = self._get(path, _load_trace, _dump_trace, compute)
        for array in (trace.ops, trace.cycles, trace.bbvs):
            array.flags.writeable = False
        _TRACE_MEMO.put(self._memo_directory, path, trace)
        return trace

    def clear(self) -> int:
        """Delete every cache-owned file (entries, tmp, claim, quarantine).

        Returns the number of files removed.  Sweeping ``.tmp`` and
        ``.claim`` files keeps leftovers from interrupted runs from
        accumulating forever.
        """
        removed = 0
        for path in sorted(self.directory.glob("*")):
            if path.suffix in _CACHE_SUFFIXES:
                try:
                    path.unlink()
                except OSError:
                    continue
                removed += 1
        return removed

    def sweep(self) -> Dict[str, int]:
        """Remove crash litter without touching published entries.

        Deletes orphaned ``.tmp`` files and ``.claim`` files whose
        holder is dead (same-host check; foreign-host claims are left to
        the wait-deadline logic).  Returns counts per category — run by
        ``pgss-sim clear-cache --sweep`` after killing workers.
        """
        report = {"stale_claims": 0, "tmp_files": 0}
        for path in sorted(self.directory.glob("*.claim")):
            if not self._claim_holder_alive(path):
                try:
                    path.unlink()
                    report["stale_claims"] += 1
                except OSError:
                    pass
        for path in sorted(self.directory.glob("*.tmp")):
            try:
                path.unlink()
                report["tmp_files"] += 1
            except OSError:
                pass
        return report

    # ------------------------------------------------------------------
    # Concurrency-safe get-or-compute machinery.

    def _get(
        self,
        path: Path,
        load: Callable[[Path], T],
        dump: Callable[[T, Path], None],
        compute: Callable[[], T],
    ) -> T:
        value = self._load(path, load)
        if value is not None:
            self.hits += 1
            return value

        claim = path.with_name(path.name + ".claim")
        claimed = self._try_claim(claim)
        if not claimed:
            # Another process is computing this key right now: wait for
            # its published entry instead of duplicating the work.
            self.races += 1
            value = self._wait_for_peer(path, claim, load)
            if value is not None:
                self.hits += 1
                return value
            # The peer crashed, stalled past the deadline, or published a
            # corrupt entry — compute ourselves (claim is best-effort now;
            # a duplicated deterministic computation is harmless because
            # publication is atomic).
            claimed = self._try_claim(claim)

        self.misses += 1
        tmp = self._tmp_path(path)
        try:
            result = compute()
            dump(result, tmp)
            os.replace(tmp, path)
        finally:
            if tmp.exists():
                try:
                    tmp.unlink()
                except OSError:
                    pass
            if claimed:
                self._release_claim(claim)
        return result

    def _load(self, path: Path, load: Callable[[Path], T]) -> Optional[T]:
        """Load an entry; quarantine and miss on a corrupted file."""
        if not path.exists():
            return None
        try:
            return load(path)
        except Exception:
            # Anything unreadable — torn writes predating atomic
            # publication, bad blocks, schema drift — is moved aside so
            # the entry is recomputed instead of failing forever.
            self.corrupt += 1
            self._quarantine(path)
            return None

    def _quarantine(self, path: Path) -> None:
        target = path.with_name(path.name + ".corrupt")
        try:
            os.replace(path, target)
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass

    def _tmp_path(self, path: Path) -> Path:
        """A tmp name unique per writer (pid + random token)."""
        token = uuid.uuid4().hex[:8]
        return path.with_name(f"{path.name}.{os.getpid()}.{token}.tmp")

    def _try_claim(self, claim: Path) -> bool:
        """Atomically create *claim*; False if another writer holds it."""
        try:
            fd = os.open(claim, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        except OSError:
            # Filesystem without O_EXCL semantics or other failure: skip
            # duplicate suppression rather than blocking the computation.
            return True
        with os.fdopen(fd, "w") as fh:
            # "pid host": liveness is only checkable on the claimant's
            # own host, so peers elsewhere must honour the claim until
            # the wait deadline.  Pre-host claims hold a bare pid; the
            # parser accepts both.
            fh.write(f"{os.getpid()} {socket.gethostname()}")
        return True

    def _release_claim(self, claim: Path) -> None:
        try:
            claim.unlink()
        except OSError:
            pass

    @staticmethod
    def _claim_holder_alive(claim: Path) -> bool:
        try:
            parts = claim.read_text().split()
        except OSError:
            return False
        try:
            pid = int(parts[0]) if parts else 0
        except ValueError:
            return False
        if pid <= 0:
            return False
        if len(parts) > 1 and parts[1] != socket.gethostname():
            # A pid on another fleet host is unverifiable from here;
            # treat the claim as live and let the wait deadline bound
            # how long a truly dead foreign holder can stall us.
            return True
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        except OSError:
            return True  # e.g. EPERM: alive but owned by another user
        return True

    def _wait_for_peer(
        self, path: Path, claim: Path, load: Callable[[Path], T]
    ) -> Optional[T]:
        """Wait for the claim holder to publish; None if we must compute."""
        # Host timing bounds how long we wait on a peer process; it never
        # influences simulated state.
        deadline = time.monotonic() + _CLAIM_WAIT_S  # simlint: disable=DET005
        while True:
            if path.exists():
                return self._load(path, load)
            if not claim.exists():
                # Holder finished without publishing (crashed mid-compute
                # or its entry was quarantined): our turn.
                return None
            if not self._claim_holder_alive(claim):
                self._release_claim(claim)  # steal the stale claim
                return None
            if time.monotonic() >= deadline:  # simlint: disable=DET005
                return None
            time.sleep(_CLAIM_POLL_S)


def _load_json(path: Path) -> Dict[str, Any]:
    with path.open() as fh:
        value = json.load(fh)
    if not isinstance(value, dict):
        raise CacheError(f"cache entry {path.name} is not a JSON object")
    return value


def _dump_json(result: Dict[str, Any], tmp: Path) -> None:
    with tmp.open("w") as fh:
        json.dump(result, fh)


def _load_trace(path: Path) -> ReferenceTrace:
    return ReferenceTrace.load(path)


def _dump_trace(trace: ReferenceTrace, tmp: Path) -> None:
    trace.save(tmp)
