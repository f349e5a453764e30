"""Sqlite-backed persistence for graphs, similarity caches and results.

:class:`GraphStore` is the on-disk layer under
:class:`~repro.core.session.KRCoreSession` and the query service: named
graphs (edge list + attribute profiles + labels), frozen CSR arrays,
per-(metric, backend) edge-metric values, the per-component result
cache, and the service's edit log all live in one sqlite database.

Staleness safety
----------------
Every derived row (CSR arrays, edge-metric payloads, result entries) is
stored together with the :func:`~repro.graph.io.graph_fingerprint` of
the graph it was computed on.  Loaders only ever return rows whose
fingerprint matches the *current* stored graph, so an edited or
re-saved graph can never serve a stale cache entry — the rows simply
stop matching and are removed by the next :meth:`prune` / save cycle.

Concurrency
-----------
One connection serves all threads (``check_same_thread=False``) behind
an internal lock; file-backed stores run in WAL mode so the service's
reader threads do not block its writer.  The schema carries a version
number; opening a database stamped with another version raises
:class:`~repro.exceptions.StoreError` and leaves the file as it is.  The
graph rows and the edit log are the canonical copy of the data, so a
mismatch is never resolved by dropping tables.
"""

from __future__ import annotations

import io
import sqlite3
import threading
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import StoreError
from repro.graph.attributed_graph import AttributedGraph
from repro.graph.csr import CSRGraph
from repro.graph.io import graph_fingerprint
from repro.store.codec import decode_attribute, decode_edit, encode_attribute

#: Bump on any incompatible schema change (and add a migration): a store
#: stamped with another version is refused, never rebuilt.
SCHEMA_VERSION = 1

_TABLES = {
    "meta": "(key TEXT PRIMARY KEY, value TEXT NOT NULL)",
    "graphs": (
        "(name TEXT PRIMARY KEY, n INTEGER NOT NULL, "
        "fingerprint TEXT NOT NULL, created REAL NOT NULL, "
        "updated REAL NOT NULL)"
    ),
    "edges": (
        "(graph TEXT NOT NULL, u INTEGER NOT NULL, v INTEGER NOT NULL, "
        "PRIMARY KEY (graph, u, v))"
    ),
    "attributes": (
        "(graph TEXT NOT NULL, vertex INTEGER NOT NULL, value TEXT NOT NULL, "
        "PRIMARY KEY (graph, vertex))"
    ),
    "labels": (
        "(graph TEXT NOT NULL, vertex INTEGER NOT NULL, label TEXT NOT NULL, "
        "PRIMARY KEY (graph, vertex))"
    ),
    "csr": (
        "(graph TEXT PRIMARY KEY, fingerprint TEXT NOT NULL, "
        "arrays BLOB NOT NULL)"
    ),
    "edge_metrics": (
        "(graph TEXT NOT NULL, metric TEXT NOT NULL, backend TEXT NOT NULL, "
        "fingerprint TEXT NOT NULL, meta TEXT NOT NULL, arrays BLOB, "
        "PRIMARY KEY (graph, metric, backend))"
    ),
    "results": (
        "(graph TEXT NOT NULL, key TEXT NOT NULL, "
        "fingerprint TEXT NOT NULL, value TEXT NOT NULL, "
        "PRIMARY KEY (graph, key))"
    ),
    "edits": (
        "(graph TEXT NOT NULL, seq INTEGER NOT NULL, applied REAL NOT NULL, "
        "payload TEXT NOT NULL, fingerprint TEXT NOT NULL, "
        "PRIMARY KEY (graph, seq))"
    ),
}

_INDICES = (
    "CREATE INDEX IF NOT EXISTS idx_results_graph_fp "
    "ON results (graph, fingerprint)",
    "CREATE INDEX IF NOT EXISTS idx_edges_graph ON edges (graph)",
)


def _pack_arrays(arrays: Dict[str, np.ndarray]) -> bytes:
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


def _unpack_arrays(blob: bytes) -> Dict[str, np.ndarray]:
    with np.load(io.BytesIO(blob), allow_pickle=False) as npz:
        return {name: npz[name] for name in npz.files}


class GraphStore:
    """Named persistent graphs with fingerprint-guarded derived caches.

    Parameters
    ----------
    path:
        Database file path, or ``":memory:"`` for an ephemeral store
        (tests).  The file is created on first use.
    """

    def __init__(self, path: str):
        self._path = str(path)
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(self._path, check_same_thread=False)
        self._conn.execute("PRAGMA foreign_keys = ON")
        if self._path != ":memory:":
            self._conn.execute("PRAGMA journal_mode = WAL")
            self._conn.execute("PRAGMA synchronous = NORMAL")
        try:
            self._ensure_schema()
        except BaseException:
            self._conn.close()
            raise

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "GraphStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _ensure_schema(self) -> None:
        with self._lock, self._conn:
            cur = self._conn.execute(
                "SELECT name FROM sqlite_master "
                "WHERE type = 'table' AND name = 'meta'"
            )
            version = None
            if cur.fetchone() is not None:
                row = self._conn.execute(
                    "SELECT value FROM meta WHERE key = 'schema_version'"
                ).fetchone()
                version = int(row[0]) if row else None
            if version is not None and version != SCHEMA_VERSION:
                raise StoreError(
                    f"store {self._path!r} has schema version {version}; "
                    f"this version of the library reads schema version "
                    f"{SCHEMA_VERSION} and does not migrate"
                )
            for table, spec in _TABLES.items():
                self._conn.execute(f"CREATE TABLE IF NOT EXISTS {table} {spec}")
            for stmt in _INDICES:
                self._conn.execute(stmt)
            if version is None:
                self._conn.execute(
                    "INSERT OR REPLACE INTO meta (key, value) VALUES "
                    "('schema_version', ?)",
                    (str(SCHEMA_VERSION),),
                )

    # ------------------------------------------------------------------
    # Graphs
    # ------------------------------------------------------------------
    def list_graphs(self) -> List[Dict[str, Any]]:
        """Summaries of every stored graph (name order)."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT name, n, fingerprint, created, updated "
                "FROM graphs ORDER BY name"
            ).fetchall()
            out = []
            for name, n, fp, created, updated in rows:
                m = self._conn.execute(
                    "SELECT COUNT(*) FROM edges WHERE graph = ?", (name,)
                ).fetchone()[0]
                out.append({
                    "name": name, "n": n, "m": m, "fingerprint": fp,
                    "created": created, "updated": updated,
                })
            return out

    def has_graph(self, name: str) -> bool:
        with self._lock:
            row = self._conn.execute(
                "SELECT 1 FROM graphs WHERE name = ?", (name,)
            ).fetchone()
            return row is not None

    def fingerprint(self, name: str) -> str:
        """Current fingerprint of a stored graph."""
        with self._lock:
            row = self._conn.execute(
                "SELECT fingerprint FROM graphs WHERE name = ?", (name,)
            ).fetchone()
        if row is None:
            raise StoreError(f"no stored graph named {name!r}")
        return row[0]

    def save_graph(self, name: str, graph: AttributedGraph) -> str:
        """Upsert a graph under ``name``; returns its fingerprint.

        Re-saving an identical graph is a no-op (derived rows survive);
        saving a changed graph rewrites the canonical rows and leaves
        the derived rows stale — they stop being served immediately and
        are removed by the next :meth:`prune`.
        """
        fp = graph_fingerprint(graph)
        now = time.time()
        attr_rows = [
            (name, u, encode_attribute(graph.attribute(u)))
            for u in graph.vertices()
            if graph.has_attribute(u)
        ]
        labels = [graph.label(u) for u in graph.vertices()]
        if labels == [str(u) for u in graph.vertices()]:
            labels = None  # default labels: nothing to store
        with self._lock, self._conn:
            row = self._conn.execute(
                "SELECT n, fingerprint FROM graphs WHERE name = ?", (name,)
            ).fetchone()
            if row is not None and row[0] == graph.vertex_count and row[1] == fp:
                return fp
            self._conn.execute(
                "INSERT INTO graphs (name, n, fingerprint, created, updated) "
                "VALUES (?, ?, ?, ?, ?) "
                "ON CONFLICT(name) DO UPDATE SET "
                "n = excluded.n, fingerprint = excluded.fingerprint, "
                "updated = excluded.updated",
                (name, graph.vertex_count, fp, now, now),
            )
            for table in ("edges", "attributes", "labels"):
                self._conn.execute(
                    f"DELETE FROM {table} WHERE graph = ?", (name,)
                )
            self._conn.executemany(
                "INSERT INTO edges (graph, u, v) VALUES (?, ?, ?)",
                ((name, u, v) for u, v in sorted(
                    tuple(sorted(e)) for e in graph.edges()
                )),
            )
            self._conn.executemany(
                "INSERT INTO attributes (graph, vertex, value) VALUES (?, ?, ?)",
                attr_rows,
            )
            if labels is not None:
                self._conn.executemany(
                    "INSERT INTO labels (graph, vertex, label) VALUES (?, ?, ?)",
                    ((name, u, label) for u, label in enumerate(labels)),
                )
        return fp

    def save_csr_graph(self, name: str, csr: CSRGraph) -> str:
        """Upsert a CSR-origin graph array-natively; returns its fingerprint.

        The ingestion counterpart of :meth:`save_graph`: edge rows come
        straight from :meth:`CSRGraph.edge_array` and the fingerprint
        from :func:`~repro.graph.ingest.csr_fingerprint`, so a
        million-edge ingested graph persists without ever materialising
        dict adjacency.  The frozen CSR arrays are stored alongside
        (:meth:`save_csr`), so a later :meth:`load_csr` skips the
        rebuild too.  :meth:`load_graph` of the same name verifies the
        fingerprint — the two paths are byte-compatible.
        """
        from repro.graph.ingest import csr_fingerprint

        fp = csr_fingerprint(csr)
        now = time.time()
        n = csr.vertex_count
        attr_rows = [
            (name, u, encode_attribute(csr.attribute(u)))
            for u in csr.vertices()
            if csr.has_attribute(u)
        ]
        labels: Optional[List[str]] = [csr.label(u) for u in csr.vertices()]
        if labels == [str(u) for u in range(n)]:
            labels = None
        eu, ev = csr.edge_array()
        with self._lock, self._conn:
            row = self._conn.execute(
                "SELECT n, fingerprint FROM graphs WHERE name = ?", (name,)
            ).fetchone()
            unchanged = row is not None and row[0] == n and row[1] == fp
        if unchanged:
            self.save_csr(name, csr, fp)
            return fp
        with self._lock, self._conn:
            self._conn.execute(
                "INSERT INTO graphs (name, n, fingerprint, created, updated) "
                "VALUES (?, ?, ?, ?, ?) "
                "ON CONFLICT(name) DO UPDATE SET "
                "n = excluded.n, fingerprint = excluded.fingerprint, "
                "updated = excluded.updated",
                (name, n, fp, now, now),
            )
            for table in ("edges", "attributes", "labels"):
                self._conn.execute(
                    f"DELETE FROM {table} WHERE graph = ?", (name,)
                )
            self._conn.executemany(
                "INSERT INTO edges (graph, u, v) VALUES (?, ?, ?)",
                ((name, int(u), int(v))
                 for u, v in zip(eu.tolist(), ev.tolist())),
            )
            self._conn.executemany(
                "INSERT INTO attributes (graph, vertex, value) VALUES (?, ?, ?)",
                attr_rows,
            )
            if labels is not None:
                self._conn.executemany(
                    "INSERT INTO labels (graph, vertex, label) VALUES (?, ?, ?)",
                    ((name, u, label) for u, label in enumerate(labels)),
                )
        self.save_csr(name, csr, fp)
        return fp

    def load_graph(self, name: str) -> AttributedGraph:
        """Rebuild a stored graph (verifies the stored fingerprint)."""
        with self._lock:
            row = self._conn.execute(
                "SELECT n, fingerprint FROM graphs WHERE name = ?", (name,)
            ).fetchone()
            if row is None:
                raise StoreError(f"no stored graph named {name!r}")
            n, fp = row
            edges = self._conn.execute(
                "SELECT u, v FROM edges WHERE graph = ? ORDER BY u, v", (name,)
            ).fetchall()
            attrs = self._conn.execute(
                "SELECT vertex, value FROM attributes WHERE graph = ?", (name,)
            ).fetchall()
            label_rows = self._conn.execute(
                "SELECT vertex, label FROM labels WHERE graph = ? "
                "ORDER BY vertex",
                (name,),
            ).fetchall()
        labels: Optional[List[str]] = None
        if label_rows:
            labels = [str(u) for u in range(n)]
            for u, label in label_rows:
                labels[u] = label
        graph = AttributedGraph(n, edges, labels=labels)
        for u, value in attrs:
            graph.set_attribute(u, decode_attribute(value))
        actual = graph_fingerprint(graph)
        if actual != fp:
            raise StoreError(
                f"stored graph {name!r} fails its fingerprint check "
                f"(stored {fp[:12]}…, rebuilt {actual[:12]}…) — "
                "database corrupted or written by an incompatible codec"
            )
        return graph

    def delete_graph(self, name: str) -> None:
        """Remove a graph and every derived/log row under its name."""
        with self._lock, self._conn:
            for table in (
                "graphs", "edges", "attributes", "labels", "csr",
                "edge_metrics", "results", "edits",
            ):
                self._conn.execute(
                    f"DELETE FROM {table} WHERE "
                    + ("name" if table == "graphs" else "graph")
                    + " = ?",
                    (name,),
                )

    # ------------------------------------------------------------------
    # Derived rows: CSR arrays
    # ------------------------------------------------------------------
    def save_csr(self, name: str, csr: CSRGraph, fingerprint: str) -> None:
        """Persist a graph's frozen CSR arrays under its fingerprint."""
        blob = _pack_arrays({"indptr": csr.indptr, "indices": csr.indices})
        with self._lock, self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO csr (graph, fingerprint, arrays) "
                "VALUES (?, ?, ?)",
                (name, fingerprint, blob),
            )

    def load_csr(self, name: str, graph: AttributedGraph) -> Optional[CSRGraph]:
        """The stored CSR form of ``name``, or ``None`` when absent/stale.

        ``graph`` supplies attributes and labels (CSR snapshots both);
        it must be the graph loaded from this store under ``name``.
        """
        with self._lock:
            fp = self.fingerprint(name)
            row = self._conn.execute(
                "SELECT fingerprint, arrays FROM csr WHERE graph = ?", (name,)
            ).fetchone()
        if row is None or row[0] != fp:
            return None
        arrays = _unpack_arrays(row[1])
        attributes = {
            u: graph.attribute(u)
            for u in graph.vertices()
            if graph.has_attribute(u)
        }
        labels = [graph.label(u) for u in graph.vertices()]
        if labels == [str(u) for u in graph.vertices()]:
            labels = None
        return CSRGraph(arrays["indptr"], arrays["indices"], attributes, labels)

    # ------------------------------------------------------------------
    # Derived rows: edge-metric values
    # ------------------------------------------------------------------
    def save_edge_metric(
        self,
        name: str,
        metric: str,
        backend: str,
        payload: Dict[str, Any],
        fingerprint: str,
    ) -> None:
        """Persist one :class:`EdgeSimilarityCache` payload."""
        import json

        arrays = {
            key: value for key, value in payload.items()
            if isinstance(value, np.ndarray)
        }
        meta = {
            key: value for key, value in payload.items()
            if not isinstance(value, np.ndarray)
        }
        blob = _pack_arrays(arrays) if arrays else None
        with self._lock, self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO edge_metrics "
                "(graph, metric, backend, fingerprint, meta, arrays) "
                "VALUES (?, ?, ?, ?, ?, ?)",
                (name, metric, backend, fingerprint, json.dumps(meta), blob),
            )

    def load_edge_metrics(
        self, name: str
    ) -> List[Tuple[str, str, Dict[str, Any]]]:
        """Every current-fingerprint edge-metric payload of ``name``.

        Returns ``(metric_name, backend, payload)`` triples; stale rows
        are silently skipped.
        """
        import json

        with self._lock:
            fp = self.fingerprint(name)
            rows = self._conn.execute(
                "SELECT metric, backend, fingerprint, meta, arrays "
                "FROM edge_metrics WHERE graph = ? ORDER BY metric, backend",
                (name,),
            ).fetchall()
        out = []
        for metric, backend, row_fp, meta, blob in rows:
            if row_fp != fp:
                continue
            payload: Dict[str, Any] = json.loads(meta)
            if blob is not None:
                payload.update(_unpack_arrays(blob))
            out.append((metric, backend, payload))
        return out

    # ------------------------------------------------------------------
    # Derived rows: result-cache entries
    # ------------------------------------------------------------------
    def save_results(
        self,
        name: str,
        entries: Iterable[Tuple[str, str]],
        fingerprint: str,
    ) -> int:
        """Upsert encoded ``(key, value)`` result entries; returns count."""
        rows = [
            (name, key, fingerprint, value) for key, value in entries
        ]
        with self._lock, self._conn:
            self._conn.executemany(
                "INSERT OR REPLACE INTO results (graph, key, fingerprint, value) "
                "VALUES (?, ?, ?, ?)",
                rows,
            )
        return len(rows)

    def load_results(self, name: str) -> List[Tuple[str, str]]:
        """Encoded ``(key, value)`` entries matching the current graph.

        Ordered by insertion (rowid), so a reloaded session's LRU order
        approximates the saved session's.
        """
        with self._lock:
            fp = self.fingerprint(name)
            return self._conn.execute(
                "SELECT key, value FROM results "
                "WHERE graph = ? AND fingerprint = ? ORDER BY rowid",
                (name, fp),
            ).fetchall()

    def result_count(self, name: str, current_only: bool = True) -> int:
        with self._lock:
            if current_only:
                fp = self.fingerprint(name)
                row = self._conn.execute(
                    "SELECT COUNT(*) FROM results "
                    "WHERE graph = ? AND fingerprint = ?",
                    (name, fp),
                ).fetchone()
            else:
                row = self._conn.execute(
                    "SELECT COUNT(*) FROM results WHERE graph = ?", (name,)
                ).fetchone()
            return int(row[0])

    def prune(self, name: str) -> int:
        """Delete stale derived rows (fingerprint mismatch); returns count."""
        with self._lock, self._conn:
            fp = self.fingerprint(name)
            removed = 0
            for table in ("csr", "edge_metrics", "results"):
                cur = self._conn.execute(
                    f"DELETE FROM {table} WHERE graph = ? AND fingerprint != ?",
                    (name, fp),
                )
                removed += cur.rowcount
            return removed

    # ------------------------------------------------------------------
    # Edit log
    # ------------------------------------------------------------------
    def record_edit(
        self,
        name: str,
        payload: str,
        new_fingerprint: str,
        *,
        add_edges: Sequence[Tuple[int, int]] = (),
        remove_edges: Sequence[Tuple[int, int]] = (),
        attributes: Optional[Dict[int, Any]] = None,
    ) -> int:
        """Apply one batch edit to the stored graph and append to the log.

        The canonical graph rows are patched in place (no full rewrite),
        the graph's fingerprint advances to ``new_fingerprint`` — which
        implicitly stops every derived row computed on the old graph
        from being served — and the edit joins the persistent log.
        Returns the edit's sequence number.
        """
        now = time.time()
        with self._lock, self._conn:
            if not self.has_graph(name):
                raise StoreError(f"no stored graph named {name!r}")
            # Same order as KRCoreSession.edit (adds, then removes), so an
            # edge both added and removed in one batch ends up absent here
            # too and the rows keep matching ``new_fingerprint``.
            for u, v in add_edges:
                lo, hi = (u, v) if u < v else (v, u)
                self._conn.execute(
                    "INSERT OR IGNORE INTO edges (graph, u, v) VALUES (?, ?, ?)",
                    (name, lo, hi),
                )
            for u, v in remove_edges:
                lo, hi = (u, v) if u < v else (v, u)
                self._conn.execute(
                    "DELETE FROM edges WHERE graph = ? AND u = ? AND v = ?",
                    (name, lo, hi),
                )
            for u, value in (attributes or {}).items():
                self._conn.execute(
                    "INSERT OR REPLACE INTO attributes (graph, vertex, value) "
                    "VALUES (?, ?, ?)",
                    (name, u, encode_attribute(value)),
                )
            seq_row = self._conn.execute(
                "SELECT COALESCE(MAX(seq), 0) + 1 FROM edits WHERE graph = ?",
                (name,),
            ).fetchone()
            seq = int(seq_row[0])
            self._conn.execute(
                "INSERT INTO edits (graph, seq, applied, payload, fingerprint) "
                "VALUES (?, ?, ?, ?, ?)",
                (name, seq, now, payload, new_fingerprint),
            )
            self._conn.execute(
                "UPDATE graphs SET fingerprint = ?, updated = ? WHERE name = ?",
                (new_fingerprint, now, name),
            )
        return seq

    def edit_log(self, name: str) -> List[Dict[str, Any]]:
        """The persisted edit history of ``name`` (sequence order)."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT seq, applied, payload, fingerprint FROM edits "
                "WHERE graph = ? ORDER BY seq",
                (name,),
            ).fetchall()
        return [
            {
                "seq": seq, "applied": applied,
                "edit": decode_edit(payload), "fingerprint": fp,
            }
            for seq, applied, payload, fp in rows
        ]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Row counts per table (the service's cache-stats endpoint)."""
        with self._lock:
            out: Dict[str, Any] = {"path": self._path}
            for table in _TABLES:
                if table == "meta":
                    continue
                row = self._conn.execute(
                    f"SELECT COUNT(*) FROM {table}"
                ).fetchone()
                out[table] = int(row[0])
            return out
