"""Dynamic heterogeneous network representation and time-sliced adjacency counts.

A network is described by a schema (node types plus typed, directed link
types) and a list of timestamped links.  Snapshots of the link structure at
any timestamp are materialized as sparse non-negative integer count
matrices, which downstream code multiplies into composite-relation counts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

__all__ = [
    "Schema",
    "LinkType",
    "TemporalGraph",
    "SparseCountMatrix",
    "GraphError",
    "load_schema",
    "load_graph",
    "time_aware_adjacency",
    "transpose",
    "spmm",
]

# Products whose entries could reach this magnitude are rejected rather
# than risk silent 64-bit wraparound.
_COUNT_LIMIT = float(2**62)


class GraphError(ValueError):
    """Malformed schema, edge record, or matrix operation."""


@dataclass(frozen=True)
class LinkType:
    name: str
    src: str
    dst: str


@dataclass(frozen=True)
class Schema:
    """Typed node and link vocabulary of a heterogeneous network."""

    node_types: tuple[str, ...]
    link_types: tuple[LinkType, ...]

    def __post_init__(self):
        if len(set(self.node_types)) != len(self.node_types):
            raise GraphError("duplicate node type names")
        names = [lt.name for lt in self.link_types]
        if len(set(names)) != len(names):
            raise GraphError("duplicate link type names")
        declared = set(self.node_types)
        for lt in self.link_types:
            if lt.src not in declared or lt.dst not in declared:
                raise GraphError(
                    f"link type {lt.name!r} references undeclared node type "
                    f"({lt.src!r} -> {lt.dst!r})"
                )

    def link_type(self, name: str) -> LinkType:
        for lt in self.link_types:
            if lt.name == name:
                return lt
        raise GraphError(f"unknown link type {name!r}")

    @classmethod
    def from_json(cls, text: str) -> "Schema":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise GraphError(f"schema document is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict) or "node_types" not in doc or "link_types" not in doc:
            raise GraphError("schema document must have node_types and link_types keys")
        node_types = tuple(str(n) for n in doc["node_types"])
        link_types = tuple(
            LinkType(str(lt["name"]), str(lt["src"]), str(lt["dst"]))
            for lt in doc["link_types"]
        )
        return cls(node_types, link_types)


@dataclass
class _LinkStore:
    """Links of one type as parallel arrays (kept immutable after load)."""

    src: np.ndarray
    dst: np.ndarray
    birth: np.ndarray
    death: np.ndarray  # +inf where the link is never removed


class TemporalGraph:
    """A loaded network: node index maps per type plus birth/death stamped links.

    Node indices are dense 0-based integers assigned in insertion order and
    fixed for the lifetime of the graph; time slicing applies to links only,
    so matrix dimensions agree across snapshots.
    """

    def __init__(self, schema: Schema):
        self.schema = schema
        self._nodes: dict[str, dict[str, int]] = {t: {} for t in schema.node_types}
        self._links: dict[str, _LinkStore] = {}
        self._pending: dict[str, list[tuple[int, int, float, float]]] = {
            lt.name: [] for lt in schema.link_types
        }
        self._frozen = False

    def node_count(self, node_type: str) -> int:
        if node_type not in self._nodes:
            raise GraphError(f"unknown node type {node_type!r}")
        return len(self._nodes[node_type])

    def node_index(self, node_type: str, node_id: str) -> int:
        ids = self._nodes[node_type]
        idx = ids.get(node_id)
        if idx is None:
            if self._frozen:
                raise GraphError(f"unknown {node_type} node {node_id!r}")
            idx = len(ids)
            ids[node_id] = idx
        return idx

    def node_ids(self, node_type: str) -> list[str]:
        return list(self._nodes[node_type])

    @property
    def link_count(self) -> int:
        return sum(len(store.src) for store in self._links.values())

    def add_link(self, link_type: str, src_id: str, dst_id: str,
                 birth: float, death: float | None = None):
        if self._frozen:
            raise GraphError("graph is frozen; links cannot be added after load")
        lt = self.schema.link_type(link_type)
        birth = float(birth)
        if not np.isfinite(birth):
            raise GraphError(f"non-finite birth timestamp {birth!r}")
        if death is None:
            death = np.inf
        else:
            death = float(death)
            if not np.isfinite(death):
                raise GraphError(f"non-finite death timestamp {death!r}")
            if death <= birth:
                raise GraphError(
                    f"link {link_type}({src_id},{dst_id}): death {death} <= birth {birth}"
                )
        a = self.node_index(lt.src, src_id)
        b = self.node_index(lt.dst, dst_id)
        self._pending[link_type].append((a, b, birth, death))

    def freeze(self) -> "TemporalGraph":
        """Fix the node universe and pack link lists into arrays."""
        for name, rows in self._pending.items():
            if rows:
                arr = np.asarray(rows, dtype=float)
                store = _LinkStore(
                    src=arr[:, 0].astype(np.int64),
                    dst=arr[:, 1].astype(np.int64),
                    birth=arr[:, 2],
                    death=arr[:, 3],
                )
            else:
                store = _LinkStore(
                    src=np.empty(0, dtype=np.int64),
                    dst=np.empty(0, dtype=np.int64),
                    birth=np.empty(0, dtype=float),
                    death=np.empty(0, dtype=float),
                )
            self._links[name] = store
        self._pending = {name: [] for name in self._pending}
        self._frozen = True
        return self

    def links_of(self, link_type: str) -> _LinkStore:
        self.schema.link_type(link_type)
        return self._links[link_type]

    def birth_times(self, link_types: list[str] | None = None) -> np.ndarray:
        """Sorted distinct birth timestamps over the given (or all) link types."""
        names = link_types if link_types is not None else list(self._links)
        parts = [self._links[n].birth for n in names]
        if not parts:
            return np.empty(0)
        return np.unique(np.concatenate(parts))


class SparseCountMatrix:
    """Sparse matrix of non-negative 64-bit integer counts.

    Thin wrapper over a canonical-form CSR matrix: duplicate entries summed,
    explicit zeros pruned, column indices sorted within rows.
    """

    __slots__ = ("csr",)

    def __init__(self, csr: sp.csr_matrix):
        if csr.dtype != np.int64:
            csr = csr.astype(np.int64)
        csr.sum_duplicates()
        csr.eliminate_zeros()
        csr.sort_indices()
        if csr.nnz and csr.data.min() < 0:
            raise GraphError("negative count in sparse count matrix")
        self.csr = csr

    @classmethod
    def from_coo(cls, rows, cols, counts, shape) -> "SparseCountMatrix":
        m = sp.coo_matrix((counts, (rows, cols)), shape=shape, dtype=np.int64)
        return cls(m.tocsr())

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "SparseCountMatrix":
        return cls(sp.csr_matrix((rows, cols), dtype=np.int64))

    @classmethod
    def identity(cls, n: int) -> "SparseCountMatrix":
        return cls(sp.identity(n, dtype=np.int64, format="csr"))

    @property
    def shape(self) -> tuple[int, int]:
        return self.csr.shape

    @property
    def nnz(self) -> int:
        return self.csr.nnz

    def count(self, row: int, col: int) -> int:
        return int(self.csr[row, col])

    def counts_at(self, rows, cols) -> np.ndarray:
        """Entries at the given (row, col) positions as an int64 vector."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if rows.size == 0:
            return np.empty(0, dtype=np.int64)
        return np.asarray(self.csr[rows, cols]).ravel().astype(np.int64)

    def nonzero_pairs(self) -> list[tuple[int, int]]:
        coo = self.csr.tocoo()
        return list(zip(coo.row.tolist(), coo.col.tolist()))

    def todense(self) -> np.ndarray:
        return self.csr.toarray()

    def max_count(self) -> int:
        return int(self.csr.data.max()) if self.csr.nnz else 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseCountMatrix):
            return NotImplemented
        return self.shape == other.shape and (self.csr != other.csr).nnz == 0

    def __hash__(self):
        raise TypeError("SparseCountMatrix is not hashable")

    def __repr__(self):
        return f"SparseCountMatrix(shape={self.shape}, nnz={self.nnz})"


def load_schema(path) -> Schema:
    with open(path, "r", encoding="utf-8") as fh:
        return Schema.from_json(fh.read())


def load_graph(schema: Schema, edge_lines) -> TemporalGraph:
    """Build a graph from TSV edge records.

    Each record is ``link_type<TAB>src<TAB>dst<TAB>birth<TAB>death`` with
    ``death`` optionally empty; lines starting with ``#`` and blank lines
    are skipped.  Duplicate identical records are kept as parallel links.
    """
    graph = TemporalGraph(schema)
    for lineno, raw in enumerate(edge_lines, start=1):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) == 4:
            parts.append("")
        if len(parts) != 5:
            raise GraphError(f"line {lineno}: expected 4 or 5 tab-separated fields")
        link_type, src_id, dst_id, birth_s, death_s = parts
        try:
            birth = float(birth_s)
        except ValueError as exc:
            raise GraphError(f"line {lineno}: malformed birth timestamp {birth_s!r}") from exc
        death = None
        if death_s.strip():
            try:
                death = float(death_s)
            except ValueError as exc:
                raise GraphError(f"line {lineno}: malformed death timestamp {death_s!r}") from exc
        try:
            graph.add_link(link_type, src_id, dst_id, birth, death)
        except GraphError as exc:
            raise GraphError(f"line {lineno}: {exc}") from exc
    return graph.freeze()


def load_graph_file(schema: Schema, path) -> TemporalGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return load_graph(schema, fh)


def time_aware_adjacency(graph: TemporalGraph, link_type: str,
                         tau: float) -> SparseCountMatrix:
    """Count matrix of links alive at ``tau``: birth < tau and tau <= death.

    Entry (a, b) counts the parallel links of this type between a and b.
    """
    lt = graph.schema.link_type(link_type)
    store = graph.links_of(link_type)
    shape = (graph.node_count(lt.src), graph.node_count(lt.dst))
    alive = (store.birth < tau) & (tau <= store.death)
    return SparseCountMatrix.from_coo(
        store.src[alive], store.dst[alive], np.ones(int(alive.sum()), dtype=np.int64),
        shape,
    )


def transpose(m: SparseCountMatrix) -> SparseCountMatrix:
    return SparseCountMatrix(m.csr.T.tocsr())


def spmm(a: SparseCountMatrix, b: SparseCountMatrix) -> SparseCountMatrix:
    """Exact integer sparse product; raises on dimension mismatch or overflow risk."""
    if a.shape[1] != b.shape[0]:
        raise GraphError(f"dimension mismatch: {a.shape} x {b.shape}")
    # Cheap a-priori bound: C[i,j] <= rowsum_max(a) * max(b).  Counts large
    # enough to trip this are far outside any realistic path census.
    if a.nnz and b.nnz:
        af = a.csr.astype(np.float64)
        row_sums = np.asarray(af.sum(axis=1)).ravel()
        bound = row_sums.max() * float(b.max_count())
        if bound >= _COUNT_LIMIT:
            raise OverflowError(
                f"path count product may exceed 64-bit range (bound {bound:.3g})"
            )
    return SparseCountMatrix((a.csr @ b.csr).tocsr())
