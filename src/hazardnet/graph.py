"""Dynamic heterogeneous network representation and time-sliced adjacency counts.

A network is described by a schema (node types plus typed, directed link
types) and a list of timestamped links.  Snapshots of the link structure at
any timestamp are materialized as ``scipy.sparse.csr_array`` matrices of
int64 link counts, which downstream code multiplies into composite-relation
counts.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

__all__ = [
    "Schema",
    "LinkType",
    "TemporalGraph",
    "GraphError",
    "prefixed",
    "load_schema",
    "load_graph",
    "load_graph_file",
    "time_aware_adjacency",
    "spmm",
]

# Products whose entries could reach this magnitude are rejected rather
# than risk silent 64-bit wraparound.
_COUNT_LIMIT = float(2**62)


class GraphError(ValueError):
    """Malformed schema, edge record, or matrix operation."""


@contextmanager
def prefixed(where):
    """Prefix ``where`` to the message of a ValueError raised inside."""
    try:
        yield
    except ValueError as exc:  # decode errors, which take more than a message, lose their type
        kind = type(exc) if type(exc).__init__ is ValueError.__init__ else ValueError
        raise kind(f"{where}: {exc}") from exc


@dataclass(frozen=True)
class LinkType:
    name: str
    src: str
    dst: str

    def __post_init__(self):
        for key, value in (("name", self.name), ("src", self.src), ("dst", self.dst)):
            if not isinstance(value, str):
                raise GraphError(f"link type key {key!r} must be a string, got {value!r}")


@dataclass(frozen=True)
class Schema:
    """Typed node and link vocabulary of a heterogeneous network."""

    node_types: tuple[str, ...]
    link_types: tuple[LinkType, ...]

    def __post_init__(self):
        for key, kind, noun in (("node_types", str, "strings"),
                                ("link_types", LinkType, "link types")):
            value = getattr(self, key)
            if not (isinstance(value, (list, tuple)) and all(isinstance(v, kind) for v in value)):
                raise GraphError(f"schema key {key!r} must be a JSON list of {noun}, got {value!r}")
            object.__setattr__(self, key, tuple(value))
        if len(set(self.node_types)) != len(self.node_types):
            raise GraphError("duplicate node type names")
        names = [lt.name for lt in self.link_types]
        if len(set(names)) != len(names):
            raise GraphError("duplicate link type names")
        declared = set(self.node_types)
        for lt in self.link_types:
            if lt.src not in declared or lt.dst not in declared:
                raise GraphError(f"link type {lt.name!r} references undeclared node type "
                                 f"({lt.src!r} -> {lt.dst!r})")

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
        if not isinstance(doc, dict):
            raise GraphError(f"schema is a JSON {type(doc).__name__}, not an object")
        missing = [key for key in ("node_types", "link_types") if key not in doc]
        if missing:
            raise GraphError(f"schema lacks key {missing[0]!r}")
        link_types, fields = doc["link_types"], ("name", "src", "dst")
        if isinstance(link_types, list):  # anything else is the constructor's to reject
            for i, lt in enumerate(link_types):
                missing = [key for key in fields if not isinstance(lt, dict) or key not in lt]
                if missing:
                    raise GraphError(f"schema link type #{i} lacks key {missing[0]!r}")
            link_types = [LinkType(*(lt[key] for key in fields)) for lt in link_types]
        return cls(doc["node_types"], link_types)


def _timestamp(kind: str, value) -> float:
    """``value`` as a finite float; else GraphError naming the ``kind`` of time."""
    try:
        stamp = float(value)
    except (TypeError, ValueError):
        raise GraphError(f"malformed {kind} timestamp {value!r}") from None
    if not np.isfinite(stamp):
        raise GraphError(f"non-finite {kind} timestamp {stamp!r}")
    return stamp


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

    @property
    def link_count(self) -> int:
        return sum(len(store.src) for store in self._links.values())

    def add_link(self, link_type: str, src_id: str, dst_id: str,
                 birth: float, death: float | None = None):
        if self._frozen:
            raise GraphError("graph is frozen; links cannot be added after load")
        lt = self.schema.link_type(link_type)
        birth = _timestamp("birth", birth)
        death = np.inf if death is None else _timestamp("death", death)
        if death <= birth:
            raise GraphError(f"link {link_type}({src_id},{dst_id}): death {death} <= birth {birth}")
        a = self.node_index(lt.src, src_id)
        b = self.node_index(lt.dst, dst_id)
        self._pending[link_type].append((a, b, birth, death))

    def freeze(self) -> "TemporalGraph":
        """Fix the node universe and pack link lists into arrays."""
        for name, rows in self._pending.items():
            arr = np.asarray(rows, dtype=float).reshape(-1, 4)
            self._links[name] = _LinkStore(
                src=arr[:, 0].astype(np.int64),
                dst=arr[:, 1].astype(np.int64),
                birth=arr[:, 2],
                death=arr[:, 3],
            )
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


def load_schema(path) -> Schema:
    with open(path, "r", encoding="utf-8") as fh, prefixed(path):
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
        link_type, src_id, dst_id, birth, death = parts
        try:
            graph.add_link(link_type, src_id, dst_id, birth, death if death.strip() else None)
        except GraphError as exc:
            raise GraphError(f"line {lineno}: {exc}") from exc
    return graph.freeze()


def load_graph_file(schema: Schema, path) -> TemporalGraph:
    with open(path, "r", encoding="utf-8") as fh, prefixed(path):
        return load_graph(schema, fh)


def time_aware_adjacency(graph: TemporalGraph, link_type: str,
                         tau: float) -> sp.csr_array:
    """Count matrix of links alive at ``tau``: birth < tau and tau <= death.

    Entry (a, b) counts the parallel links of this type between a and b;
    the int64 CSR comes out with duplicates summed and indices sorted.
    """
    lt = graph.schema.link_type(link_type)
    store = graph.links_of(link_type)
    shape = (graph.node_count(lt.src), graph.node_count(lt.dst))
    alive = (store.birth < tau) & (tau <= store.death)
    ones = np.ones(int(alive.sum()), dtype=np.int64)
    return sp.coo_array((ones, (store.src[alive], store.dst[alive])), shape=shape).tocsr()


def spmm(a: sp.csr_array, b: sp.csr_array) -> sp.csr_array:
    """Exact integer sparse product; raises on dimension mismatch or overflow risk.

    Column indices of the product are sorted, so sampling it at
    ``m[rows, cols]`` is a binary search per row.
    """
    if a.shape[1] != b.shape[0]:
        raise GraphError(f"dimension mismatch: {a.shape} x {b.shape}")
    # Cheap a-priori bound: C[i,j] <= rowsum_max(a) * max(b).  Counts large
    # enough to trip this are far outside any realistic path census.
    if a.nnz and b.nnz:
        bound = a.sum(axis=1, dtype=np.float64).max() * float(b.data.max())
        if bound >= _COUNT_LIMIT:
            raise OverflowError(
                f"path count product may exceed 64-bit range (bound {bound:.3g})"
            )
    product = (a @ b).tocsr()
    product.sort_indices()
    return product
