"""Dynamic heterogeneous network representation and time-sliced adjacency counts.

A network is described by a schema (node types plus typed, directed link
types) and a list of timestamped links.  The links alive at a timestamp
form a ``CountMatrix`` of int64 link counts, held as its sorted nonzero
entries; ``CountMatrix`` products (numpy only) give composite-relation
counts downstream.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Schema",
    "LinkType",
    "TemporalGraph",
    "GraphError",
    "load_schema",
    "load_graph",
    "load_graph_file",
    "CountMatrix",
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

    def _ids(self, node_type: str) -> dict[str, int]:
        try:
            return self._nodes[node_type]
        except KeyError:
            raise GraphError(f"unknown node type {node_type!r}") from None

    def node_count(self, node_type: str) -> int:
        return len(self._ids(node_type))

    def node_index(self, node_type: str, node_id: str) -> int:
        ids = self._ids(node_type)
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
        for field, node_id in (("src", src_id), ("dst", dst_id)):
            if not str(node_id).strip():
                raise GraphError(f"link {link_type}: blank {field} node id {node_id!r}")
            if str(node_id).strip() != str(node_id):
                raise GraphError(f"link {link_type}: whitespace-padded {field} node id {node_id!r}")
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
        if not self._frozen:
            raise GraphError("graph is not frozen; call freeze() before reading links")
        return self._links[link_type]

    def birth_times(self, link_types: list[str] | None = None) -> np.ndarray:
        """Sorted distinct birth timestamps over the given (or all) link types."""
        names = link_types if link_types is not None else [lt.name for lt in self.schema.link_types]
        parts = [self.links_of(n).birth for n in names]
        if not parts:
            return np.empty(0)
        return _distinct(np.concatenate(parts))


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


def _run_starts(values) -> np.ndarray:
    """Index of the first element of each run of equal ``values``."""
    if not len(values):
        return np.zeros(0, dtype=np.int64)
    return np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))


def _distinct(values) -> np.ndarray:
    """Sorted distinct ``values``, as ``np.unique`` gives them but faster, and
    without the lazy import of ``numpy.ma`` that its plain form costs."""
    values = np.sort(values)
    return values[_run_starts(values)]


def _indptr(key, n_key: int) -> np.ndarray:
    """CSR row pointer of ``key`` grouped by value: the elements with key u
    are positions ``indptr[u]:indptr[u + 1]`` of ``key`` sorted."""
    indptr = np.zeros(n_key + 1, dtype=np.int64)
    np.cumsum(np.bincount(key, minlength=n_key), out=indptr[1:])
    return indptr


def _ranges(start, count) -> np.ndarray:
    """Concatenation of ``arange(s, s + c)`` over paired ``start``, ``count``."""
    end = np.cumsum(count)
    total = int(end[-1]) if len(end) else 0
    return np.arange(total) + np.repeat(start - (end - count), count)


@dataclass(frozen=True, eq=False)
class CountMatrix:
    """An int64 count matrix held as its nonzero entries.

    ``keys`` are ``row * shape[1] + col``, sorted and distinct, and
    ``counts`` their positive values, so the entries run row by row with
    columns ascending.
    """

    keys: np.ndarray
    counts: np.ndarray
    shape: tuple[int, int]

    @classmethod
    def from_entries(cls, rows, cols, counts, shape) -> "CountMatrix":
        """The matrix of ``counts`` at (``rows``, ``cols``), summed where an
        entry repeats."""
        keys = rows * shape[1] + cols
        order = np.argsort(keys)
        keys, counts = keys[order], counts[order]
        first = _run_starts(keys)
        return cls(keys[first], np.add.reduceat(counts, first), tuple(shape))

    def entries(self) -> tuple[np.ndarray, np.ndarray]:
        """(rows, cols) of the nonzero entries, in key order."""
        return np.divmod(self.keys, self.shape[1])

    @property
    def T(self) -> "CountMatrix":
        """The transpose."""
        rows, cols = self.entries()
        return CountMatrix.from_entries(cols, rows, self.counts, self.shape[::-1])

    def at(self, keys) -> np.ndarray:
        """Counts at the entries ``keys`` (``row * shape[1] + col``), 0 where absent."""
        if not len(self.keys):
            return np.zeros(len(keys), dtype=np.int64)
        at = np.minimum(np.searchsorted(self.keys, keys), len(self.keys) - 1)
        return np.where(self.keys[at] == keys, self.counts[at], 0)

    def __matmul__(self, other: "CountMatrix") -> "CountMatrix":
        """Exact integer product, row by row as in Gustavson's algorithm: each
        entry (i, k) of ``self`` expands over row k of ``other``, and the
        products are summed per (i, j) after a sort.  Raises GraphError on a
        dimension mismatch and OverflowError when an entry could leave int64.
        """
        if self.shape[1] != other.shape[0]:
            raise GraphError(f"dimension mismatch: {self.shape} x {other.shape}")
        rows, mids = self.entries()
        other_rows, cols = other.entries()
        # Cheap a-priori bound: C[i,j] <= rowsum_max(a) * max(b).  Counts large
        # enough to trip this are far outside any realistic path census.
        if len(self.keys) and len(other.keys):
            bound = np.bincount(rows, weights=self.counts).max() * float(other.counts.max())
            if bound >= _COUNT_LIMIT:
                raise OverflowError(
                    f"path count product may exceed 64-bit range (bound {bound:.3g})"
                )
        indptr = _indptr(other_rows, other.shape[0])
        start = indptr[mids]
        count = indptr[mids + 1] - start
        pos = _ranges(start, count)
        return CountMatrix.from_entries(np.repeat(rows, count), cols[pos],
                                        np.repeat(self.counts, count) * other.counts[pos],
                                        (self.shape[0], other.shape[1]))


def _alive(birth, death, tau):
    """Whether a link is alive at ``tau``: born before it, dead at or after it."""
    return (birth < tau) & (tau <= death)


def adjacency_counts(graph: TemporalGraph, link_type: str, tau: float) -> CountMatrix:
    """Count matrix of the links alive at ``tau`` (``_alive``).

    Entry (a, b) counts the parallel links of this type between a and b.
    """
    lt = graph.schema.link_type(link_type)
    store = graph.links_of(link_type)
    shape = (graph.node_count(lt.src), graph.node_count(lt.dst))
    alive = _alive(store.birth, store.death, tau)
    return CountMatrix.from_entries(store.src[alive], store.dst[alive],
                                    np.ones(int(alive.sum()), dtype=np.int64), shape)
