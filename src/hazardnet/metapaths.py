"""Meta-path expressions and their instance counts.

A meta-path is a typed walk over the schema graph, written as whitespace
separated steps: ``name>`` follows the link type forward, ``<name``
backward.  Its count matrix at a timestamp is the left-to-right product
of the per-step adjacency ``CountMatrix`` at that timestamp, in numpy
int64; even-length palindromic paths are folded to ``X @ X.T`` of their
half product.  No product is kept between calls.  The instances that use
a newly born link are found by a walk from that link alone, at the
instant after its birth, with no product at all; it expands its frontier
with the same CSR grouping and ``_ranges`` as the product.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import matmul

import numpy as np

from .graph import (CountMatrix, GraphError, Schema, TemporalGraph, _alive, _distinct,
                    _indptr, _ranges, adjacency_counts)

__all__ = [
    "MetaPath",
    "MetaPathError",
    "parse_metapath",
    "metapath_counts",
    "read_metapath_file",
]

FORWARD = "forward"
BACKWARD = "backward"


class MetaPathError(ValueError):
    """Syntax or schema type error in a meta-path expression."""


@dataclass(frozen=True)
class MetaPath:
    """A type-checked sequence of (link type, direction) steps."""

    steps: tuple[tuple[str, str], ...]
    source: str
    target: str
    expr: str

    def __str__(self):
        return self.expr

    @property
    def is_palindrome(self) -> bool:
        """True when the reversed, direction-flipped step list equals the original."""
        n = len(self.steps)
        if n % 2 != 0:
            return False
        flipped = tuple(
            (name, FORWARD if d == BACKWARD else BACKWARD)
            for name, d in reversed(self.steps)
        )
        return flipped == self.steps


def _step_endpoints(schema: Schema, name: str, direction: str) -> tuple[str, str]:
    try:
        lt = schema.link_type(name)
    except GraphError as exc:
        raise MetaPathError(str(exc)) from exc
    return (lt.src, lt.dst) if direction == FORWARD else (lt.dst, lt.src)


def _format_steps(steps) -> str:
    return " ".join(f"{n}>" if d == FORWARD else f"<{n}" for n, d in steps)


def parse_metapath(expr: str, schema: Schema) -> MetaPath:
    """Parse and type-check a meta-path expression against the schema."""
    tokens = expr.split()
    if not tokens:
        raise MetaPathError("empty meta-path expression")
    steps = []
    for tok in tokens:
        if tok.endswith(">") and not tok.startswith("<") and len(tok) > 1:
            steps.append((tok[:-1], FORWARD))
        elif tok.startswith("<") and not tok.endswith(">") and len(tok) > 1:
            steps.append((tok[1:], BACKWARD))
        else:
            raise MetaPathError(
                f"bad step {tok!r}: expected 'name>' (forward) or '<name' (backward)"
            )
    source, cursor = _step_endpoints(schema, *steps[0])
    for name, direction in steps[1:]:
        start, end = _step_endpoints(schema, name, direction)
        if start != cursor:
            raise MetaPathError(
                f"type mismatch at step {name!r}: path is at {cursor!r} "
                f"but the step starts at {start!r}"
            )
        cursor = end
    return MetaPath(tuple(steps), source, cursor, _format_steps(steps))


def endpoint_types(paths: list[MetaPath]) -> tuple[str, str]:
    """The (source, target) node types that every path in ``paths`` shares."""
    if not paths:
        raise MetaPathError("at least one meta-path is required")
    ends = {(p.source, p.target) for p in paths}
    if len(ends) != 1:
        raise MetaPathError("all feature meta-paths must share endpoint node types, "
                            f"got {' and '.join(sorted(f'{a}->{b}' for a, b in ends))}")
    return ends.pop()


def _step_counts(graph: TemporalGraph, step, tau) -> CountMatrix:
    name, direction = step
    m = adjacency_counts(graph, name, tau)
    return m if direction == FORWARD else m.T


def _product_of(graph, steps, tau) -> CountMatrix:
    return reduce(matmul, (_step_counts(graph, step, tau) for step in steps))


def metapath_counts(graph: TemporalGraph, path: MetaPath, tau: float) -> CountMatrix:
    """Path-instance count matrix of ``path`` at timestamp ``tau``.

    Palindromic paths are computed as X @ X.T from their half product.
    """
    if path.is_palindrome:
        x = _product_of(graph, path.steps[: len(path.steps) // 2], tau)
        return x @ x.T
    return _product_of(graph, path.steps, tau)


class _Hops:
    """Links of one type grouped by one of their endpoints.

    The links at node u are positions ``indptr[u]:indptr[u + 1]`` of
    ``nbr`` (their other endpoint), ``birth`` and ``death``.
    """

    def __init__(self, key, nbr, store, n_key: int, n_nbr: int):
        order = np.argsort(key, kind="stable")
        self.indptr = _indptr(key, n_key)
        self.nbr, self.birth, self.death = nbr[order], store.birth[order], store.death[order]
        self.n_nbr = n_nbr

    def step(self, tag, node, tag_tau):
        """Distinct (tag, neighbour) rows, sorted, one hop from each (tag, node)
        row over the links alive at the tag's snapshot ``tag_tau[tag]``."""
        start = self.indptr[node]
        count = self.indptr[node + 1] - start
        pos = _ranges(start, count)
        tag = np.repeat(tag, count)
        tau = tag_tau[tag]
        alive = _alive(self.birth[pos], self.death[pos], tau)
        key = _distinct(tag[alive] * self.n_nbr + self.nbr[pos[alive]])
        return key // self.n_nbr, key % self.n_nbr


# New links walked per batch in new_instance_pairs: bounds the frontier arrays.
_LINK_BATCH = 512


def new_instance_pairs(graph: TemporalGraph, path: MetaPath, start: float, stop: float):
    """Yield (b, src, dst) arrays: for each instance of ``path`` that uses a
    link born at b in ``(start, stop]`` and is alive at the instant after
    b, ``nextafter(b)``, that birth and the instance's end nodes.  The links
    alive then are those born at or before b that die after it.

    A new link at step i is walked backward over steps i-1..1 and forward
    over steps i+1..L; frontier rows carry the index of the link they
    started from, and the two walks are joined on it.
    """
    steps = path.steps
    hops: dict[tuple[str, bool], _Hops] = {}

    def grouped(step, forward):
        # a forward walk enters a step at its first endpoint, a backward walk
        # at its last; FORWARD steps run src -> dst
        name, direction = step
        by_src = forward == (direction == FORWARD)
        if (name, by_src) not in hops:
            lt, store = graph.schema.link_type(name), graph.links_of(name)
            n_src, n_dst = graph.node_count(lt.src), graph.node_count(lt.dst)
            hops[name, by_src] = (_Hops(store.src, store.dst, store, n_src, n_dst) if by_src
                                  else _Hops(store.dst, store.src, store, n_dst, n_src))
        return hops[name, by_src]

    for i, (name, direction) in enumerate(steps):
        store = graph.links_of(name)
        new = np.flatnonzero((store.birth > start) & (store.birth <= stop))
        # a link is alive at the instant after its birth, as add_link keeps death > birth
        birth = store.birth[new]
        tau = np.nextafter(birth, np.inf)
        first, last = ((store.src, store.dst) if direction == FORWARD
                       else (store.dst, store.src))
        for lo in range(0, len(new), _LINK_BATCH):
            batch = slice(lo, lo + _LINK_BATCH)
            links, tag_tau = new[batch], tau[batch]
            tags = np.arange(len(links))
            back_tag, back_node = tags, first[links]
            for step in reversed(steps[:i]):
                back_tag, back_node = grouped(step, False).step(back_tag, back_node, tag_tau)
            fwd_tag, fwd_node = tags, last[links]
            for step in steps[i + 1:]:
                fwd_tag, fwd_node = grouped(step, True).step(fwd_tag, fwd_node, tag_tau)
            # join the walks on their tag; fwd_tag is sorted
            at = np.searchsorted(fwd_tag, back_tag, side="left")
            count = np.searchsorted(fwd_tag, back_tag, side="right") - at
            yield (np.repeat(birth[batch][back_tag], count),
                   np.repeat(back_node, count), fwd_node[_ranges(at, count)])


def read_metapath_file(path) -> tuple[str | None, list[str]]:
    """Read a meta-path list file: one expression per line, ``#`` comments.

    A line ``target: <expr>`` names the target relation; returns
    (target expression or None, feature expressions).  A second
    ``target:`` line raises MetaPathError naming the file and line.
    """
    target = None
    exprs = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("target:"):
                if target is not None:
                    raise MetaPathError(f"{path}: line {lineno}: a second 'target:' line")
                target = line[len("target:"):].strip()
            else:
                exprs.append(line)
    return target, exprs
