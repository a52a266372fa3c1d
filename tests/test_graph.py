import json

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_array_equal

from hazardnet.graph import (
    GraphError,
    LinkType,
    Schema,
    SparseCountMatrix,
    TemporalGraph,
    load_graph,
    load_schema,
    spmm,
    time_aware_adjacency,
    transpose,
)

SCHEMA = Schema(
    node_types=("A", "P"),
    link_types=(LinkType("write", "A", "P"), LinkType("cite", "P", "P")),
)


def small_graph():
    g = TemporalGraph(SCHEMA)
    g.add_link("write", "a0", "p0", 1.0)
    g.add_link("write", "a1", "p0", 2.0)
    g.add_link("write", "a1", "p1", 3.0, death=5.0)
    g.add_link("cite", "p0", "p1", 4.0)
    g.freeze()
    return g


class TestSchema:
    def test_from_json(self):
        doc = {"node_types": ["A", "P"],
               "link_types": [{"name": "write", "src": "A", "dst": "P"}]}
        s = Schema.from_json(json.dumps(doc))
        assert s.node_types == ("A", "P")
        assert s.link_type("write") == LinkType("write", "A", "P")

    def test_unknown_endpoint_type_rejected(self):
        with pytest.raises(GraphError):
            Schema(node_types=("A",), link_types=(LinkType("w", "A", "B"),))

    def test_duplicate_link_name_rejected(self):
        with pytest.raises(GraphError):
            Schema(node_types=("A",),
                   link_types=(LinkType("w", "A", "A"), LinkType("w", "A", "A")))

    def test_duplicate_node_type_rejected(self):
        with pytest.raises(GraphError):
            Schema(node_types=("A", "A"), link_types=())

    def test_unknown_link_lookup(self):
        with pytest.raises(GraphError):
            SCHEMA.link_type("publish")

    def test_load_schema_file(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text(json.dumps({"node_types": ["X"], "link_types": []}))
        assert load_schema(path).node_types == ("X",)


class TestTemporalGraph:
    def test_node_indexing_insertion_order(self):
        g = small_graph()
        assert g.node_count("A") == 2
        assert g.node_count("P") == 2
        assert g.node_ids("A") == ["a0", "a1"]
        assert g.node_index("A", "a1") == 1

    def test_unknown_link_type_rejected(self):
        g = TemporalGraph(SCHEMA)
        with pytest.raises(GraphError):
            g.add_link("publish", "v0", "p0", 1.0)

    def test_death_not_after_birth_rejected(self):
        g = TemporalGraph(SCHEMA)
        with pytest.raises(GraphError):
            g.add_link("write", "a0", "p0", 2.0, death=2.0)

    def test_nonfinite_birth_rejected(self):
        g = TemporalGraph(SCHEMA)
        with pytest.raises(GraphError):
            g.add_link("write", "a0", "p0", float("nan"))

    def test_link_count(self):
        g = small_graph()
        assert g.link_count == 4
        assert len(g.links_of("cite").src) == 1

    def test_birth_times_sorted_distinct(self):
        g = small_graph()
        assert_array_equal(g.birth_times(), [1.0, 2.0, 3.0, 4.0])
        assert_array_equal(g.birth_times(["cite"]), [4.0])

    def test_add_after_freeze_rejected(self):
        g = small_graph()
        with pytest.raises(GraphError):
            g.add_link("write", "a0", "p1", 9.0)


class TestLoadGraph:
    def test_comments_blanks_and_optional_death(self):
        lines = [
            "# header comment",
            "",
            "write\ta0\tp0\t1.0",
            "write\ta1\tp0\t2.0\t6.5",
        ]
        g = load_graph(SCHEMA, lines)
        assert g.link_count == 2

    def test_malformed_field_count(self):
        with pytest.raises(GraphError, match="line 1"):
            load_graph(SCHEMA, ["write\ta0\tp0"])

    def test_malformed_timestamp(self):
        with pytest.raises(GraphError, match="line 2"):
            load_graph(SCHEMA, ["write\ta0\tp0\t1.0", "write\ta1\tp0\tsoon"])

    def test_unknown_link_type_with_line_number(self):
        with pytest.raises(GraphError, match="line 1"):
            load_graph(SCHEMA, ["publish\tv\tp\t1.0"])


class TestTimeAwareAdjacency:
    def test_strict_birth_inclusive_death(self):
        g = small_graph()
        # birth < tau: the 2.0 edge is invisible at tau=2.0
        m1 = time_aware_adjacency(g, "write", 2.0)
        assert m1.count(0, 0) == 1 and m1.count(1, 0) == 0
        # death >= tau keeps the edge: the (a1, p1) edge dies at 5.0
        alive = time_aware_adjacency(g, "write", 5.0)
        assert alive.count(1, 1) == 1
        gone = time_aware_adjacency(g, "write", 5.1)
        assert gone.count(1, 1) == 0

    def test_shape_is_type_counts(self):
        g = small_graph()
        assert time_aware_adjacency(g, "write", 10.0).shape == (2, 2)
        assert time_aware_adjacency(g, "cite", 10.0).shape == (2, 2)

    def test_parallel_edges_accumulate(self):
        g = TemporalGraph(SCHEMA)
        g.add_link("write", "a0", "p0", 1.0)
        g.add_link("write", "a0", "p0", 2.0)
        g.freeze()
        assert time_aware_adjacency(g, "write", 3.0).count(0, 0) == 2


class TestSparseCountMatrix:
    def test_from_coo_merges_duplicates(self):
        m = SparseCountMatrix.from_coo([0, 0], [1, 1], [1, 2], (2, 2))
        assert m.count(0, 1) == 3
        assert m.nnz == 1

    def test_negative_counts_rejected(self):
        with pytest.raises(GraphError):
            SparseCountMatrix.from_coo([0], [0], [-1], (1, 1))

    def test_counts_at_vectorized(self):
        m = SparseCountMatrix.from_coo([0, 1], [1, 2], [4, 5], (3, 3))
        assert_array_equal(m.counts_at(np.array([0, 1, 2]), np.array([1, 2, 0])),
                           [4, 5, 0])

    def test_nonzero_pairs(self):
        m = SparseCountMatrix.from_coo([2, 0], [0, 1], [1, 1], (3, 3))
        assert m.nonzero_pairs() == [(0, 1), (2, 0)]

    def test_equality_and_hash(self):
        a = SparseCountMatrix.from_coo([0], [1], [2], (2, 2))
        b = SparseCountMatrix.from_coo([0], [1], [2], (2, 2))
        c = SparseCountMatrix.from_coo([0], [1], [3], (2, 2))
        assert a == b and a != c
        with pytest.raises(TypeError):
            hash(a)

    def test_identity_and_zeros(self):
        eye = SparseCountMatrix.identity(3)
        assert eye.todense().tolist() == np.eye(3, dtype=int).tolist()
        assert SparseCountMatrix.zeros(2, 3).nnz == 0


class TestSpmm:
    def test_counts_compose(self):
        # two walks a->b->c when both a->b edges join the single b->c edge
        ab = SparseCountMatrix.from_coo([0], [0], [2], (1, 2))
        bc = SparseCountMatrix.from_coo([0], [0], [3], (2, 1))
        assert spmm(ab, bc).count(0, 0) == 6

    def test_dimension_mismatch(self):
        a = SparseCountMatrix.zeros(2, 3)
        b = SparseCountMatrix.zeros(2, 3)
        with pytest.raises(GraphError):
            spmm(a, b)

    def test_transpose(self):
        m = SparseCountMatrix.from_coo([0, 1], [2, 0], [1, 4], (2, 3))
        t = transpose(m)
        assert t.shape == (3, 2)
        assert t.count(2, 0) == 1 and t.count(0, 1) == 4

    def test_overflow_guard(self):
        big = int(2**40)
        a = SparseCountMatrix.from_coo([0], [0], [big], (1, 1))
        with pytest.raises(OverflowError):
            spmm(a, a)

    def test_random_products_match_dense(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n, m, k = rng.integers(1, 8, size=3)
            da = rng.integers(0, 3, size=(n, m))
            db = rng.integers(0, 3, size=(m, k))
            a = SparseCountMatrix(sp.csr_matrix(da))
            b = SparseCountMatrix(sp.csr_matrix(db))
            assert_array_equal(spmm(a, b).todense(), da @ db)
