import json

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from hazardnet.graph import (
    CountMatrix,
    GraphError,
    LinkType,
    Schema,
    TemporalGraph,
    adjacency_counts,
    load_graph,
    load_graph_file,
    load_schema,
)
from hazardnet.metapaths import metapath_counts, parse_metapath

from conftest import dense

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

    @pytest.mark.parametrize("entry, key", [({"src": "A", "dst": "P"}, "name"),
                                            ({"name": "cite", "dst": "P"}, "src"),
                                            ({"name": "cite", "src": "P"}, "dst"),
                                            ("cite", "name")])
    def test_entry_missing_key_named(self, entry, key):
        doc = {"node_types": ["A", "P"],
               "link_types": [{"name": "write", "src": "A", "dst": "P"}, entry]}
        with pytest.raises(GraphError, match=f"link type #1 lacks key '{key}'"):
            Schema.from_json(json.dumps(doc))

    @pytest.mark.parametrize("key, value", [("node_types", "APV"),
                                            ("node_types", {"A": 1}),
                                            ("link_types", {"name": "write", "src": "A",
                                                            "dst": "P"}),
                                            ("link_types", "write"),
                                            ("node_types", ["A", None]),
                                            ("node_types", ["A", 5])])
    def test_non_list_key_named(self, key, value):
        doc = {"node_types": ["A", "P"],
               "link_types": [{"name": "write", "src": "A", "dst": "P"}]}
        doc[key] = value
        with pytest.raises(GraphError, match=f"schema key '{key}' must be a JSON list"):
            Schema.from_json(json.dumps(doc))

    @pytest.mark.parametrize("key", ["name", "src", "dst"])
    def test_link_type_field_not_a_string_named(self, key):
        entry = {"name": "cite", "src": "P", "dst": "P", key: None}
        doc = {"node_types": ["A", "P"], "link_types": [entry]}
        message = f"link type key '{key}' must be a string, got None"
        with pytest.raises(GraphError, match=message):
            Schema.from_json(json.dumps(doc))
        with pytest.raises(GraphError, match=message):
            LinkType(**entry)

    def test_code_built_node_type_not_a_string(self):
        with pytest.raises(GraphError, match="must be a JSON list of strings"):
            Schema(node_types=("A", None), link_types=())

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

    @pytest.mark.parametrize("doc, message", [
        ([], "schema is a JSON list, not an object"),
        (None, "schema is a JSON NoneType, not an object"),
        ({"link_types": []}, "schema lacks key 'node_types'"),
        ({"node_types": ["X"]}, "schema lacks key 'link_types'"),
    ])
    def test_document_shape_named(self, tmp_path, doc, message):
        path = tmp_path / "schema.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(GraphError) as excinfo:
            load_schema(path)
        assert str(excinfo.value) == f"{path}: {message}"

    def test_load_schema_names_file(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text(json.dumps({"node_types": ["X", None], "link_types": []}))
        with pytest.raises(GraphError) as excinfo:
            load_schema(path)
        assert str(excinfo.value).startswith(f"{path}: schema key 'node_types'")


class TestTemporalGraph:
    def test_node_indexing_insertion_order(self):
        g = small_graph()
        assert g.node_count("A") == 2
        assert g.node_count("P") == 2
        assert g.node_index("A", "a0") == 0
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

    @pytest.mark.parametrize("field, src, dst", [("src", "", "p0"), ("src", " \t", "p0"),
                                                 ("dst", "a0", " ")])
    def test_blank_node_id_rejected(self, field, src, dst):
        g = TemporalGraph(SCHEMA)
        with pytest.raises(GraphError, match=f"blank {field} node id"):
            g.add_link("write", src, dst, 1.0)
        assert g.node_count("A") == g.node_count("P") == 0

    @pytest.mark.parametrize("field, src, dst", [("src", "a0 ", "p0"), ("src", "\ta0", "p0"),
                                                 ("dst", "a0", " p0 ")])
    def test_padded_node_id_rejected(self, field, src, dst):
        g = TemporalGraph(SCHEMA)
        node_id = src if field == "src" else dst
        with pytest.raises(GraphError) as excinfo:
            g.add_link("write", src, dst, 1.0)
        assert str(excinfo.value) == f"link write: whitespace-padded {field} node id {node_id!r}"
        assert g.node_count("A") == g.node_count("P") == 0

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

    @pytest.mark.parametrize("read, message", [
        (lambda g: g.node_index("V", "v0"), "unknown node type 'V'"),
        (lambda g: g.node_count("V"), "unknown node type 'V'"),
        (lambda g: g.birth_times(["publish"]), "unknown link type 'publish'"),
        (lambda g: g.links_of("publish"), "unknown link type 'publish'"),
    ], ids=["node_index", "node_count", "birth_times", "links_of"])
    def test_unknown_type_named(self, read, message):
        with pytest.raises(GraphError, match=f"^{message}$"):
            read(small_graph())

    @pytest.mark.parametrize("read", [lambda g: g.links_of("write"),
                                      lambda g: g.birth_times(["write"]),
                                      lambda g: g.birth_times()],
                             ids=["links_of", "birth_times", "all_birth_times"])
    def test_links_read_before_freeze_rejected(self, read):
        g = TemporalGraph(SCHEMA)
        g.add_link("write", "a0", "p0", 1.0)
        with pytest.raises(GraphError, match="^graph is not frozen; call freeze"):
            read(g)


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

    @pytest.mark.parametrize("record, message", [
        ("write\t\tp0\t1.0", "line 2: link write: blank src node id ''"),
        ("write\ta1\t \t1.0", "line 2: link write: blank dst node id ' '"),
        ("write\ta0 \tp1\t2.0", "line 2: link write: whitespace-padded src node id 'a0 '"),
        ("write\ta1\t p0\t2.0", "line 2: link write: whitespace-padded dst node id ' p0'"),
    ])
    def test_blank_node_id_with_line_number(self, record, message):
        with pytest.raises(GraphError) as excinfo:
            load_graph(SCHEMA, ["write\ta0\tp0\t1.0", record])
        assert str(excinfo.value) == message

    def test_load_graph_file_names_file(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("write\ta0\tp0\t1.0\nwrite\ta1\tp0\t2.0\tnever\n")
        with pytest.raises(GraphError) as excinfo:
            load_graph_file(SCHEMA, path)
        assert str(excinfo.value) == f"{path}: line 2: malformed death timestamp 'never'"


class TestTimeAwareAdjacency:
    def test_strict_birth_inclusive_death(self):
        g = small_graph()
        # birth < tau: the 2.0 edge is invisible at tau=2.0
        m1 = dense(adjacency_counts(g, "write", 2.0))
        assert m1[0, 0] == 1 and m1[1, 0] == 0
        # death >= tau keeps the edge: the (a1, p1) edge dies at 5.0
        alive = dense(adjacency_counts(g, "write", 5.0))
        assert alive[1, 1] == 1
        gone = dense(adjacency_counts(g, "write", 5.1))
        assert gone[1, 1] == 0

    def test_shape_is_type_counts(self):
        g = small_graph()
        assert adjacency_counts(g, "write", 10.0).shape == (2, 2)
        assert adjacency_counts(g, "cite", 10.0).shape == (2, 2)

    def test_parallel_edges_accumulate(self):
        g = TemporalGraph(SCHEMA)
        g.add_link("write", "a0", "p0", 1.0)
        g.add_link("write", "a0", "p0", 2.0)
        g.freeze()
        assert dense(adjacency_counts(g, "write", 3.0))[0, 0] == 2


def counts(array):
    array = np.asarray(array, dtype=np.int64)
    rows, cols = np.nonzero(array)
    return CountMatrix.from_entries(rows, cols, array[rows, cols], array.shape)


def sorted_distinct(keys):
    return bool(np.all(np.diff(keys) > 0))


class TestSparseCountMatrix:
    """The int64 ``CountMatrix``: sorted distinct entry keys and their counts."""

    def test_from_coo_merges_duplicates(self):
        g = TemporalGraph(SCHEMA)
        g.add_link("write", "a0", "p0", 1.0)
        for birth in (1.0, 2.0, 2.5):
            g.add_link("write", "a0", "p1", birth)
        g.freeze()
        m = adjacency_counts(g, "write", 3.0)
        assert m.counts.dtype == np.int64
        assert dense(m)[0, 1] == 3
        assert len(m.keys) == 2 and sorted_distinct(m.keys)

    def test_counts_at_vectorized(self):
        m = adjacency_counts(small_graph(), "write", 10.0)
        got = m.at(np.array([0, 1, 1, 0]) * m.shape[1] + np.array([0, 0, 1, 1]))
        assert isinstance(got, np.ndarray) and got.dtype == np.int64
        assert_array_equal(got, [1, 1, 0, 0])  # the (a1, p1) link died at 5.0

    def test_nonzero_pairs(self):
        m = counts([[0, 1], [1, 0], [1, 1]]) @ counts([[1, 0, 1], [0, 1, 0]])
        assert sorted_distinct(m.keys)
        rows, cols = m.entries()
        assert list(zip(rows.tolist(), cols.tolist())) == [
            (0, 1), (1, 0), (1, 2), (2, 0), (2, 1), (2, 2)]


class TestSpmm:
    """The ``CountMatrix`` product, the count engine's one multiplication."""

    def test_counts_compose(self):
        # two walks a->b->c when both a->b edges join the single b->c edge
        ab = counts([[2, 0]])
        bc = counts([[3], [0]])
        product = ab @ bc
        assert product.at(np.array([0])).tolist() == [6]
        assert isinstance(product, CountMatrix) and product.counts.dtype == np.int64

    def test_dimension_mismatch(self):
        a = counts(np.zeros((2, 3)))
        b = counts(np.zeros((2, 3)))
        with pytest.raises(GraphError):
            a @ b

    def test_transpose(self):
        # a backward step is the forward adjacency transposed
        g = small_graph()
        backward = metapath_counts(g, parse_metapath("<write", SCHEMA), 10.0)
        forward = adjacency_counts(g, "write", 10.0)
        assert_array_equal(dense(backward), dense(forward).T)

    def test_overflow_guard(self):
        a = counts([[2**40]])
        with pytest.raises(OverflowError):
            a @ a

    def test_random_products_match_dense(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n, m, k = rng.integers(1, 8, size=3)
            da = rng.integers(0, 3, size=(n, m))
            db = rng.integers(0, 3, size=(m, k))
            product = counts(da) @ counts(db)
            assert product.counts.dtype == np.int64 and sorted_distinct(product.keys)
            assert_array_equal(dense(product), da @ db)
