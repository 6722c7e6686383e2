import importlib.machinery
import importlib.metadata
import sys

import numpy as np
import pytest
import scipy.sparse

import fconn.graph
from hypothesis import given, settings
from hypothesis import strategies as st

from fconn.errors import ConvergenceError, InputFormatError, ValidationError
from fconn.graph import (
    Ordering,
    SparseSymGraph,
    Strategy,
    eigenvector_centrality,
    load_graph,
    normalize_pair,
    ranked_pairs,
    save_graph,
    select_search_space,
)

import oracles
from conftest import (
    barabasi_albert,
    complete_bipartite,
    cycle,
    k6_and_star20,
    missing_pairs,
    path,
    random_connected_graph,
    star,
    traced_peak_mib,
    triangle,
)


class TestGraphConstruction:
    def test_triangle(self):
        g = triangle()
        assert g.n == 3 and g.num_edges == 3
        A = oracles.dense_adjacency(g)
        assert np.allclose(A, A.T)
        assert np.allclose(np.diag(A), 0.0)
        assert g.weight(2, 1) == 1.0 and g.weight(0, 1) == 1.0

    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError):
            SparseSymGraph(3, [(1, 1, 1.0)])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValidationError):
            SparseSymGraph(3, [(0, 1, -2.0)])
        with pytest.raises(ValidationError):
            SparseSymGraph(3, [(0, 1, 0.0)])

    def test_duplicate_rejected(self):
        with pytest.raises(ValidationError):
            SparseSymGraph(3, [(0, 1, 1.0), (1, 0, 2.0)])

    @pytest.mark.parametrize(
        "edges, line, message",
        [
            ([(0, 1, 1.0), (2, 2, 1.0)], 2, "self-loop at node {2}"),
            ([(0, 1, 1.0), (2, 1, -1.5)], 2, "negative weight -1.5"),
            ([(0, 1, 1.0), (1, 2, 0.0)], 2, "zero weight (omit the edge instead)"),
            ([(0, 1, 1.0), (1, 2, np.nan)], 2, "non-finite weight nan"),
            ([(0, 1, 1.0), (1, 2, -np.inf)], 2, "non-finite weight -inf"),
            ([(1, 0, 1.0), (0, 1, 2.0)], 2, "duplicate entry for edge ({0}, {1})"),
            # the first failing edge is reported, whichever test it fails
            ([(0, 1, 0.0), (1, 1, 1.0)], 1, "zero weight (omit the edge instead)"),
            ([(1, 1, 1.0), (0, 1, 0.0)], 1, "self-loop at node {1}"),
        ],
    )
    def test_constructor_and_loader_share_one_check(self, edges, line, message, tmp_path):
        # the same message; the loader's adds the file and line and counts nodes from 1
        with pytest.raises(ValidationError) as err:
            SparseSymGraph(3, edges)
        assert str(err.value) == message.format(0, 1, 2)
        p = tmp_path / "bad.edges"
        p.write_text("".join(f"{i + 1} {j + 1} {w!r}\n" for i, j, w in edges))
        with pytest.raises(ValidationError) as err:
            load_graph(p)
        assert str(err.value) == f"{p}:{line}: " + message.format(1, 2, 3)

    def test_node_range_checked(self, tmp_path):
        with pytest.raises(ValidationError, match=r"^node index out of range: \(1, 3\) with n=3$"):
            SparseSymGraph(3, [(0, 1, 1.0), (3, 1, 1.0)])
        p = tmp_path / "g.mtx"
        p.write_text(PATTERN + "3 3 2\n2 1\n4 2\n")
        with pytest.raises(ValidationError) as err:
            load_graph(p)
        assert str(err.value) == f"{p}:4: node index out of range: (2, 4) with n=3"

    def test_with_edge_delta(self):
        g = triangle()
        g2 = g.with_edge_delta(0, 1, -1.0)
        assert g2.num_edges == 2 and not g2.has_edge(0, 1)
        assert g.num_edges == 3  # original untouched
        g3 = g.with_edge_delta(0, 1, 0.5)
        assert g3.weight(0, 1) == 1.5
        with pytest.raises(ValidationError):
            g.with_edge_delta(0, 1, -2.0)

    def test_degrees(self):
        assert list(star(4).degrees()) == [4, 1, 1, 1, 1]

    @pytest.mark.parametrize(
        "kind, index",
        [("remove", 0), ("remove", -1), ("remove", 20),
         ("modify", 0), ("modify", -1), ("add", 0), ("add", -1), ("add", 150)],
    )
    def test_with_edge_delta_matches_rebuild(self, kind, index):
        g = random_connected_graph(30, 45, seed=31, weighted=True)
        if kind == "add":
            i, j = missing_pairs(g)[index]
            delta = 0.75
        else:
            j, i = g.edge_pairs[index]  # reversed orientation
            delta = -g.weight(i, j) if kind == "remove" else 0.25
        want = {(a, b): w for a, b, w in g.edges}
        key = normalize_pair(i, j)
        w_new = want.get(key, 0.0) + delta
        if abs(w_new) <= 1e-12:
            want.pop(key)
        else:
            want[key] = w_new
        got = g.with_edge_delta(i, j, delta)
        rebuilt = SparseSymGraph(30, [(a, b, w) for (a, b), w in want.items()])
        assert got.edges == rebuilt.edges
        for mine, theirs in zip(got.csr_arrays, rebuilt.csr_arrays):
            assert np.array_equal(mine, theirs)
        assert np.array_equal(got.degrees(), rebuilt.degrees())
        assert got.norm1 == rebuilt.norm1
        assert g.edges == random_connected_graph(30, 45, seed=31, weighted=True).edges

    def test_edge_updates_in_sequence(self):
        g = random_connected_graph(25, 30, seed=32, weighted=True)
        rng = np.random.default_rng(33)
        want = {(a, b): w for a, b, w in g.edges}
        for _ in range(40):
            a, b = normalize_pair(*rng.choice(25, size=2, replace=False).tolist())
            delta = -want[(a, b)] if (a, b) in want and rng.random() < 0.5 else 0.5
            g = g.with_edge_delta(a, b, delta)
            if (a, b) in want and delta < 0:
                del want[(a, b)]
            else:
                want[(a, b)] = want.get((a, b), 0.0) + delta
        rebuilt = SparseSymGraph(25, [(a, b, w) for (a, b), w in want.items()])
        assert g.edges == rebuilt.edges
        assert np.array_equal(oracles.dense_adjacency(g), oracles.dense_adjacency(rebuilt))

    def test_with_edge_delta_rejects_bad_pairs(self):
        g = triangle()
        with pytest.raises(ValidationError):
            g.with_edge_delta(1, 1, 1.0)
        with pytest.raises(ValidationError):
            g.with_edge_delta(0, 3, 1.0)

    def test_edge_arrays_are_read_only(self):
        i, j, w = triangle().edge_arrays
        with pytest.raises(ValueError):
            w[0] = 2.0


def scipy_csr(n, i, j, w):
    """scipy's CSR arrays (indptr, indices, data) of the sorted edges (i < j): those of U + U.T.

    U is the upper triangle, in CSR order already. scipy's COO build of both
    triangles, with its indices sorted, gives the same arrays, which is
    checked here too.
    """
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(i, minlength=n), out=indptr[1:])
    upper = scipy.sparse.csr_matrix((w, j, indptr), shape=(n, n))
    A = upper + upper.T
    rows, cols = np.concatenate([i, j]), np.concatenate([j, i])
    coo = scipy.sparse.csr_matrix((np.concatenate([w, w]), (rows, cols)), shape=(n, n))
    coo.sort_indices()
    want = A.indptr, A.indices, A.data
    assert_same_arrays((coo.indptr, coo.indices, coo.data), want)
    return want


def assert_same_arrays(got, want):
    for x, y in zip(got, want, strict=True):
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def _isolated_nodes():
    """A weighted graph on 81 nodes whose odd nodes touch no edge, the last two included."""
    g = random_connected_graph(40, 60, seed=37, weighted=True)
    return SparseSymGraph(81, [(2 * a, 2 * b, x) for a, b, x in g.edges])


CSR_CASES = {
    "bench-tree": None,  # conftest's bench_tree fixture
    "ba-2000": lambda: barabasi_albert(2000, 3, seed=1),
    "weighted": lambda: random_connected_graph(300, 900, seed=35, weighted=True),
    "isolated-nodes": _isolated_nodes,
}


@pytest.fixture(params=list(CSR_CASES))
def csr_case(request):
    make = CSR_CASES[request.param]
    return request.getfixturevalue("bench_tree") if make is None else make()


def assert_product_is_scipys(g, seed=0, A=None):
    """``g.matmul`` equals ``A @ X`` bit for bit, A ``oracles.scipy_adjacency(g)`` unless given.

    X is a vector, or a block of one of several widths. The product is taken
    into a new array and into an ``out`` buffer that held other values.
    """
    A = oracles.scipy_adjacency(g) if A is None else A
    rng = np.random.default_rng(seed)
    for k in (None, 1, 2, 6, 20, 40):
        X = rng.standard_normal(g.n if k is None else (g.n, k))
        want = A @ X
        out = rng.standard_normal(X.shape)
        for got in (g.matmul(X), g.matmul(X, out=out)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert g.matmul(X, out=out) is out


class TestCsrKernel:
    """The graph's own CSR arrays and its product through scipy's compiled kernel."""

    def test_arrays_equal_scipys_sum(self, csr_case):
        g = csr_case
        assert_same_arrays(g.csr_arrays, scipy_csr(g.n, *g.edge_arrays))
        assert g.csr_arrays[0].dtype == np.int32
        assert not any(a.flags.writeable for a in g.csr_arrays)

    def test_product_equals_scipys(self, csr_case):
        assert_product_is_scipys(csr_case)

    def test_after_inserting_and_removing_an_edge(self):
        g = barabasi_albert(2000, 3, seed=1)
        a, b = 5, 1999
        assert not g.has_edge(a, b)
        for h in (g.with_edge_delta(a, b, 0.5), g.with_edge_delta(*g.edge_pairs[17], -1.0)):
            assert h.num_edges != g.num_edges
            assert_same_arrays(h.csr_arrays, scipy_csr(h.n, *h.edge_arrays))
            assert_product_is_scipys(h, seed=1)

    def test_int64_index_arrays(self):
        # a graph past int32's range has int64 indices; these are built directly
        g = random_connected_graph(300, 900, seed=35, weighted=True)
        wide = tuple(a.astype(np.int64) if a.dtype.kind == "i" else a for a in g.csr_arrays)
        h = object.__new__(SparseSymGraph)
        h._set(g.n, *g.edge_arrays, wide)
        assert [a.dtype for a in h.csr_arrays] == [np.int64, np.int64, np.float64]
        assert_product_is_scipys(h, seed=2, A=oracles.scipy_adjacency(g))

    @pytest.mark.parametrize(
        "out",
        [np.zeros((30, 2)), np.zeros((30, 3), dtype=np.float32), np.zeros((3, 30)).T, None],
        ids=["shape", "dtype", "order", "overlap"],
    )
    def test_product_rejects_a_bad_out(self, out):
        g = random_connected_graph(30, 10, seed=2)
        X = np.ones((30, 3))
        with pytest.raises(ValueError, match="out"):
            g.matmul(X, out=X if out is None else out)

    @pytest.mark.parametrize("shape", [(29,), (31,), (29, 3), (30, 2, 2), ()])
    def test_product_rejects_the_wrong_shape(self, shape):
        # the compiled kernel reads x by index without a bounds check
        with pytest.raises(ValueError):
            random_connected_graph(30, 10, seed=2).matmul(np.ones(shape))

    def test_missing_kernel_names_the_scipy_version(self, monkeypatch):
        monkeypatch.delitem(sys.modules, "scipy.sparse._sparsetools")
        monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec", lambda *a, **k: None)
        with pytest.raises(ImportError, match=f"scipy {importlib.metadata.version('scipy')}"):
            fconn.graph._csr_kernels()


class TestFileIO:
    def test_load_edge_list_triangle(self, tmp_path):
        p = tmp_path / "tri.edges"
        p.write_text("% comment\n1 2\n2 3\n1 3\n")
        g = load_graph(p)
        assert g.n == 3 and g.num_edges == 3
        assert all(w == 1.0 for _, _, w in g.edges)

    def test_shuffled_edge_list_loads_byte_identical(self, tmp_path):
        # reference: a (lo, hi) lexsort of the edges and scipy's own CSR of them
        g = random_connected_graph(300, 900, seed=35, weighted=True)
        i, j, w = g.edge_arrays
        rng = np.random.default_rng(36)
        perm = rng.permutation(len(i))
        flip = rng.random(len(i)) < 0.5
        a, b = np.where(flip, j, i)[perm], np.where(flip, i, j)[perm]
        p = tmp_path / "shuffled.edges"
        lines = zip(a.tolist(), b.tolist(), w[perm].tolist())
        p.write_text("".join(f"{x + 1} {y + 1} {v:.17g}\n" for x, y, v in lines))
        got = load_graph(p)
        order = np.lexsort((np.maximum(a, b), np.minimum(a, b)))
        want = (np.minimum(a, b)[order], np.maximum(a, b)[order], w[perm][order])
        assert_same_arrays(got.edge_arrays, want)
        assert_same_arrays(got.csr_arrays, scipy_csr(300, *want))

    def test_mixed_two_and_three_field_lines(self, tmp_path):
        p = tmp_path / "mixed.edges"
        p.write_text("1 2\n2 3 0.5\n  # indented comment\n3\t4\n4 1 2.5\r\n")
        g = load_graph(p)
        assert g.edges == ((0, 1, 1.0), (0, 3, 2.5), (1, 2, 0.5), (2, 3, 1.0))

    def test_save_matches_per_edge_format(self, tmp_path):
        g = random_connected_graph(40, 60, seed=34, weighted=True)
        p = tmp_path / "out.edges"
        save_graph(g, p)
        want = "".join(f"{i + 1} {j + 1} {w:.17g}\n" for i, j, w in g.edges)
        assert p.read_text() == want

    def test_load_weights_and_comments(self, tmp_path):
        p = tmp_path / "w.edges"
        p.write_text("# hash comment\n1 2 0.25\n\n2 3 4.5\n")
        g = load_graph(p)
        assert g.weight(0, 1) == 0.25 and g.weight(1, 2) == 4.5

    def test_self_loop_file_rejected(self, tmp_path):
        p = tmp_path / "bad.edges"
        p.write_text("1 2\n2 2\n")
        with pytest.raises(ValidationError, match="self-loop"):
            load_graph(p)

    def test_parse_error_reports_line(self, tmp_path):
        p = tmp_path / "bad.edges"
        p.write_text("1 2\nnot numbers here\n")
        with pytest.raises(InputFormatError) as err:
            load_graph(p)
        assert err.value.line == 2

    def test_negative_weight_rejected(self, tmp_path):
        p = tmp_path / "bad.edges"
        p.write_text("1 2 -1.0\n")
        with pytest.raises(ValidationError, match="negative"):
            load_graph(p)

    @pytest.mark.parametrize("w", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_weight_rejected(self, w, tmp_path):
        p = tmp_path / "bad.edges"
        p.write_text(f"1 2\n2 3 {w}\n")
        with pytest.raises(ValidationError) as err:
            load_graph(p)
        assert str(err.value).startswith(f"{p}:2: non-finite weight")

    @pytest.mark.parametrize("chunk", [4, 2**16])
    def test_non_utf8_file_rejected(self, chunk, tmp_path, monkeypatch):
        p = tmp_path / "bad.edges"
        p.write_bytes(b"1 2\n2 3\n3 4\n\xff\xfe 3\n")
        monkeypatch.setattr(fconn.graph, "_CHUNK", chunk)
        with pytest.raises(InputFormatError, match="not UTF-8") as err:
            load_graph(p)
        assert err.value.path == str(p)

    def test_mirrored_duplicate_rejected(self, tmp_path):
        p = tmp_path / "dup.edges"
        p.write_text("1 2\n2 1\n")
        with pytest.raises(ValidationError, match="duplicate"):
            load_graph(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputFormatError):
            load_graph(tmp_path / "nope.edges")

    def test_matrix_market_pattern(self, tmp_path):
        p = tmp_path / "g.mtx"
        p.write_text(
            "%%MatrixMarket matrix coordinate pattern symmetric\n"
            "% a comment\n"
            "4 4 3\n"
            "2 1\n3 2\n4 3\n"
        )
        g = load_graph(p)
        assert g.n == 4 and g.num_edges == 3
        assert g.has_edge(0, 1) and g.has_edge(1, 2) and g.has_edge(2, 3)

    def test_matrix_market_real(self, tmp_path):
        p = tmp_path / "g.mtx"
        p.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n2 1 0.5\n3 1 2.0\n"
        )
        g = load_graph(p)
        assert g.weight(0, 1) == 0.5 and g.weight(0, 2) == 2.0

    def test_matrix_market_general_rejected(self, tmp_path):
        p = tmp_path / "g.mtx"
        p.write_text("%%MatrixMarket matrix coordinate real general\n2 2 1\n2 1 1.0\n")
        with pytest.raises(ValidationError, match="symmetric"):
            load_graph(p)

    def test_matrix_market_bad_entry_line(self, tmp_path):
        p = tmp_path / "g.mtx"
        p.write_text("%%MatrixMarket matrix coordinate pattern symmetric\n3 3 1\n2 1 7 9\n")
        with pytest.raises(InputFormatError) as err:
            load_graph(p)
        assert err.value.line == 3

    def test_round_trip_bit_exact(self, tmp_path):
        g = random_connected_graph(40, 60, seed=9, weighted=True)
        p = tmp_path / "rt.edges"
        save_graph(g, p)
        g2 = load_graph(p)
        assert g2.n == g.n
        assert g2.edges == g.edges  # includes exact float equality


def _load_outcome(path):
    """What load_graph makes of a file: the graph's arrays, or the error it raises."""
    try:
        g = load_graph(path)
    except (InputFormatError, ValidationError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return g.n, [x.tobytes() for x in g.edge_arrays + g.csr_arrays]


# Texts whose lines and comments straddle the boundaries of small chunks.
PATTERN = "%%MatrixMarket matrix coordinate pattern symmetric\n"
CHUNKED_FILES = {
    "edges.txt": "1 2\n2 3 0.5\n% a comment line longer than a chunk\n3 4\n\n# another\n4 1 2.5\n",
    "crlf.txt": "1 2\r\n2 3\r\n% comment\r\n3 4 1.5\r\n\r\n4 5\r\n",
    "no_final_newline.txt": "1 2\n# comment\n2 3\n3 4 0.25",
    "late_bad_line.txt": "".join(f"{k} {k + 1}\n" for k in range(1, 40)) + "40 x\n41 42\n",
    "late_wrong_fields.txt": "".join(f"{k} {k + 1}\n" for k in range(1, 30)) + "% c\n30\n",
    "late_duplicate.txt": "".join(f"{k} {k + 1}\n" for k in range(1, 30)) + "# c\n7 6\n",
    "late_self_loop.txt": "".join(f"{k} {k + 1}\r\n" for k in range(1, 30)) + "9 9\r\n",
    "late_nan_weight.txt": "".join(f"{k} {k + 1} 0.5\n" for k in range(1, 30)) + "# c\n9 3 nan\n",
    "g.mtx": (
        "%%MatrixMarket matrix coordinate real symmetric\n% comments before\n%\n"
        "% the size line\n5 5 4\n2 1 0.5\n% c\n3 2 1.0\n4 3 2.0\n5 4 1.5"
    ),
    "late_size.mtx": PATTERN + "% c\n" * 20 + "3 3 2\n2 1\n3 1\n",
    "bad_size.mtx": PATTERN + "% c\n" * 20 + "3 3\n2 1\n",
    "no_size.mtx": PATTERN + "% c\n" * 20,
    "late_bad_entry.mtx": (
        PATTERN + "9 9 8\n" + "".join(f"{k + 1} {k}\n" for k in range(1, 8)) + "% c\n9 8 1\n"
    ),
    "out_of_range.mtx": PATTERN + "3 3 2\n2 1\n% c\n4 1\n",
}


class TestChunkedLoading:
    """The loader reads text in chunks of whole lines; no result may depend on where they end."""

    @pytest.fixture(params=sorted(CHUNKED_FILES))
    def text_file(self, request, tmp_path):
        p = tmp_path / request.param
        p.write_bytes(CHUNKED_FILES[request.param].encode())
        return p

    @pytest.mark.parametrize("chunk", [1, 2, 3, 5, 8, 13, 21, 64])
    def test_outcome_does_not_depend_on_the_chunk_size(self, text_file, chunk, monkeypatch):
        whole = _load_outcome(text_file)  # _CHUNK exceeds every file here
        monkeypatch.setattr(fconn.graph, "_CHUNK", chunk)
        assert _load_outcome(text_file) == whole

    @pytest.mark.parametrize(
        "name,kind,line",
        [
            ("late_bad_line.txt", InputFormatError, 40),
            ("late_wrong_fields.txt", InputFormatError, 31),
            ("late_duplicate.txt", ValidationError, 31),
            ("late_self_loop.txt", ValidationError, 30),
            ("late_nan_weight.txt", ValidationError, 31),
            ("bad_size.mtx", InputFormatError, 22),
            ("no_size.mtx", InputFormatError, 21),
            ("late_bad_entry.mtx", InputFormatError, 11),
        ],
    )
    def test_first_bad_line_past_the_first_chunk(self, name, kind, line, tmp_path, monkeypatch):
        p = tmp_path / name
        p.write_bytes(CHUNKED_FILES[name].encode())
        monkeypatch.setattr(fconn.graph, "_CHUNK", 16)
        with pytest.raises(kind) as err:
            load_graph(p)
        if kind is InputFormatError:
            assert err.value.line == line
        else:
            assert str(err.value).startswith(f"{p}:{line}: ")

    @pytest.mark.parametrize(
        "name,n,edges",
        [
            ("crlf.txt", 5, ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.5), (3, 4, 1.0))),
            ("no_final_newline.txt", 4, ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 0.25))),
            ("g.mtx", 5, ((0, 1, 0.5), (1, 2, 1.0), (2, 3, 2.0), (3, 4, 1.5))),
            ("late_size.mtx", 3, ((0, 1, 1.0), (0, 2, 1.0))),
        ],
    )
    def test_lines_across_chunks(self, name, n, edges, tmp_path, monkeypatch):
        p = tmp_path / name
        p.write_bytes(CHUNKED_FILES[name].encode())
        monkeypatch.setattr(fconn.graph, "_CHUNK", 4)
        g = load_graph(p)
        assert g.n == n and g.edges == edges

    def test_bench_tree_loads_within_its_memory_bound(self, bench_tree, tmp_path):
        # the benchmark's 1.09 MB edge list: parsing the whole text at once
        # and sorting the 2m entries of A take 16.2 MiB traced
        i, j, _ = bench_tree.edge_arrays
        p = tmp_path / "tree.edges"
        p.write_text("".join(f"{a + 1} {b + 1}\n" for a, b in zip(i.tolist(), j.tolist())))
        g, peak = traced_peak_mib(lambda: load_graph(p))
        assert peak <= 12.0
        for x, y in zip(g.edge_arrays, bench_tree.edge_arrays):
            assert x.tobytes() == y.tobytes()


class TestEigenvectorCentrality:
    def test_triangle_uniform(self):
        x = eigenvector_centrality(triangle())
        assert np.allclose(x, 1.0 / np.sqrt(3.0), atol=1e-10)

    def test_star_closed_form(self):
        # dominant eigenvector of K_{1,4} from the dense eigendecomposition
        g = star(4)
        x = eigenvector_centrality(g, tol=1e-12)
        w, V = np.linalg.eigh(oracles.dense_adjacency(g))
        v = np.abs(V[:, np.argmax(w)])
        assert np.allclose(x, v, atol=1e-9)
        assert x[0] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-9)
        assert np.allclose(x[1:], 1.0 / (2.0 * np.sqrt(2.0)), atol=1e-9)

    def test_path3_closed_form(self):
        x = eigenvector_centrality(path(3), tol=1e-12)
        assert np.allclose(x, [0.5, 1.0 / np.sqrt(2.0), 0.5], atol=1e-9)

    def test_residual_contract(self):
        g = random_connected_graph(80, 120, seed=4)
        tol = 1e-10
        x = eigenvector_centrality(g, tol=tol)
        A = oracles.scipy_adjacency(g)
        lam = float(x @ (A @ x))
        assert np.linalg.norm(A @ x - lam * x) <= tol * lam
        assert np.all(x >= 0)
        assert abs(np.linalg.norm(x) - 1.0) <= 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_matches_dense_dominant_eigenvector(self, seed):
        n = int(np.random.default_rng(seed).integers(20, 200))
        g = random_connected_graph(n, 2 * n, seed=seed, weighted=seed % 2 == 0)
        x = eigenvector_centrality(g, tol=1e-10)
        w, V = np.linalg.eigh(oracles.dense_adjacency(g))
        v = V[:, np.argmax(w)]
        angle = np.arccos(min(1.0, abs(float(x @ v))))
        assert angle < 1e-6

    @pytest.mark.parametrize(
        "g",
        [
            path(50),
            path(200),
            cycle(9),
            cycle(10),
            star(50),
            complete_bipartite(3, 3),
            k6_and_star20(),
        ],
        ids=["path50", "path200", "cycle9", "cycle10", "star50", "K33", "K6+K1,20"],
    )
    def test_matches_dense_eigh(self, g):
        # paths have a spectral gap of about 1 - cos(pi/(n+1)), and their
        # Krylov space exhausts the symmetric subspace; bipartite spectra are
        # symmetric; K6 + K_{1,20} has two components whose top eigenvalues,
        # 5 and sqrt(20), are close.
        x = eigenvector_centrality(g)
        A = oracles.dense_adjacency(g)
        w, V = np.linalg.eigh(A)
        assert np.max(np.abs(x - np.abs(V[:, -1]))) <= 1e-12
        assert abs(np.linalg.norm(x) - 1.0) <= 1e-14
        assert float(x @ A @ x) == pytest.approx(w[-1], rel=1e-14)

    def test_disconnected_graph_takes_the_larger_component(self):
        # a Krylov space from the star's centre would find sqrt(20), not K6's 5
        g = k6_and_star20()
        x = eigenvector_centrality(g)
        assert float(x @ g.matmul(x)) == pytest.approx(5.0, rel=1e-14)

    def test_edgeless_graph_is_uniform(self):
        # every vector is an eigenvector of A = 0; the start vector is returned
        x = eigenvector_centrality(SparseSymGraph(5, []))
        assert np.allclose(x, 1.0 / np.sqrt(5.0), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("tol", [1e-8, 1e-12])
    @pytest.mark.parametrize(
        "make",
        [
            lambda: barabasi_albert(1500, 3, seed=1),
            lambda: random_connected_graph(1500, 3000, seed=2, weighted=True),
        ],
        ids=["ba1500", "weighted1500"],
    )
    def test_true_residual_at_scale(self, make, tol):
        # at n >= 1000 the recurrence has lost orthogonality by the stop;
        # the Ritz estimate must still bound the true residual
        g = make()
        x = eigenvector_centrality(g, tol=tol)
        ax = g.matmul(x)
        lam = float(x @ ax)
        assert np.linalg.norm(ax - lam * x) <= tol * lam
        assert np.all(x >= 0) and abs(np.linalg.norm(x) - 1.0) <= 1e-12

    def test_nonconvergence_raises(self):
        # a 1000-node path is neither exhausted nor resolved at the order cap
        with pytest.raises(ConvergenceError, match="iterations=100"):
            eigenvector_centrality(path(1000))

    def test_invalid_tol(self):
        with pytest.raises(ValueError):
            eigenvector_centrality(triangle(), tol=0.0)


def pair_key(scores, ordering, pair):
    """Ranking key of a node pair, written apart from fconn (larger key = better pair)."""
    si, sj = float(scores[pair[0]]), float(scores[pair[1]])
    if ordering is Ordering.PRODUCT:
        return (si * sj,)
    return (min(si, sj), max(si, sj))


def sorted_top(pairs, scores, ordering, count):
    """Ranking by a key-sorted list: key descending, ties by (min index, max index)."""
    return sorted(
        (normalize_pair(*p) for p in pairs),
        key=lambda p: tuple(-c for c in pair_key(scores, ordering, p)) + p,
    )[:count]


def on_pairs(n, pairs):
    """Unweighted graph on ``n`` nodes whose edges are ``pairs``."""
    return SparseSymGraph(n, [(i, j, 1.0) for i, j in pairs])


def complete(n):
    return on_pairs(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


class TestCompareEdges:
    """The pairwise order of node pairs under an ordering, as ``ranked_pairs`` applies it."""

    SCORES = np.array([0.9, 0.5, 0.4, 0.1]) / np.linalg.norm([0.9, 0.5, 0.4, 0.1])

    def test_product_ordering(self):
        g = on_pairs(4, [(0, 3), (1, 2)])
        assert ranked_pairs(g, self.SCORES, Ordering.PRODUCT, 2, False) == [(1, 2), (0, 3)]

    def test_minmax_ordering(self):
        g = on_pairs(4, [(0, 3), (1, 2)])
        assert ranked_pairs(g, self.SCORES, Ordering.MINMAX, 2, False) == [(1, 2), (0, 3)]

    def test_degenerate_tie(self):
        s = np.full(4, 0.5)
        g = on_pairs(4, [(2, 3), (0, 1)])
        assert ranked_pairs(g, s, Ordering.PRODUCT, 2, False) == [(0, 1), (2, 3)]
        # the same tie among missing pairs: (0, 1) and (2, 3) are all that is left
        rest = on_pairs(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
        assert ranked_pairs(rest, s, Ordering.PRODUCT, 2, True) == [(0, 1), (2, 3)]

    def test_minmax_breaks_on_max_after_min_tie(self):
        s = np.array([0.1, 0.8, 0.1, 0.3])
        s = s / np.linalg.norm(s)
        # min ties at 0.1; (0,1) has larger max than (2,3), and (1,2) larger
        # than (0,3) even though (0,3) comes first by index
        assert ranked_pairs(on_pairs(4, [(2, 3), (0, 1)]), s, Ordering.MINMAX, 2, False) == [
            (0, 1), (2, 3)
        ]
        assert ranked_pairs(on_pairs(4, [(0, 3), (1, 2)]), s, Ordering.MINMAX, 2, False) == [
            (1, 2), (0, 3)
        ]

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=4, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_total_preorder(self, raw):
        raw = np.asarray(raw) + 1e-3
        scores = raw / np.linalg.norm(raw)
        n = len(scores)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        full, empty = complete(n), on_pairs(n, [])
        for ordering in Ordering:
            ranked = ranked_pairs(full, scores, ordering, len(pairs), False)
            assert sorted(ranked) == pairs
            # keys descending, equal keys in index order
            for a, b in zip(ranked, ranked[1:]):
                ka, kb = pair_key(scores, ordering, a), pair_key(scores, ordering, b)
                assert ka > kb or (ka == kb and a < b)
            # a shorter list, which sorts only its head, is a prefix of the full
            # one; so is the missing-pair pool of the edgeless graph
            for count in range(len(pairs) + 1):
                assert ranked_pairs(full, scores, ordering, count, False) == ranked[:count]
                assert ranked_pairs(empty, scores, ordering, count, True) == ranked[:count]


class TestSelection:
    def test_top_edges_deterministic_ties(self):
        g = on_pairs(4, [(2, 3), (0, 1), (1, 3)])
        assert ranked_pairs(g, np.full(4, 0.5), Ordering.PRODUCT, 2, False) == [(0, 1), (1, 3)]

    @pytest.mark.parametrize("ordering", list(Ordering))
    @pytest.mark.parametrize("shape", ["star", "cycle"])
    def test_top_edges_many_ties_at_the_cut(self, shape, ordering):
        # star scores: the 11 hub pairs tie, and so do the 55 leaf pairs;
        # cycle scores: all 66 pairs tie; so most cuts fall inside a tie
        n = 12
        s = np.full(n, 1.0)
        if shape == "star":
            s[0] = 3.0
        s = s / np.linalg.norm(s)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        want = sorted_top(pairs, s, ordering, len(pairs))
        full, empty = complete(n), on_pairs(n, [])
        for count in range(len(pairs) + 2):
            assert ranked_pairs(full, s, ordering, count, False) == want[:count]
            assert ranked_pairs(empty, s, ordering, count, True) == want[:count]

    def test_complete_graph_product_order(self):
        s = np.array([0.9, 0.5, 0.4, 0.1])
        s = s / np.linalg.norm(s)
        assert ranked_pairs(complete(4), s, Ordering.PRODUCT, 2, False) == [(0, 1), (0, 2)]

    @pytest.mark.parametrize("ordering", list(Ordering))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_top_missing_matches_brute_force(self, ordering, seed):
        g = random_connected_graph(30, 40, seed=seed)
        scores = eigenvector_centrality(g)
        for count in (1, 5, 20):
            got = ranked_pairs(g, scores, ordering, count, True)
            assert got == sorted_top(missing_pairs(g), scores, ordering, count)

    def test_top_missing_with_score_plateau(self):
        # disconnected star forces zero scores on the far component
        g = SparseSymGraph(7, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (4, 5, 1.0)])
        scores = eigenvector_centrality(g)
        got = ranked_pairs(g, scores, Ordering.MINMAX, 4, True)
        assert got == sorted_top(missing_pairs(g), scores, Ordering.MINMAX, 4)

    def test_edgeless_graph(self):
        # no edge to rank or to skip: uniform scores leave the missing pool in
        # index order, and AD_3 (d = 0) is empty
        g = on_pairs(6, [])
        scores = eigenvector_centrality(g)
        pairs = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        for ordering in Ordering:
            assert ranked_pairs(g, scores, ordering, 5, False) == []
            assert ranked_pairs(g, scores, ordering, 20, True) == pairs
        assert select_search_space(g, Strategy.AD_3, set()) == []


def lexsort_reference(scores, ordering, lo, hi):
    """All pairs (lo[k], hi[k]) ranked by one full lexsort: key descending, then (lo, hi)."""
    a, b = scores[lo], scores[hi]
    if ordering is Ordering.PRODUCT:
        keys = [-(a * b)]
    else:
        keys = [-np.maximum(a, b), -np.minimum(a, b)]  # lexsort's primary key is last
    order = np.lexsort([hi, lo] + keys)
    return list(zip(lo[order].tolist(), hi[order].tolist()))


class TestRankedPairsAtScale:
    @pytest.fixture(scope="class")
    def tree(self):
        return random_connected_graph(20000, 80000, seed=41)

    @pytest.fixture(scope="class")
    def hubs(self):
        # a BA graph whose best node is joined to the next 499: under the
        # product ordering the best missing pairs join it to nodes past those
        # 499, so certifying a selection doubles q' twice, from about 145
        g = barabasi_albert(2000, 5, seed=42)
        top = np.argsort(-eigenvector_centrality(g), kind="stable")[:500].tolist()
        spokes = [(top[0], x, 1.0) for x in top[1:] if not g.has_edge(top[0], x)]
        return SparseSymGraph(g.n, list(g.edges) + spokes)

    @pytest.mark.parametrize("ordering", list(Ordering))
    def test_tree_edges_match_full_lexsort(self, tree, ordering):
        scores = eigenvector_centrality(tree)
        lo, hi, _ = tree.edge_arrays
        want = lexsort_reference(scores, ordering, lo, hi)
        for count in (1, 15, 100, 400):
            assert ranked_pairs(tree, scores, ordering, count, False) == want[:count]

    @pytest.mark.parametrize("ordering", list(Ordering))
    def test_ba_missing_pairs_match_full_lexsort(self, hubs, ordering):
        # the reference ranks every missing pair of the graph
        scores = eigenvector_centrality(hubs)
        lo, hi = np.triu_indices(hubs.n, 1)
        new = oracles.dense_adjacency(hubs)[lo, hi] == 0
        want = lexsort_reference(scores, ordering, lo[new], hi[new])
        for count in (1, 15, 100):
            assert ranked_pairs(hubs, scores, ordering, count, True) == want[:count]


class TestSearchSpaces:
    def test_dg_full_set_difference(self):
        g = triangle()
        assert select_search_space(g, Strategy.DG_FULL, {(0, 1)}) == [(0, 2), (1, 2)]

    def test_star_ad3_leaf_pairs(self):
        g = star(4)
        got = select_search_space(g, Strategy.AD_3, set())
        # d = 4, V_d = center plus the three lowest-index leaves (degree ties
        # break on node index); their missing pairs are the leaf-leaf ones
        assert got == [(1, 2), (1, 3), (2, 3)]

    @pytest.mark.parametrize(
        "graph", [barabasi_albert(80, 3, seed=2), star(6)], ids=["barabasi-albert", "star"]
    )
    def test_ad3_matches_brute_force(self, graph):
        # the missing pairs among the d nodes first by (-degree, index), d the
        # maximum degree, in (min, max) order; checked again after a step
        def brute_force(g, chosen):
            deg = g.degrees()
            top = sorted(sorted(range(g.n), key=lambda v: (-deg[v], v))[: int(deg.max())])
            return [
                (a, b) for a in top for b in top
                if a < b and not g.has_edge(a, b) and (a, b) not in chosen
            ]

        want = brute_force(graph, set())
        assert len(want) > 1
        assert select_search_space(graph, Strategy.AD_3, set()) == want
        pick = want[len(want) // 2]
        work = graph.with_edge_delta(*pick, 1.0)
        assert select_search_space(work, Strategy.AD_3, {pick}) == brute_force(work, {pick})

    def test_path3_dg2_tie_breaks_to_first_edge(self):
        g = path(3)
        scores = eigenvector_centrality(g, tol=1e-12)
        ranked = ranked_pairs(g, scores, Ordering.MINMAX, 1, False)
        assert select_search_space(g, Strategy.DG_2, set(), ranked) == [(0, 1)]

    def test_ranked_strategies_need_ranking(self):
        with pytest.raises(ValueError):
            select_search_space(path(3), Strategy.DG_1, set())

    def test_exhaustion_returns_empty(self):
        g = triangle()  # complete on 3 nodes
        assert select_search_space(g, Strategy.AD_3, set()) == []

    def test_dg_ranked_uses_initial_edges(self):
        # after removing the top edge, it must not reappear, and the window grows
        g = random_connected_graph(12, 10, seed=3)
        ranked = ranked_pairs(g, eigenvector_centrality(g), Ordering.PRODUCT, 5, False)
        first = select_search_space(g, Strategy.DG_1, set(), ranked[:4])
        assert len(first) == 4
        pick = first[0]
        g2 = g.with_edge_delta(pick[0], pick[1], -1.0)
        second = select_search_space(g2, Strategy.DG_1, {pick}, ranked[:5])
        assert len(second) == 4
        assert pick not in second
        # ranked top-(q+1) of the initial edge set minus the pick
        want = [p for p in ranked if p != pick]
        assert second == want

    @pytest.mark.parametrize("strategy", list(Strategy))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_search_space_invariants(self, strategy, seed):
        g = random_connected_graph(20, 25, seed=seed)
        q = 6
        ranked = None
        if strategy.implied_ordering is not None:
            scores = eigenvector_centrality(g)
            missing = not strategy.is_removal
            ranked = ranked_pairs(g, scores, strategy.implied_ordering, q + 2, missing)
        edge_set = g.edge_set()
        work = g
        chosen = set()
        for step in range(3):
            top = None if ranked is None else ranked[: q + step]
            space = select_search_space(work, strategy, chosen, top)
            if strategy is not Strategy.DG_FULL and strategy is not Strategy.AD_3:
                assert len(space) <= q + step
            assert not (set(space) & chosen)
            if strategy.is_removal:
                assert set(space) <= edge_set
            else:
                assert not (set(space) & edge_set)
            if not space:
                break
            pick = space[0]
            delta = -1.0 if strategy.is_removal else 1.0
            work = work.with_edge_delta(pick[0], pick[1], delta)
            chosen.add(pick)


RANKED = [Strategy.DG_1, Strategy.DG_2, Strategy.AD_1, Strategy.AD_2]


@pytest.mark.parametrize("strategy", RANKED)
@pytest.mark.parametrize(
    "graph",
    [star(5), cycle(7), path(6), random_connected_graph(25, 30, seed=35)],
    ids=["star", "cycle", "path", "random"],
)
def test_ranked_selection_matches_sorted_order(strategy, graph):
    scores = eigenvector_centrality(graph, tol=1e-12)
    initial = graph.edge_set()
    pool = initial if strategy.is_removal else missing_pairs(graph)
    q, steps = 4, 3
    missing = not strategy.is_removal
    ranked = ranked_pairs(graph, scores, strategy.implied_ordering, q + steps - 1, missing)
    work, chosen = graph, set()
    for step in range(steps):
        want = [p for p in sorted_top(pool, scores, strategy.implied_ordering, q + step) if p not in chosen]
        assert select_search_space(work, strategy, chosen, ranked[: q + step]) == want
        if not want:
            break
        pick = want[-1]
        work = work.with_edge_delta(*pick, -1.0 if strategy.is_removal else 1.0)
        chosen.add(pick)
