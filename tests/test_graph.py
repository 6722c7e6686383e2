import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fconn.errors import ConvergenceError, InputFormatError, ValidationError
from fconn.graph import (
    CentralityRanking,
    Comparison,
    Ordering,
    SearchSpaceState,
    SparseSymGraph,
    Strategy,
    compare_edges,
    eigenvector_centrality,
    load_graph,
    normalize_pair,
    ranked_candidates,
    save_graph,
    select_search_space,
    top_edges,
    top_missing_pairs,
)

from conftest import cycle, missing_pairs, path, random_connected_graph, star, triangle


class TestGraphConstruction:
    def test_triangle(self):
        g = triangle()
        assert g.n == 3 and g.num_edges == 3
        A = g.adjacency.toarray()
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
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got.adjacency, name), getattr(rebuilt.adjacency, name))
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
        assert np.array_equal(g.adjacency.toarray(), rebuilt.adjacency.toarray())

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


class TestFileIO:
    def test_load_edge_list_triangle(self, tmp_path):
        p = tmp_path / "tri.edges"
        p.write_text("% comment\n1 2\n2 3\n1 3\n")
        g = load_graph(p)
        assert g.n == 3 and g.num_edges == 3
        assert all(w == 1.0 for _, _, w in g.edges)

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


class TestEigenvectorCentrality:
    def test_triangle_uniform(self):
        x = eigenvector_centrality(triangle())
        assert np.allclose(x, 1.0 / np.sqrt(3.0), atol=1e-10)

    def test_star_closed_form(self):
        # dominant eigenvector of K_{1,4} from the dense eigendecomposition
        g = star(4)
        x = eigenvector_centrality(g, tol=1e-12)
        w, V = np.linalg.eigh(g.adjacency.toarray())
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
        A = g.adjacency
        lam = float(x @ (A @ x))
        assert np.linalg.norm(A @ x - lam * x) <= tol * lam
        assert np.all(x >= 0)
        assert abs(np.linalg.norm(x) - 1.0) <= 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_matches_dense_dominant_eigenvector(self, seed):
        n = int(np.random.default_rng(seed).integers(20, 200))
        g = random_connected_graph(n, 2 * n, seed=seed, weighted=seed % 2 == 0)
        x = eigenvector_centrality(g, tol=1e-10)
        w, V = np.linalg.eigh(g.adjacency.toarray())
        v = V[:, np.argmax(w)]
        angle = np.arccos(min(1.0, abs(float(x @ v))))
        assert angle < 1e-6

    def test_nonconvergence_raises(self):
        with pytest.raises(ConvergenceError):
            eigenvector_centrality(path(3), tol=1e-12, max_iter=2)

    def test_invalid_tol(self):
        with pytest.raises(ValueError):
            eigenvector_centrality(triangle(), tol=0.0)


class TestCompareEdges:
    SCORES = np.array([0.9, 0.5, 0.4, 0.1])

    def _ranking(self, ordering):
        s = self.SCORES / np.linalg.norm(self.SCORES)
        return CentralityRanking(s, ordering)

    def test_product_ordering(self):
        r = self._ranking(Ordering.PRODUCT)
        assert compare_edges((0, 3), (1, 2), r) is Comparison.LESS

    def test_minmax_ordering(self):
        r = self._ranking(Ordering.MINMAX)
        assert compare_edges((0, 3), (1, 2), r) is Comparison.LESS

    def test_degenerate_tie(self):
        s = np.full(4, 0.5)
        r = CentralityRanking(s, Ordering.PRODUCT)
        assert compare_edges((0, 1), (2, 3), r) is Comparison.EQUAL

    def test_minmax_breaks_on_max_after_min_tie(self):
        s = np.array([0.1, 0.8, 0.1, 0.3])
        r = CentralityRanking(s / np.linalg.norm(s), Ordering.MINMAX)
        # min ties at 0.1; (0,1) has larger max than (2,3)
        assert compare_edges((0, 1), (2, 3), r) is Comparison.GREATER

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=4, max_size=8),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_total_preorder(self, raw, data):
        raw = np.asarray(raw) + 1e-3
        scores = raw / np.linalg.norm(raw)
        n = len(scores)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        e1 = data.draw(st.sampled_from(pairs))
        e2 = data.draw(st.sampled_from(pairs))
        e3 = data.draw(st.sampled_from(pairs))
        for ordering in Ordering:
            r = CentralityRanking(scores, ordering)
            c12 = compare_edges(e1, e2, r)
            c21 = compare_edges(e2, e1, r)
            assert c12 is Comparison(-c21)  # antisymmetric, hence total
            # transitivity of (non-strict) order on keys
            if c12 is not Comparison.GREATER and compare_edges(e2, e3, r) is not Comparison.GREATER:
                assert compare_edges(e1, e3, r) is not Comparison.GREATER

    def test_score_validation(self):
        with pytest.raises(ValidationError):
            CentralityRanking(np.array([0.5, -0.5]), Ordering.PRODUCT)
        with pytest.raises(ValidationError):
            CentralityRanking(np.array([0.5, 0.5]), Ordering.PRODUCT)


def brute_force_top_missing(g, ranking, count):
    return sorted(
        missing_pairs(g),
        key=lambda p: tuple(-c for c in ranking.key(p)) + p,
    )[:count]


class TestSelection:
    def test_top_edges_deterministic_ties(self):
        s = np.full(4, 0.5)
        r = CentralityRanking(s, Ordering.PRODUCT)
        pairs = [(2, 3), (0, 1), (1, 3)]
        assert top_edges(pairs, r, 2) == [(0, 1), (1, 3)]

    def test_complete_graph_product_order(self):
        s = np.array([0.9, 0.5, 0.4, 0.1])
        r = CentralityRanking(s / np.linalg.norm(s), Ordering.PRODUCT)
        pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        assert top_edges(pairs, r, 2) == [(0, 1), (0, 2)]

    @pytest.mark.parametrize("ordering", list(Ordering))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_top_missing_matches_brute_force(self, ordering, seed):
        g = random_connected_graph(30, 40, seed=seed)
        r = CentralityRanking.from_graph(g, ordering)
        for count in (1, 5, 20):
            got = top_missing_pairs(g.n, r, count, g.edge_set())
            want = brute_force_top_missing(g, r, count)
            assert got == want

    def test_top_missing_with_score_plateau(self):
        # disconnected star forces zero scores on the far component
        g = SparseSymGraph(7, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (4, 5, 1.0)])
        r = CentralityRanking.from_graph(g, Ordering.MINMAX)
        got = top_missing_pairs(g.n, r, 4, g.edge_set())
        want = brute_force_top_missing(g, r, 4)
        assert got == want


class TestSearchSpaces:
    def test_dg_full_set_difference(self):
        g = triangle()
        state = SearchSpaceState(Strategy.DG_FULL, q=5, chosen=frozenset({(0, 1)}), step=1)
        assert select_search_space(g, state) == [(0, 2), (1, 2)]

    def test_star_ad3_leaf_pairs(self):
        g = star(4)
        state = SearchSpaceState(Strategy.AD_3, q=5)
        got = select_search_space(g, state)
        # d = 4, V_d = center plus the three lowest-index leaves (degree ties
        # break on node index); their missing pairs are the leaf-leaf ones
        assert got == [(1, 2), (1, 3), (2, 3)]

    def test_path3_dg2_tie_breaks_to_first_edge(self):
        g = path(3)
        r = CentralityRanking.from_graph(g, Ordering.MINMAX, tol=1e-12)
        state = SearchSpaceState(Strategy.DG_2, q=1)
        assert select_search_space(g, state, r) == [(0, 1)]

    def test_ranked_strategies_need_ranking(self):
        with pytest.raises(ValueError):
            select_search_space(path(3), SearchSpaceState(Strategy.DG_1, q=1))

    def test_exhaustion_returns_empty(self):
        g = triangle()  # complete on 3 nodes
        state = SearchSpaceState(Strategy.AD_3, q=5)
        assert select_search_space(g, state) == []

    def test_dg_ranked_uses_initial_edges(self):
        # after removing the top edge, it must not reappear, and the window grows
        g = random_connected_graph(12, 10, seed=3)
        r = CentralityRanking.from_graph(g, Ordering.PRODUCT)
        state0 = SearchSpaceState(Strategy.DG_1, q=4)
        first = select_search_space(g, state0, r)
        assert len(first) == 4
        pick = first[0]
        g2 = g.with_edge_delta(pick[0], pick[1], -1.0)
        state1 = SearchSpaceState(Strategy.DG_1, q=4, chosen=frozenset({pick}), step=1)
        second = select_search_space(g2, state1, r)
        assert len(second) == 4
        assert pick not in second
        # ranked top-(q+1) of the initial edge set minus the pick
        want = [p for p in top_edges(g.edge_pairs, r, 5) if p != pick]
        assert second == want

    @pytest.mark.parametrize("strategy", list(Strategy))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_search_space_invariants(self, strategy, seed):
        g = random_connected_graph(20, 25, seed=seed)
        ranking = CentralityRanking.from_graph(
            g, strategy.implied_ordering or Ordering.PRODUCT
        )
        edge_set = g.edge_set()
        work = g
        chosen = set()
        q = 6
        for step in range(3):
            state = SearchSpaceState(strategy, q, frozenset(chosen), step)
            space = select_search_space(work, state, ranking)
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


def sorted_top(pairs, ranking, count):
    """Ranking by a key-sorted list: key descending, ties by (min index, max index)."""
    return sorted(
        (normalize_pair(*p) for p in pairs),
        key=lambda p: tuple(-c for c in ranking.key(p)) + p,
    )[:count]


RANKED = [Strategy.DG_1, Strategy.DG_2, Strategy.AD_1, Strategy.AD_2]


@pytest.mark.parametrize("strategy", RANKED)
@pytest.mark.parametrize(
    "graph",
    [star(5), cycle(7), path(6), random_connected_graph(25, 30, seed=35)],
    ids=["star", "cycle", "path", "random"],
)
def test_ranked_selection_matches_sorted_order(strategy, graph):
    ranking = CentralityRanking.from_graph(graph, strategy.implied_ordering, tol=1e-12)
    initial = graph.edge_set()
    pool = initial if strategy.is_removal else missing_pairs(graph)
    q, steps = 4, 3
    edges = np.array(sorted(initial))
    ranked = tuple(ranked_candidates(graph.n, edges, strategy, ranking, q + steps - 1))
    work, chosen = graph, set()
    for step in range(steps):
        want = [p for p in sorted_top(pool, ranking, q + step) if p not in chosen]
        state = SearchSpaceState(strategy, q, frozenset(chosen), step)
        assert select_search_space(work, state, ranking) == want
        fixed = SearchSpaceState(strategy, q, frozenset(chosen), step, ranked)
        assert select_search_space(work, fixed, None) == want
        if not want:
            break
        pick = want[-1]
        work = work.with_edge_delta(*pick, -1.0 if strategy.is_removal else 1.0)
        chosen.add(pick)
