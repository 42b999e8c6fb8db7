"""Query evaluation: supported ≡ unsupported ≡ traversal oracle, page costs."""

import pytest

from repro.asr import ASRManager, Decomposition, Extension
from repro.errors import QueryError
from repro.gom.traversal import origins_reaching, reachable_terminals
from repro.query import BackwardQuery, ForwardQuery, QueryEvaluator


@pytest.fixture()
def chain(small_chain):
    manager = ASRManager(small_chain.db)
    evaluator = QueryEvaluator(small_chain.db, small_chain.store)
    return small_chain, manager, evaluator


def all_asrs(manager, path):
    decs = [
        Decomposition.binary(path.m),
        Decomposition.none(path.m),
        Decomposition.of(0, path.column_of(2), path.m),
    ]
    return [
        manager.create(path, extension, dec)
        for extension in Extension
        for dec in decs
    ]


class TestResultParity:
    def test_backward_full_span(self, chain):
        generated, manager, evaluator = chain
        path = generated.path
        asrs = all_asrs(manager, path)
        for target in generated.layers[path.n][:6]:
            query = BackwardQuery(path, 0, path.n, target=target)
            oracle = origins_reaching(generated.db, path, target)
            assert evaluator.evaluate_unsupported(query).cells == oracle
            for asr in asrs:
                assert evaluator.evaluate_supported(query, asr).cells == oracle, asr

    def test_forward_full_span(self, chain):
        generated, manager, evaluator = chain
        path = generated.path
        asrs = all_asrs(manager, path)
        for start in generated.layers[0][:6]:
            query = ForwardQuery(path, 0, path.n, start=start)
            oracle = reachable_terminals(generated.db, path, start)
            assert evaluator.evaluate_unsupported(query).cells == oracle
            for asr in asrs:
                assert evaluator.evaluate_supported(query, asr).cells == oracle, asr

    def test_partial_ranges_on_full_extension(self, chain):
        generated, manager, evaluator = chain
        path = generated.path
        full = manager.create(path, Extension.FULL, Decomposition.binary(path.m))
        for i, j in [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]:
            for start in generated.layers[i][:4]:
                query = ForwardQuery(path, i, j, start=start)
                oracle = reachable_terminals(generated.db, path, start, i, j)
                assert evaluator.evaluate_supported(query, full).cells == oracle
                assert evaluator.evaluate_unsupported(query).cells == oracle
            for target in generated.layers[j][:4]:
                query = BackwardQuery(path, i, j, target=target)
                oracle = origins_reaching(generated.db, path, target, i, j)
                assert evaluator.evaluate_supported(query, full).cells == oracle
                assert evaluator.evaluate_unsupported(query).cells == oracle

    def test_prefix_on_left_and_suffix_on_right(self, chain):
        generated, manager, evaluator = chain
        path = generated.path
        left = manager.create(path, Extension.LEFT, Decomposition.binary(path.m))
        right = manager.create(path, Extension.RIGHT, Decomposition.binary(path.m))
        start = generated.layers[0][0]
        query = ForwardQuery(path, 0, 2, start=start)
        oracle = reachable_terminals(generated.db, path, start, 0, 2)
        assert evaluator.evaluate_supported(query, left).cells == oracle
        target = generated.layers[path.n][0]
        query = BackwardQuery(path, 1, path.n, target=target)
        oracle = origins_reaching(generated.db, path, target, 1, path.n)
        assert evaluator.evaluate_supported(query, right).cells == oracle

    def test_evaluate_dispatch(self, chain):
        generated, manager, evaluator = chain
        path = generated.path
        can = manager.create(path, Extension.CANONICAL, Decomposition.binary(path.m))
        partial = BackwardQuery(path, 1, path.n, target=generated.layers[path.n][0])
        result = evaluator.evaluate(partial, can)  # falls back (Eq. 35)
        assert result.strategy == "unsupported"
        whole = BackwardQuery(path, 0, path.n, target=generated.layers[path.n][0])
        result = evaluator.evaluate(whole, can)
        assert result.strategy.startswith("asr:can")


class TestGuards:
    def test_unsupported_extension_rejected(self, chain):
        generated, manager, evaluator = chain
        path = generated.path
        can = manager.create(path, Extension.CANONICAL)
        query = BackwardQuery(path, 1, path.n, target=generated.layers[path.n][0])
        with pytest.raises(QueryError, match="Eq. 35"):
            evaluator.evaluate_supported(query, can)

    def test_wrong_path_rejected(self, chain, company_world):
        generated, manager, evaluator = chain
        db2, other_path, o = company_world
        asr = manager.create(generated.path, Extension.FULL)
        query = BackwardQuery(other_path, 0, other_path.n, target="Door")
        with pytest.raises(QueryError, match="path"):
            evaluator.evaluate_supported(query, asr)

    def test_query_bounds_validated(self, chain):
        generated, _manager, _evaluator = chain
        path = generated.path
        with pytest.raises(QueryError):
            BackwardQuery(path, 2, 2, target="x")
        with pytest.raises(QueryError):
            ForwardQuery(path, -1, 2, start="x")
        with pytest.raises(QueryError):
            ForwardQuery(path, 0, path.n + 1, start="x")

    def test_missing_operands(self, chain):
        generated, _manager, _evaluator = chain
        path = generated.path
        with pytest.raises(QueryError):
            ForwardQuery(path, 0, 1)
        with pytest.raises(QueryError):
            BackwardQuery(path, 0, 1)

    def test_deleted_start_yields_empty(self, chain):
        generated, _manager, evaluator = chain
        path = generated.path
        victim = generated.layers[0][0]
        generated.db.delete(victim)
        query = ForwardQuery(path, 0, path.n, start=victim)
        assert evaluator.evaluate_unsupported(query).cells == set()


class TestPageCosts:
    def test_backward_scan_reads_extent_pages(self, chain):
        generated, _manager, evaluator = chain
        path = generated.path
        query = BackwardQuery(path, 0, path.n, target=generated.layers[path.n][0])
        result = evaluator.evaluate_unsupported(query)
        t0_pages = generated.store.pages_of_type("T0")
        assert result.page_reads >= t0_pages

    def test_supported_cheaper_than_unsupported_backward(self, chain):
        generated, manager, evaluator = chain
        path = generated.path
        asr = manager.create(path, Extension.FULL, Decomposition.binary(path.m))
        query = BackwardQuery(path, 0, path.n, target=generated.layers[path.n][0])
        supported = evaluator.evaluate_supported(query, asr)
        unsupported = evaluator.evaluate_unsupported(query)
        assert supported.page_reads < unsupported.page_reads

    def test_result_detail_categories(self, chain):
        generated, manager, evaluator = chain
        path = generated.path
        asr = manager.create(path, Extension.FULL, Decomposition.binary(path.m))
        query = BackwardQuery(path, 0, path.n, target=generated.layers[path.n][0])
        supported = evaluator.evaluate_supported(query, asr)
        assert any(key.startswith("btree") for key in supported.detail)
        unsupported = evaluator.evaluate_unsupported(query)
        assert "object" in unsupported.detail

    #: (i, j) -> total_pages of [unsupported fw, unsupported bw] then
    #: [supported fw, supported bw] per decomposition of ``all_asrs``,
    #: FULL extension — as charged before the traversal and backward
    #: stitch twins were folded (PR 17); the fold must not move a page.
    PINNED_PAGES = {
        (0, 3): [4, 9, 6, 1, 2, 2, 3, 1],
        (0, 2): [3, 5, 4, 1, 2, 4, 2, 2],
        (1, 3): [3, 8, 4, 1, 4, 2, 4, 1],
        (1, 2): [1, 4, 2, 1, 4, 4, 3, 2],
    }

    def test_page_totals_pinned(self, chain):
        generated, manager, evaluator = chain
        path = generated.path
        full = [asr for asr in all_asrs(manager, path) if asr.extension is Extension.FULL]
        for (i, j), pinned in self.PINNED_PAGES.items():
            forward = ForwardQuery(path, i, j, start=generated.layers[i][0])
            backward = BackwardQuery(path, i, j, target=generated.layers[j][0])
            pages = [
                evaluator.evaluate_unsupported(forward).total_pages,
                evaluator.evaluate_unsupported(backward).total_pages,
            ]
            for asr in full:
                pages.append(evaluator.evaluate_supported(forward, asr).total_pages)
                pages.append(evaluator.evaluate_supported(backward, asr).total_pages)
            assert pages == pinned, (i, j)

    def test_no_store_means_zero_pages(self, small_chain):
        evaluator = QueryEvaluator(small_chain.db)  # no store attached
        path = small_chain.path
        query = BackwardQuery(path, 0, path.n, target=small_chain.layers[path.n][0])
        result = evaluator.evaluate_unsupported(query)
        assert result.page_reads == 0
        assert result.cells == origins_reaching(
            small_chain.db, path, small_chain.layers[path.n][0]
        )
