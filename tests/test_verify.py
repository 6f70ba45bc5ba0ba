"""Tests for the verification suites and scan helpers.

Suites run here at reduced scale; the full acceptance-scale runs live in
the acceptance test module.
"""

import pytest

from regcycle.regular import DomainCapError
from regcycle.verify import (
    RunConfig,
    SUITES,
    SuiteLine,
    SuiteReport,
    ksets_oracle_price,
    run_suite,
    scan_ksets,
    scan_partitions,
    suite_a6_family,
    suite_affine,
    suite_bounds_all,
    suite_diagonal,
    suite_gl,
    suite_identity_checks,
    suite_ksets,
    suite_partitions,
    suite_product,
    suite_s6_exception,
)


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.domain_cap == 10**7
        assert cfg.group_cap == 5 * 10**6
        assert cfg.seed == 0
        assert cfg.output == "json"

    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(domain_cap=0)
        with pytest.raises(ValueError):
            RunConfig(group_cap=-1)
        with pytest.raises(ValueError):
            RunConfig(output="xml")


class TestReportShape:
    def test_all_ok_and_failures(self):
        good = SuiteLine("a", True, "fine")
        bad = SuiteLine("b", False, "broken")
        rep = SuiteReport("demo", (good, bad), 0.5)
        assert not rep.all_ok
        assert rep.failures == (bad,)
        assert "FAIL" in rep.summary()
        rep2 = SuiteReport("demo", (good,), 0.5)
        assert rep2.all_ok and "pass" in rep2.summary()

    def test_registry_names(self):
        assert set(SUITES) == {
            "ksets", "partitions", "product", "affine", "gl", "diagonal",
            "s6-exception", "remark-a6", "lemma-identities", "bounds-all",
        }

    def test_run_suite_rejects_unknown(self):
        with pytest.raises(ValueError):
            run_suite("nope")


class TestSuiteKsets:
    def test_reduced_pass(self):
        rep = suite_ksets(RunConfig(), oracle_m_max=8, scan_m_max=10)
        assert rep.all_ok, rep.failures
        names = [line.name for line in rep.lines]
        assert "pair_sets_type_5_3_2" in names
        assert "threshold_law_k3" in names
        assert "combinatorial_vs_bruteforce_m8" in names

    def test_oracle_prices(self):
        assert [ksets_oracle_price(m) for m in (2, 13, 16, 17)] == [
            2 * 2, 413_595, 9_055_662, 19_463_895
        ]

    def test_priced_before_any_line_runs(self, monkeypatch):
        import regcycle.verify as verify

        def never(*args):
            raise AssertionError("no line may run past the cap")

        monkeypatch.setattr(verify, "_checked", never)
        with pytest.raises(DomainCapError, match="m=8 has 3564 points, cap is 1000"):
            suite_ksets(RunConfig(domain_cap=1000), oracle_m_max=8, scan_m_max=8)


class TestSuitePartitions:
    def test_reduced_pass(self):
        rep = suite_partitions(
            RunConfig(), exhaustive=(6,), sampled=(10,), conjugates_per_type=3
        )
        assert rep.all_ok, rep.failures
        names = [line.name for line in rep.lines]
        assert "exhaustive_2x3" in names
        assert "types_and_conjugates_2x5" in names
        assert "shape_2x2_exception" in names


class TestSuiteProduct:
    def test_single_case(self):
        rep = suite_product(RunConfig(), cases=((3, 2),))
        assert rep.all_ok, rep.failures
        assert "72" in rep.lines[0].detail


class TestSuiteLinear:
    def test_gl(self):
        rep = suite_gl(RunConfig(), cases=((1, 7), (2, 3)))
        assert rep.all_ok, rep.failures

    def test_affine(self):
        rep = suite_affine(RunConfig(), cases=((1, 7), (2, 3)))
        assert rep.all_ok, rep.failures


class TestSuiteDiagonal:
    def test_reduced_pass(self):
        rep = suite_diagonal(RunConfig(), samples=200, realize=False)
        assert rep.all_ok, rep.failures
        names = [line.name for line in rep.lines]
        assert "full_group_copies1" in names
        assert "realized_group_copies1" not in names
        assert "fpr_bounds_copies1" in names

    def test_seed_determinism(self):
        rep1 = suite_diagonal(RunConfig(seed=7), samples=100, realize=False)
        rep2 = suite_diagonal(RunConfig(seed=7), samples=100, realize=False)
        assert [l.detail for l in rep1.lines] == [l.detail for l in rep2.lines]


class TestSuiteCosets:
    def test_s6_exception(self):
        rep = suite_s6_exception(RunConfig())
        assert rep.all_ok, rep.failures
        assert len(rep.lines) == 3

    def test_a6_family(self):
        rep = suite_a6_family(RunConfig())
        assert rep.all_ok, rep.failures
        assert [line.name for line in rep.lines] == [
            "pgl2_9", "m10", "pgammal2_9",
        ]


class TestSuiteIdentities:
    def test_reduced_corpus(self):
        rep = suite_identity_checks(RunConfig(), corpus_target=1500)
        assert rep.all_ok, rep.failures
        corpus_line = rep.lines[-1]
        assert corpus_line.name == "fix_union_vs_bruteforce_corpus"


class TestSuiteBounds:
    def test_reduced_pass(self):
        rep = suite_bounds_all(RunConfig(), full=False)
        assert rep.all_ok, rep.failures
        assert len(rep.lines) == 7


class TestScans:
    def test_ksets_known_rows(self):
        rows = scan_ksets(10, 2)
        assert len(rows) == 1
        assert rows[0].parts == (5, 3, 2)
        assert rows[0].order == 30
        assert rows[0].covering_size == 3

    def test_ksets_threshold_edges(self):
        assert scan_ksets(16, 3) == []
        rows = scan_ksets(17, 3)
        assert rows and rows[0].parts == (7, 5, 3, 2)

    def test_ksets_complement(self):
        assert [r.parts for r in scan_ksets(10, 8)] == [
            r.parts for r in scan_ksets(10, 2)
        ]
        with pytest.raises(ValueError):
            scan_ksets(10, 10)

    def test_ksets_reverse_lex_order(self):
        rows = scan_ksets(12, 2)
        parts = [r.parts for r in rows]
        assert parts == sorted(parts, reverse=True)

    def test_partitions_rows(self):
        assert scan_partitions(2, 3) == []
        rows = scan_partitions(2, 2)
        assert [(r.parts, r.note) for r in rows] == [
            ((4,), "max orbit 2"),
            ((2, 2), "max orbit 1"),
        ]

    def test_partitions_validation(self):
        with pytest.raises(ValueError):
            scan_partitions(1, 6)
        with pytest.raises(ValueError):
            scan_partitions(4, 4)
