"""Tests for the verification suites and scan helpers.

Suites run here at reduced scale; the full acceptance-scale runs live in
the acceptance test module.
"""

import pytest

from regcycle.actions import DiagonalAction
from regcycle.permcore import cycle_types
from regcycle.regular import DomainCapError, kset_decide
from regcycle.verify import (
    RunConfig,
    SUITES,
    ScanRow,
    SuiteLine,
    SuiteReport,
    ksets_oracle_price,
    run_suite,
    scan_ksets,
    scan_partitions,
)


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.domain_cap == 10**7
        assert cfg.seed == 0
        assert cfg.output == "json"

    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(domain_cap=0)
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


class TestRunner:
    def test_raising_check_fails_its_line_and_later_lines_run(self, monkeypatch):
        ran = []

        def demo(config, tag="x"):
            def ok():
                ran.append("ok")
                return f"fine {tag} seed {config.seed}"

            def broken():
                ran.append("broken")
                raise KeyError("lost")

            def after():
                ran.append("after")
                return "still ran"

            for name, check in (("first", ok), ("second", broken), ("third", after)):
                ran.append(f"yield {name}")
                yield name, check

        monkeypatch.setitem(SUITES, "demo", demo)
        rep = run_suite("demo", tag="y")
        # Each check runs before the suite yields the next one.
        assert ran == [
            "yield first", "ok", "yield second", "broken", "yield third", "after"
        ]
        assert rep.suite == "demo"
        assert rep.lines == (
            SuiteLine("first", True, "fine y seed 0"),
            SuiteLine("second", False, "KeyError: 'lost'"),
            SuiteLine("third", True, "still ran"),
        )
        assert rep.failures == (rep.lines[1],)


class TestSuiteKsets:
    def test_reduced_pass(self):
        rep = run_suite("ksets", RunConfig(), oracle_m_max=8, scan_m_max=10)
        assert rep.all_ok, rep.failures
        names = [line.name for line in rep.lines]
        assert "pair_sets_type_5_3_2" in names
        assert "threshold_law_k3" in names
        assert "combinatorial_vs_bruteforce_m8" in names
        assert names == [
            "pair_sets_type_5_3_2",
            "threshold_law_k1", "threshold_law_k2", "threshold_law_k3",
        ] + [f"combinatorial_vs_bruteforce_m{m}" for m in range(2, 9)]

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
            run_suite(
                "ksets", RunConfig(domain_cap=1000), oracle_m_max=8, scan_m_max=8
            )


class TestSuitePartitions:
    def test_reduced_pass(self):
        rep = run_suite(
            "partitions",
            RunConfig(),
            exhaustive=(6,),
            sampled=(10,),
            conjugates_per_type=3,
        )
        assert rep.all_ok, rep.failures
        names = [line.name for line in rep.lines]
        assert "exhaustive_2x3" in names
        assert "types_and_conjugates_2x5" in names
        assert "shape_2x2_exception" in names
        assert names == [
            "exhaustive_2x3", "exhaustive_3x2",
            "types_and_conjugates_2x5", "types_and_conjugates_5x2",
            "shape_2x2_exception",
        ]


class TestSuiteProduct:
    def test_single_case(self):
        rep = run_suite("product", RunConfig(), cases=((3, 2),))
        assert rep.all_ok, rep.failures
        assert "72" in rep.lines[0].detail
        assert [line.name for line in rep.lines] == ["wreath_sym3_copies2"]


class TestSuiteLinear:
    def test_gl(self):
        rep = run_suite("gl", RunConfig(), cases=((1, 7), (2, 3)))
        assert rep.all_ok, rep.failures
        assert [line.name for line in rep.lines] == ["gl_1_7", "gl_2_3"]

    def test_affine(self):
        rep = run_suite("affine", RunConfig(), cases=((1, 7), (2, 3)))
        assert rep.all_ok, rep.failures
        assert [line.name for line in rep.lines] == ["agl_1_7", "agl_2_3"]


class TestSuiteDiagonal:
    def test_reduced_pass(self):
        rep = run_suite("diagonal", RunConfig(), samples=200, realize=False)
        assert rep.all_ok, rep.failures
        names = [line.name for line in rep.lines]
        assert "full_group_copies1" in names
        assert "realized_group_copies1" not in names
        assert "fpr_bounds_copies1" in names
        assert names == [
            "full_group_copies1", "sampled_copies2",
            "fpr_bounds_copies1", "fpr_bounds_copies2",
        ]

    def test_seed_determinism(self):
        rep1 = run_suite("diagonal", RunConfig(seed=7), samples=100, realize=False)
        rep2 = run_suite("diagonal", RunConfig(seed=7), samples=100, realize=False)
        assert [l.detail for l in rep1.lines] == [l.detail for l in rep2.lines]

    def test_one_image_build_per_element_per_pass(self, monkeypatch):
        build = DiagonalAction.induced_images
        calls = []

        def counted(self, elem):
            calls.append(self.copies)
            return build(self, elem)

        monkeypatch.setattr(DiagonalAction, "induced_images", counted)
        rep = run_suite("diagonal", RunConfig(), samples=200, realize=False)
        assert rep.all_ok, rep.failures
        # The 14 400 elements of the one-coordinate group, then 200 samples
        # on two coordinates: each element's images are built once.
        assert len(calls) == 14_600
        assert calls.count(1) == 14_400 and calls.count(2) == 200


class TestSuiteCosets:
    def test_s6_exception(self):
        rep = run_suite("s6-exception", RunConfig())
        assert rep.all_ok, rep.failures
        assert len(rep.lines) == 3
        assert [line.name for line in rep.lines] == [
            "two_stabilizer_classes",
            "twisted_cosets_break_six_cycles",
            "natural_cosets_keep_six_cycles",
        ]

    def test_a6_family(self):
        rep = run_suite("remark-a6", RunConfig())
        assert rep.all_ok, rep.failures
        assert [line.name for line in rep.lines] == [
            "pgl2_9", "m10", "pgammal2_9",
        ]


class TestSuiteIdentities:
    def test_reduced_corpus(self):
        rep = run_suite("lemma-identities", RunConfig(), corpus_target=1500)
        assert rep.all_ok, rep.failures
        corpus_line = rep.lines[-1]
        assert corpus_line.name == "fix_union_vs_bruteforce_corpus"
        assert [line.name for line in rep.lines] == [
            "wreath_fpr_sym3_wr_sym2",
            "wreath_fpr_sym4_wr_sym2",
            "wreath_fpr_sym3_wr_sym3",
            "fix_union_vs_bruteforce_corpus",
        ]


class TestSuiteBounds:
    def test_reduced_pass(self):
        rep = run_suite("bounds-all", RunConfig(), full=False)
        assert rep.all_ok, rep.failures
        assert len(rep.lines) == 7
        assert [line.name for line in rep.lines] == [
            "divisor_sum_vs_loglog", "max_order_vs_sqrt_bound",
            "factorial_brackets", "prime_power_balance",
            "alpha_beta_product", "diagonal_crude", "e8_order_growth",
        ]


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

    def test_ksets_match_the_per_type_loop(self):
        def reference(m, k):
            # The per-type loop that scan_ksets ran before it read the
            # failing types of ksets_theorem_scan.
            kk = min(k, m - k)
            if kk < 1:
                raise ValueError(f"k={k} leaves no room at degree {m}")
            rows = []
            for ct in cycle_types(m):
                decision = kset_decide(ct, kk)
                if not decision.has_regular_cycle:
                    rows.append(
                        ScanRow(
                            parts=ct.parts,
                            order=ct.order,
                            covering_size=decision.min_cover_s,
                            note=f"needs {decision.min_cover_s} cycles, k={kk}",
                        )
                    )
            return rows

        for m in range(2, 25):
            for k in range(1, 5):
                if min(k, m - k) < 1:
                    with pytest.raises(ValueError):
                        scan_ksets(m, k)
                    continue
                assert scan_ksets(m, k) == reference(m, k), (m, k)

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
