"""Acceptance gate: twelve end-to-end criteria, one pass/fail line each.

Every criterion runs the full-scale workload (no reduced ranges) and checks
both correctness and its wall-clock budget.  The suite reports come from the
session fixture `suite_report` (tests/conftest.py), which runs each suite
once per session at --seed 0; the stdout digests in test_cli hash the same
reports.
"""

import time
from fractions import Fraction

import pytest

from regcycle.actions import KSetsAction, orbit_lengths
from regcycle.groups import symmetric_group
from regcycle.permcore import CycleType, canonical_permutation
from regcycle.regular import decide, wreath_fpr_max
from regcycle.verify import RunConfig

pytestmark = pytest.mark.slow

CONFIG = RunConfig()


def report_line(number: int, ok: bool, detail: str) -> None:
    state = "PASS" if ok else "FAIL"
    print(f"criterion {number:2d}: {state} - {detail}")


def lines_by_prefix(report, prefix):
    picked = [ln for ln in report.lines if ln.name.startswith(prefix)]
    assert picked, f"no suite lines match prefix {prefix!r}"
    return picked


def test_criterion_01_pair_sets_orbit_profile():
    t0 = time.perf_counter()
    g = canonical_permutation(CycleType.of((5, 3, 2)))
    action = KSetsAction(10, 2)
    lens = sorted(orbit_lengths(action.induced_images(g)))
    verdict = decide(action, g, domain_cap=CONFIG.domain_cap)
    elapsed = time.perf_counter() - t0
    ok = (
        lens == [1, 3, 5, 5, 6, 10, 15]
        and verdict.has_regular_cycle is False
        and g.order() == 30
        and elapsed < 1.0
    )
    report_line(1, ok, f"orbits {lens}, no length-30 orbit, {elapsed:.2f}s")
    assert ok, (lens, verdict, elapsed)


def test_criterion_02_small_k_thresholds(suite_report):
    ksets_report = suite_report("ksets")
    picked = lines_by_prefix(ksets_report, "threshold_law_k")
    ok = (
        len(picked) == 3
        and all(ln.ok for ln in picked)
        and ksets_report.elapsed < 60.0
    )
    detail = "; ".join(ln.detail for ln in picked)
    report_line(2, ok, f"{detail}, {ksets_report.elapsed:.1f}s")
    assert ok, picked


def test_criterion_03_kset_rule_vs_bruteforce(suite_report):
    ksets_report = suite_report("ksets")
    picked = lines_by_prefix(ksets_report, "combinatorial_vs_bruteforce_m")
    ok = (
        len(picked) == 12
        and all(ln.ok for ln in picked)
        and ksets_report.elapsed < 300.0
    )
    report_line(
        3, ok,
        f"agreement through degree 13, {ksets_report.elapsed:.1f}s",
    )
    assert ok, [ln for ln in picked if not ln.ok]


def test_criterion_04_partition_witnesses(suite_report):
    partitions_report = suite_report("partitions")
    names = [ln.name for ln in partitions_report.lines]
    ok = (
        partitions_report.all_ok
        and "shape_2x2_exception" in names
        and partitions_report.elapsed < 600.0
    )
    report_line(
        4, ok,
        f"{len(names)} blocks incl. 2x2 exception, "
        f"{partitions_report.elapsed:.1f}s",
    )
    assert ok, partitions_report.failures


def test_criterion_05_wreath_product_witnesses(suite_report):
    product_report = suite_report("product")
    ok = (
        product_report.all_ok
        and len(product_report.lines) == 3
        and product_report.elapsed < 300.0
    )
    detail = "; ".join(ln.detail for ln in product_report.lines)
    report_line(5, ok, f"{detail}, {product_report.elapsed:.1f}s")
    assert ok, product_report.failures


def test_criterion_06_linear_and_affine(suite_report):
    gl_report = suite_report("gl")
    affine_report = suite_report("affine")
    total = gl_report.elapsed + affine_report.elapsed
    ok = (
        gl_report.all_ok
        and affine_report.all_ok
        and len(gl_report.lines) == 14
        and len(affine_report.lines) == 14
        and total < 600.0
    )
    report_line(
        6, ok,
        f"{len(gl_report.lines)} linear + {len(affine_report.lines)} affine "
        f"cases, {total:.1f}s",
    )
    assert ok, gl_report.failures + affine_report.failures


def test_criterion_07_diagonal_action(suite_report):
    diagonal_report = suite_report("diagonal")
    names = {ln.name for ln in diagonal_report.lines}
    audit = next(
        ln for ln in diagonal_report.lines if ln.name == "fpr_bounds_copies1"
    )
    ok = (
        diagonal_report.all_ok
        and {"full_group_copies1", "realized_group_copies1",
             "sampled_copies2", "fpr_bounds_copies2"} <= names
        and "4/15" in audit.detail
        and diagonal_report.elapsed < 600.0
    )
    report_line(
        7, ok,
        f"14400 elements regular, involution rate 4/15, "
        f"{diagonal_report.elapsed:.1f}s",
    )
    assert ok, diagonal_report.failures


def test_criterion_08_degree_six_coset_exception(suite_report):
    s6_report = suite_report("s6-exception")
    ok = (
        s6_report.all_ok
        and len(s6_report.lines) == 3
        and s6_report.elapsed < 60.0
    )
    detail = "; ".join(ln.detail for ln in s6_report.lines)
    report_line(8, ok, f"{detail}, {s6_report.elapsed:.1f}s")
    assert ok, s6_report.failures


def test_criterion_09_degree_ten_family_actions(suite_report):
    a6_report = suite_report("remark-a6")
    names = [ln.name for ln in a6_report.lines]
    ok = (
        a6_report.all_ok
        and names == ["pgl2_9", "m10", "pgammal2_9"]
        and a6_report.elapsed < 300.0
    )
    report_line(
        9, ok,
        f"all elements regular on degrees 10/36/45, "
        f"{a6_report.elapsed:.1f}s",
    )
    assert ok, a6_report.failures


def test_criterion_10_wreath_fixed_ratio_maxima():
    t0 = time.perf_counter()
    values = {
        (n, c): wreath_fpr_max(symmetric_group(n), symmetric_group(c))
        for n, c in ((3, 2), (4, 2), (3, 3))
    }
    elapsed = time.perf_counter() - t0
    expected = {
        (3, 2): Fraction(1, 3),
        (4, 2): Fraction(1, 2),
        (3, 3): Fraction(1, 3),
    }
    ok = values == expected and elapsed < 60.0
    report_line(
        10, ok,
        f"maxima 1/3, 1/2, 1/3 exact, {elapsed:.2f}s",
    )
    assert ok, values


def test_criterion_11_analytic_bounds(suite_report):
    bounds_report = suite_report("bounds-all")
    ok = (
        bounds_report.all_ok
        and len(bounds_report.lines) == 7
        and bounds_report.elapsed < 300.0
    )
    report_line(
        11, ok,
        f"7 bound families at margin 1e-9, {bounds_report.elapsed:.1f}s",
    )
    assert ok, bounds_report.failures


def test_analytic_bounds_printed_details(suite_report):
    bounds_report = suite_report("bounds-all")
    # The detail lines `verify --suite bounds-all` prints, digit for digit.
    assert [ln.detail for ln in bounds_report.lines] == [
        "1 checks, min gap 2.358",
        "197 checks, min gap 0.4179",
        "1000 checks, min gap 0.0005991",
        "5742 checks, min gap 0.09861",
        "9954 rows, product stays below 1",
        "11 diagonal profiles stay below 1",
        "198 checks, min gap 3782",
    ]


def test_criterion_12_decision_rules_agree(suite_report):
    identities_report = suite_report("lemma-identities")
    corpus = next(
        ln for ln in identities_report.lines
        if ln.name == "fix_union_vs_bruteforce_corpus"
    )
    ok = (
        identities_report.all_ok
        and "100000" in corpus.detail
        and identities_report.elapsed < 600.0
    )
    report_line(
        12, ok,
        f"{corpus.detail}, {identities_report.elapsed:.1f}s",
    )
    assert ok, identities_report.failures
