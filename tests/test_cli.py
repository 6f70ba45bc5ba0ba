"""End-to-end tests of the command-line interface, via subprocess, and of
the README's decide examples through cli.main."""

import contextlib
import hashlib
import io
import json
import random
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from regcycle import cli

ROOT = Path(__file__).resolve().parent.parent


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "regcycle", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


class TestDecide:
    def test_pair_sets_example(self):
        proc = run_cli(
            "decide", "--group", "sym:10",
            "--element", "(1 2)(3 4 5)(6 7 8 9 10)",
            "--action", "ksets:2",
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert list(payload) == [
            "schema", "element", "order", "induced_order", "action",
            "verdict", "witness", "method", "certified", "flags",
        ]
        assert payload["schema"] == 1
        assert payload["order"] == 30
        assert payload["verdict"] is False
        assert payload["witness"] is None
        assert payload["certified"] is True

    def test_twisted_coset_example(self):
        proc = run_cli(
            "decide", "--group", "sym:6",
            "--element", "(1 2 3 4 5 6)",
            "--action", "cosets:pgl2:5",
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["verdict"] is False
        assert payload["order"] == 6
        assert payload["induced_order"] == 6

    def test_affine_witness(self):
        proc = run_cli(
            "decide", "--group", "agl:2,3",
            "--element", "1,1,0,1+2,0",
            "--action", "affine",
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["verdict"] is True
        assert isinstance(payload["witness"], list)
        assert len(payload["witness"]) == 2

    def test_wreath_product(self):
        proc = run_cli(
            "decide", "--group", "wreath:3,2",
            "--element", "(1 2 3)|(1 2)@(1 2)",
            "--action", "product",
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["order"] == 4
        assert payload["verdict"] is True

    def test_diagonal(self):
        proc = run_cli(
            "decide", "--group", "diag:5,1",
            "--element", "sigma=(1 2);phi=2;m=7",
            "--action", "diagonal",
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["certified"] is True

    def test_combinatorial_above_cap(self):
        proc = run_cli(
            "decide", "--group", "sym:30",
            "--element", "(1 2 3)",
            "--action", "ksets:15",
            "--cap", "1000",
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["method"] == "kset_combinatorial"
        assert payload["verdict"] is True
        assert len(payload["witness"]) == 15

    def test_partitions_4x4_past_enumeration(self):
        proc = run_cli(
            "decide", "--group", "sym:16",
            "--element", "(1 2 3)",
            "--action", "partitions:4x4",
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["verdict"] is True
        assert payload["certified"] is True
        assert len(payload["witness"]) == 4

    def test_partitions_3x10_past_cap(self):
        proc = run_cli(
            "decide", "--group", "sym:30",
            "--element", "(1 2)",
            "--action", "partitions:3x10",
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["method"] == "constructive_proof"
        assert payload["verdict"] is True
        assert payload["certified"] is True
        assert len(payload["witness"]) == 10

    def test_tsv_output(self):
        proc = run_cli(
            "decide", "--group", "sym:5",
            "--element", "(1 2 3 4 5)",
            "--action", "natural",
            "--output", "tsv",
        )
        assert proc.returncode == 0, proc.stderr
        header, row = proc.stdout.splitlines()
        assert header.split("\t")[0] == "schema"
        cells = row.split("\t")
        assert cells[0] == "1"
        assert cells[5] == "true"

    def test_parse_error_exit_2(self):
        proc = run_cli(
            "decide", "--group", "sym:10",
            "--element", "(1 2 bogus)",
            "--action", "ksets:2",
        )
        assert proc.returncode == 2
        assert proc.stdout == ""

    def test_unknown_group_exit_2(self):
        proc = run_cli(
            "decide", "--group", "nope:3", "--element", "()",
            "--action", "natural",
        )
        assert proc.returncode == 2

    def test_nonmember_exit_2(self):
        proc = run_cli(
            "decide", "--group", "alt:4", "--element", "(1 2)",
            "--action", "natural",
        )
        assert proc.returncode == 2

    def test_cap_exit_3(self):
        proc = run_cli(
            "decide", "--group", "sym:12",
            "--element", "(1 2 3 4 5 6 7 8 9 10 11 12)",
            "--action", "natural",
            "--cap", "2",
        )
        assert proc.returncode == 3

    @pytest.mark.parametrize(
        "group,message",
        [
            ("diag:8,1", "diagonal group alt8 tables has 406425600 points, cap is 10000000"),
            (
                "diag:100000,1",
                "diagonal group alt8 tables (a lower bound for alt100000) has 406425600 points, "
                "cap is 10000000",
            ),
        ],
    )
    def test_diagonal_tables_priced_before_closure(self, group, message):
        # The alt(8) multiplication table alone would be 20160^2 int64 entries.
        start = time.perf_counter()
        proc = run_cli(
            "decide", "--group", group,
            "--element", "sigma=();phi=1;m=2", "--action", "diagonal",
        )
        assert time.perf_counter() - start < 20
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.strip().splitlines() == [f"regcycle: {message}"]

    @pytest.mark.parametrize(
        "group, reached", [("sym:11", 39916800), ("alt:12", 19958400), ("sym:2000", 39916800)]
    )
    def test_coset_group_priced_before_closure(self, group, reached):
        # Unpriced, Sym(11) is closed until the 5 000 000-element cap stops
        # it, tens of seconds and over a gigabyte later; sym:2000 runs out of
        # memory first.
        start = time.perf_counter()
        proc = run_cli(
            "decide", "--group", group, "--element", "(1 2 3)", "--action", "cosets:stab:1"
        )
        assert time.perf_counter() - start < 10
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.strip().splitlines() == [
            f"regcycle: group closure exceeded cap 5000000 (at least {reached} elements)"
        ]

    def test_mismatched_action_exit_2(self):
        proc = run_cli(
            "decide", "--group", "gl:2,3", "--element", "1,0,0,1",
            "--action", "ksets:2",
        )
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "group, action",
        [
            ("sym:10", "ksets:0"),
            ("sym:10", "ksets:11"),
            ("sym:10", "ksets:x"),
            ("sym:12", "partitions:1x12"),
            ("sym:12", "partitions:12x1"),
            ("sym:12", "partitions:2x5"),
            ("sym:12", "partitions:3"),
            ("sym:6", "cosets:stab:0"),
            ("sym:6", "cosets:stab:7"),
            ("sym:6", "cosets:pair:1,9"),
            ("sym:6", "cosets:pair:1,1"),
            ("sym:4", "cosets:sylow:4"),
            ("sym:6", "cosets:pgl2:6"),
            ("sym:4", "cosets:sylow:5"),
            ("sym:6", "cosets:bogus:1"),
            ("sym:6", "nonsense"),
        ],
    )
    def test_malformed_action_exit_2(self, group, action):
        proc = run_cli(
            "decide", "--group", group, "--element", "(1 2)", "--action", action
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1, proc.stderr


    @pytest.mark.parametrize(
        "group, element, action",
        [
            ("sym:x", "(1 2)", "natural"),
            ("foo:3", "(1 2)", "natural"),
            ("sym:6", "(1 9)", "natural"),
            ("sym:6", "(1 2", "natural"),
            ("sym:6", "(1 1)", "natural"),
            ("gl:2,3", "1,1,1,1", "vectors"),
            ("agl:2,3", "1,0,0,1+5,0", "affine"),
            ("wreath:3,2", "(1 2)@(1 2)", "product"),
            ("diag:5,1", "sigma=();phi=500;m=1", "diagonal"),
        ],
    )
    def test_malformed_spec_exit_2(self, group, element, action):
        proc = run_cli(
            "decide", "--group", group, "--element", element, "--action", action
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1, proc.stderr


def _generated_elements(ctx, rng):
    """A few elements of the group a parsed --group value names."""
    from regcycle.actions import WreathElement
    from regcycle.gfalgebra import AffineMap
    from regcycle.groups import alternating_group, gl_elements
    from regcycle.permcore import Permutation
    from regcycle.regular import diagonal_elements

    def perm(n):
        images = list(range(n))
        rng.shuffle(images)
        return Permutation(images)

    if ctx.kind == "sym":
        return [perm(ctx.degree) for _ in range(8)]
    if ctx.kind == "alt":
        return rng.sample(alternating_group(ctx.degree).elements, 8)
    if ctx.kind in ("gl", "agl"):
        mats = rng.sample(gl_elements(ctx.dim, ctx.q), 8)
        if ctx.kind == "gl":
            return mats
        return [AffineMap(m, tuple(rng.randrange(ctx.q) for _ in range(ctx.dim))) for m in mats]
    if ctx.kind == "wreath":
        return [
            WreathElement([perm(ctx.degree) for _ in range(ctx.copies)], perm(ctx.copies))
            for _ in range(8)
        ]
    if ctx.kind == "diag":
        return list(diagonal_elements(ctx.data, ctx.copies, samples=8, seed=rng.randrange(1000)))
    return rng.sample(ctx.group.elements, 8)


class TestElementText:
    @pytest.mark.parametrize(
        "spec",
        ["sym:7", "alt:6", "gl:2,4", "agl:2,3", "pgl2:5", "psl2:7", "m10", "pgammal2:9",
         "wreath:3,2", "diag:5,1", "diag:5,2"],
    )
    def test_parse_element_reads_str_back(self, spec):
        from regcycle.verify import RunConfig

        ctx = cli.parse_group(spec, RunConfig())
        for g in _generated_elements(ctx, random.Random(spec)):
            assert cli.parse_element(ctx, str(g)) == g, str(g)


# sha256 of each command's TSV stdout at --seed 0: the six fast suites and
# one scan. A change meant to keep stdout byte-identical keeps these; one
# meant to change it records them again.
STDOUT_DIGESTS = {
    ("verify", "--suite", "ksets"):
        "e9ad1a701f3e43721d485f56c982597290b870dd42d04e8b0185752793b31fa3",
    ("verify", "--suite", "product"):
        "3b1385ac80fb66039035b1504d17f82d62ce9d2b13486176796806b2b493d923",
    ("verify", "--suite", "gl"):
        "aa0b3d177c8d5721d17942619a0939054318c2c766cccaee9c5216e642973682",
    ("verify", "--suite", "affine"):
        "8f925f9c3609b025ee9c234cfa14c328c90e7cbf1edbed7a8a06f092349e0f54",
    ("verify", "--suite", "s6-exception"):
        "bfc9088f8a0168ec18860aede80520ceea2d745439a3020ff7673c56df481ade",
    ("verify", "--suite", "remark-a6"):
        "f487404c168866a262ad237d1ba0bcd924511b2f2ca6c4755826705768aaf4f6",
    ("scan", "--action", "ksets:2", "--m", "4..24"):
        "d04e3fc091d2f6350d7d79caac4928f1b1ecb88ca304d2371bfcafefeb6d6c87",
    ("verify", "--suite", "diagonal"):
        "f6838182d0bc02be840f38198a7b33fa8ad3c9084b4e87f55159198f81506a76",
}
# Digests of runs that take several seconds.
SLOW_DIGESTS = {("verify", "--suite", "diagonal")}


class TestStdoutDigests:
    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(argv, marks=pytest.mark.slow) if argv in SLOW_DIGESTS else argv
            for argv in STDOUT_DIGESTS
        ],
        ids=" ".join,
    )
    def test_tsv_stdout_is_byte_identical(self, argv, capsys):
        assert cli.main([*argv, "--seed", "0", "--output", "tsv"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == STDOUT_DIGESTS[argv]


def readme_decide_examples() -> list[list[str]]:
    """The arguments after `decide` of each README decide example."""
    # Only example lines are split: prose may hold an unpaired quote.
    prefix = "python -m regcycle decide "
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return [
        shlex.split(line)[4:] for line in text.splitlines() if line.startswith(prefix)
    ]


class TestReadmeExamples:
    def test_decide_stdout_matches_reference(self, capsys):
        with open(ROOT / "bench" / "cli_reference.json", encoding="utf-8") as fh:
            reference = json.load(fh)
        examples = readme_decide_examples()
        assert sorted(" ".join(ex) for ex in examples) == sorted(reference)
        for example in examples:
            assert cli.main(["decide", *example]) == 0
            assert capsys.readouterr().out == reference[" ".join(example)], example


class TestVerify:
    def test_suite_pass_exit_0(self):
        proc = run_cli("verify", "--suite", "s6-exception")
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["suite"] == "s6-exception"
        assert payload["all_ok"] is True
        assert len(payload["checks"]) == 3
        assert "pass" in proc.stderr

    def test_tsv_report(self):
        proc = run_cli("verify", "--suite", "gl", "--output", "tsv")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == "check\tok\tdetail"
        assert all(line.split("\t")[1] == "true" for line in lines[1:])

    def test_unknown_suite_exit_2(self):
        proc = run_cli("verify", "--suite", "bogus")
        assert proc.returncode == 2

    def test_m_outside_ksets_exit_2(self):
        proc = run_cli("verify", "--suite", "product", "--m", "3..4")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert len(proc.stderr.strip().splitlines()) == 1
        assert "--m" in proc.stderr

    @pytest.mark.parametrize("m", ["3..12", "10..12", "12"])
    def test_ksets_m_must_start_at_2(self, m):
        proc = run_cli("verify", "--suite", "ksets", "--m", m)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert len(proc.stderr.strip().splitlines()) == 1
        assert "starts at m = 2" in proc.stderr

    def test_ksets_oracle_past_cap_exit_3(self):
        # The m = 17 oracle line brute-forces 65535 k-set points for each
        # of the 297 cycle types: past the default cap of 10**7.
        proc = run_cli("verify", "--suite", "ksets", "--m", "2..20")
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.strip().splitlines() == [
            "regcycle: ksets oracle line m=17 has 19463895 points, cap is 10000000"
        ]

    def test_ksets_m_13_runs_the_default_oracle(self):
        proc = run_cli("verify", "--suite", "ksets", "--m", "2..13", "--output", "tsv")
        default = run_cli("verify", "--suite", "ksets", "--output", "tsv")
        assert proc.returncode == default.returncode == 0, proc.stderr

        def oracle(stdout):
            return [line for line in stdout.splitlines() if "_vs_bruteforce_" in line]

        lines = oracle(proc.stdout)
        assert len(lines) == 12 and lines[-1].startswith("combinatorial_vs_bruteforce_m13\ttrue")
        assert lines == oracle(default.stdout)


class TestScan:
    def test_single_row(self):
        proc = run_cli("scan", "--action", "ksets:2", "--m", "10")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == "m\taction\ttype\torder\tcover\tnote"
        assert len(lines) == 2
        cells = lines[1].split("\t")
        assert cells[:5] == ["10", "ksets:2", "[5,3,2]", "30", "3"]

    def test_threshold_range(self):
        proc = run_cli("scan", "--action", "ksets:3", "--m", "6..17")
        assert proc.returncode == 0, proc.stderr
        rows = proc.stdout.splitlines()[1:]
        assert all(row.startswith("17\t") for row in rows)
        assert rows[0].split("\t")[2] == "[7,5,3,2]"

    def test_closed_stdout_exits_141(self):
        # The reader takes the header and closes the pipe, as `| head -1`
        # does; the rest of the scan is far more than a pipe buffer holds.
        proc = subprocess.Popen(
            [sys.executable, "-m", "regcycle", "scan", "--action", "ksets:2",
             "--m", "4..30", "--output", "tsv"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        assert proc.stdout.readline() == "m\taction\ttype\torder\tcover\tnote\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=300) == 141
        assert "Traceback" not in err and "BrokenPipeError" not in err

    def test_partitions_empty(self):
        proc = run_cli("scan", "--action", "partitions:2x3", "--m", "6")
        assert proc.returncode == 0, proc.stderr
        assert len(proc.stdout.splitlines()) == 1

    def test_shape_mismatch_exit_2(self):
        proc = run_cli("scan", "--action", "partitions:2x3", "--m", "8")
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "shape, code", [("1x4", 2), ("4x1", 2), ("4x4", 3), ("2x7", 3)]
    )
    def test_partition_shape_out_of_scan_range(self, shape, code):
        proc = run_cli("scan", "--action", f"partitions:{shape}")
        assert proc.returncode == code
        assert proc.stdout == ""
        assert len(proc.stderr.strip().splitlines()) == 1
        assert "Traceback" not in proc.stderr


    def test_json_output_exit_2(self):
        proc = run_cli("scan", "--action", "ksets:2", "--m", "6", "--output", "json")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert len(proc.stderr.strip().splitlines()) == 1
        assert "TSV only" in proc.stderr


class TestBounds:
    def test_table_passes(self):
        proc = run_cli("bounds", "--m", "47..50")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == "m\tn_value\talpha\tbeta\tproduct\tverdict"
        assert len(lines) == 5
        first = lines[1].split("\t")
        assert first[0] == "47"
        assert first[1] == "5057815230"
        assert first[5] == "pass"
        assert all(line.split("\t")[5] == "pass" for line in lines[1:])

    def test_small_m_fails_exit_1(self):
        proc = run_cli("bounds", "--m", "10..12")
        assert proc.returncode == 1
        assert all(
            line.split("\t")[5] == "fail"
            for line in proc.stdout.splitlines()[1:]
        )


    @pytest.mark.parametrize("m", ["3", "3..10", "6..6"])
    def test_below_first_degree_exit_2(self, m):
        proc = run_cli("bounds", "--m", m)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert len(proc.stderr.strip().splitlines()) == 1
        assert "Traceback" not in proc.stderr
        assert "m = 7" in proc.stderr

    def test_json_output_exit_2(self):
        proc = run_cli("bounds", "--m", "47..48", "--output", "json")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert len(proc.stderr.strip().splitlines()) == 1
        assert "TSV only" in proc.stderr


class TestImportPath:
    def test_decide_never_loads_mpmath(self):
        script = (
            "import sys\n"
            "import regcycle.cli as cli\n"
            "assert 'mpmath' not in sys.modules, 'import'\n"
            f"for example in {readme_decide_examples()!r}:\n"
            "    assert cli.main(['decide', *example]) == 0, example\n"
            "    assert 'mpmath' not in sys.modules, example\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr

    def test_bounds_names_resolve_lazily(self):
        import regcycle
        from regcycle import bounds

        assert regcycle.alpha_beta_row is bounds.alpha_beta_row
        namespace = {}
        exec("from regcycle import *", namespace)
        assert all(name in namespace for name in regcycle.__all__)
        with pytest.raises(AttributeError):
            regcycle.no_such_name


class TestUsage:
    def test_no_command_exit_2(self):
        proc = run_cli()
        assert proc.returncode == 2

    def test_help_exit_0(self):
        proc = run_cli("--help")
        assert proc.returncode == 0
        assert "decide" in proc.stdout


# ---------------------------------------------------------------------------
# The exit-code contract on generated command lines, valid and malformed.
# Inputs stay small: groups of degree at most 8, diagonal groups over
# Alt(N) for N <= 6, and only the cheap verify suites.


def _ranges(lo: int, hi: int):
    """'a..b' or 'a' with a, b in lo..hi (a > b allowed: a malformed range)."""
    bound = st.integers(lo, hi)
    return st.one_of(
        st.builds(lambda a, b: f"{a}..{b}", bound, bound), bound.map(str)
    )


_JUNK = st.text(alphabet="(),.:;=@|+ 0123456789abcxyz-", max_size=10)


@st.composite
def _perm_text(draw, degree: int) -> str:
    """Cycle notation of a permutation of 1..degree."""
    points = draw(st.permutations(range(1, degree + 1)))
    cuts = sorted(draw(st.sets(st.integers(1, max(degree - 1, 1)), max_size=3)))
    bounds = [0, *cuts, degree]
    return "".join(
        "(" + " ".join(map(str, points[a:b])) + ")" for a, b in zip(bounds, bounds[1:])
    )


@st.composite
def _decide_parts(draw) -> tuple[str, str, str]:
    """(group, element, action), mostly well formed and matching."""
    kind = draw(st.sampled_from(["perm", "proj", "linear", "wreath", "diag"]))
    if kind == "perm":
        n = draw(st.integers(1, 8))
        group = f"{draw(st.sampled_from(['sym', 'alt']))}:{n}"
        element = draw(_perm_text(n))
        action = draw(st.one_of(
            st.sampled_from(["natural", "cosets:stab:1", "cosets:sylow:2", "cosets:pgl2:5"]),
            st.builds("ksets:{}".format, st.integers(0, n + 1)),
            st.builds("partitions:{}x{}".format, st.integers(1, 4), st.integers(1, 4)),
        ))
    elif kind == "proj":
        q = draw(st.sampled_from([2, 3, 4, 5, 6, 7]))
        group = f"{draw(st.sampled_from(['pgl2', 'psl2']))}:{q}"
        element = draw(st.one_of(st.just("()"), _perm_text(q + 1)))
        action = draw(st.sampled_from(["natural", "ksets:2", "cosets:stab:1"]))
    elif kind == "linear":
        d, q = draw(st.integers(1, 2)), draw(st.sampled_from([2, 3, 4, 5, 6]))
        affine = draw(st.booleans())
        group = f"{'agl' if affine else 'gl'}:{d},{q}"
        entries = draw(st.lists(st.integers(0, q), min_size=d * d, max_size=d * d))
        element = ";".join(
            ",".join(map(str, entries[r * d:(r + 1) * d])) for r in range(d)
        )
        if affine:
            shift = draw(st.lists(st.integers(0, q), min_size=d, max_size=d))
            element += "+" + ",".join(map(str, shift))
        action = draw(st.sampled_from(["vectors", "affine", "natural"]))
    elif kind == "wreath":
        n, copies = draw(st.integers(1, 4)), draw(st.integers(0, 3))
        group = f"wreath:{n},{copies}"
        comps = [draw(_perm_text(n)) for _ in range(copies)]
        element = "|".join(comps) + "@" + draw(_perm_text(max(copies, 1)))
        action = draw(st.sampled_from(["product", "natural"]))
    else:
        n, copies = draw(st.integers(3, 6)), draw(st.integers(0, 2))
        group = f"diag:{n},{copies}"
        sigma = draw(_perm_text(copies + 1))
        phi = draw(st.integers(0, 3))
        m = draw(st.lists(st.integers(0, 12), min_size=copies, max_size=copies))
        element = f"sigma={sigma};phi={phi};m={','.join(map(str, m))}"
        action = draw(st.sampled_from(["diagonal", "natural"]))
    junk = st.one_of(st.none(), st.none(), st.none(), _JUNK)
    group, element, action = (
        part if (bad := draw(junk)) is None else bad
        for part in (group, element, action)
    )
    return group, element, action


_OPTIONS = st.lists(
    st.one_of(
        st.tuples(st.just("--cap"), st.integers(-1, 10**7).map(str)),
        st.tuples(st.just("--output"), st.sampled_from(["json", "tsv", "xml"])),
        st.tuples(st.just("--seed"), st.integers(0, 9).map(str)),
    ),
    max_size=2,
).map(lambda pairs: [arg for pair in pairs for arg in pair])

_ARGVS = st.one_of(
    st.builds(
        lambda parts, opts: [
            "decide", "--group", parts[0], "--element", parts[1], "--action", parts[2],
            *opts,
        ],
        _decide_parts(),
        _OPTIONS,
    ),
    st.builds(
        lambda a, m, opts: ["scan", "--action", a, *m, *opts],
        st.one_of(
            st.builds("ksets:{}".format, st.integers(0, 4)),
            st.builds("partitions:{}x{}".format, st.integers(1, 4), st.integers(1, 4)),
            _JUNK,
        ),
        st.one_of(st.just([]), _ranges(2, 14).map(lambda r: ["--m", r])),
        _OPTIONS,
    ),
    st.builds(
        lambda m, opts: ["bounds", *m, *opts],
        st.one_of(_ranges(1, 80).map(lambda r: ["--m", r]), _JUNK.map(lambda j: ["--m", j])),
        _OPTIONS,
    ),
    st.builds(
        lambda head, opts: [*head, *opts],
        st.one_of(
            st.sampled_from([
                ["verify", "--suite", "s6-exception"],
                ["verify", "--suite", "bogus"],
                ["verify"],
            ]),
            st.builds(
                lambda suite, r: ["verify", "--suite", suite, "--m", r],
                st.sampled_from(["ksets", "s6-exception"]),
                _ranges(1, 14),
            ),
        ),
        _OPTIONS,
    ),
    st.lists(_JUNK, max_size=4),
)


class TestExitContract:
    # Derandomized, so that every run checks the same 200 command lines.
    @settings(
        max_examples=200,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(_ARGVS)
    def test_exit_code_and_clean_stderr(self, argv):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        elapsed = time.perf_counter() - start
        assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
        assert "Traceback" not in err.getvalue(), argv
        assert elapsed < 10, (argv, elapsed)
