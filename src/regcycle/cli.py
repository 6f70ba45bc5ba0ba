"""Command-line front end: decisions, verification suites, scans, tables.

Output on stdout is machine-readable (JSON or TSV) and byte-identical for a
fixed seed and configuration; progress summaries go to stderr. Exit codes:
0 success, 1 assertion or suite failure, 2 usage or parse error, 3 resource
cap exceeded, 141 (128 + SIGPIPE) stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Optional

from .actions import (
    AffineVectorsAction,
    CosetsAction,
    DiagonalAction,
    DiagonalElement,
    DiagonalGroupData,
    KSetsAction,
    NaturalAction,
    PartitionsAction,
    ProductAction,
    VectorsAction,
    WreathElement,
)
from .gfalgebra import AffineMap, Matrix, field_ops
from .groups import (
    DEFAULT_GROUP_CAP,
    AmbientAutomorphisms,
    ClosureCapError,
    GeneratedGroup,
    alternating_group,
    m10,
    pgammal2_9,
    pgl2,
    point_stabilizer,
    psl2,
    set_stabilizer,
    sylow_normalizer,
    symmetric_group,
)
from .permcore import Permutation, parse_cycles
from .regular import LISTING_FACTOR, DomainCapError, decide
from .verify import (
    RunConfig,
    SUITES,
    ScanCapError,
    SuiteReport,
    run_suite,
    scan_ksets,
    scan_partitions,
)

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_BROKEN_PIPE = 141


class SpecError(ValueError):
    """A group, element, action, or range expression failed to parse."""


def _int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise SpecError(f"{what}: expected an integer, got {text!r}") from None


def _int_pair(text: str, sep: str, what: str) -> tuple[int, int]:
    head, _, tail = text.partition(sep)
    if not tail:
        raise SpecError(f"{what}: expected two integers joined by {sep!r}")
    return _int(head, what), _int(tail, what)


def _parse_range(text: str) -> tuple[int, int]:
    """Inclusive integer range: '6..17' or a single value '10'."""
    if ".." in text:
        head, _, tail = text.partition("..")
        lo, hi = _int(head, "range"), _int(tail, "range")
    else:
        lo = hi = _int(text, "range")
    if lo < 1 or hi < lo:
        raise SpecError(f"bad range {text!r}")
    return lo, hi


# ---------------------------------------------------------------------------
# group specs


@dataclass
class GroupContext:
    """A parsed --group value plus whatever it takes to act on elements."""

    spec: str
    kind: str
    degree: int = 0
    dim: int = 0
    q: int = 0
    copies: int = 0
    group: Optional[GeneratedGroup] = None
    data: Optional[DiagonalGroupData] = None


def _factorial_price_past(n: int, cap: int, price) -> Optional[tuple[int, int]]:
    """The least k <= n at which price(k!) passes cap, with that price, or
    None. Priced degree by degree, so a huge n stops at the first k past
    the cap, in bounded time."""
    factorial = 1
    for k in range(2, n + 1):
        factorial *= k
        if price(factorial) > cap:
            return k, price(factorial)
    return None


def _price_degree(text: str, points: int, cap: int) -> None:
    """Refuse a degree past the largest domain any `decide` row lists."""
    if points > LISTING_FACTOR * cap:
        raise DomainCapError(points, LISTING_FACTOR * cap, f"group {text}")


def parse_group(text: str, config: RunConfig) -> GroupContext:
    head, _, rest = text.partition(":")
    if head in ("sym", "alt"):
        n = _int(rest, text)
        if n < 1:
            raise SpecError(f"{text!r}: degree must be positive")
        _price_degree(text, n, config.domain_cap)
        return GroupContext(spec=text, kind=head, degree=n)
    if head in ("gl", "agl"):
        d, q = _int_pair(rest, ",", text)
        if d < 1:
            raise SpecError(f"{text!r}: dimension must be positive")
        try:
            field_ops(q)
        except ValueError as exc:
            raise SpecError(f"{text!r}: {exc}") from None
        return GroupContext(spec=text, kind=head, dim=d, q=q)
    if head in ("pgl2", "psl2"):
        q = _int(rest, text)
        builder = pgl2 if head == "pgl2" else psl2
        try:
            group = builder(q)
        except ValueError as exc:
            raise SpecError(f"{text!r}: {exc}") from None
        return GroupContext(spec=text, kind=head, degree=group.degree, q=q, group=group)
    if text == "m10":
        group = m10()
        return GroupContext(spec=text, kind="m10", degree=10, group=group)
    if text == "pgammal2:9":
        group = pgammal2_9()
        return GroupContext(spec=text, kind="pgammal2", degree=10, group=group)
    if head == "wreath":
        n, copies = _int_pair(rest, ",", text)
        if n < 2 or copies < 1:
            raise SpecError(f"{text!r}: need base degree >= 2 and copies >= 1")
        _price_degree(text, n * copies, config.domain_cap)
        return GroupContext(spec=text, kind="wreath", degree=n, copies=copies)
    if head == "diag":
        n, copies = _int_pair(rest, ",", text)
        if n < 4 or copies < 1:
            raise SpecError(f"{text!r}: need an alternating degree >= 4 and copies >= 1")
        # The multiplication table holds |Alt(n)|^2 = (n!/2)^2 entries. A
        # degree k < n past the cap gives alt(k)'s price as a lower bound.
        past = _factorial_price_past(n, config.domain_cap, lambda f: (f // 2) ** 2)
        if past:
            k, size = past
            bound = f" (a lower bound for alt{n})" if k < n else ""
            subject = f"diagonal group alt{k} tables{bound}"
            raise DomainCapError(size, config.domain_cap, subject)
        target = alternating_group(n)
        ambient = symmetric_group(n)
        data = DiagonalGroupData.build(
            target, AmbientAutomorphisms.build(target, ambient), f"alt{n}"
        )
        return GroupContext(
            spec=text, kind="diag", degree=target.degree, copies=copies, data=data
        )
    raise SpecError(f"unknown group spec {text!r}")


def _parse_matrix(text: str, dim: int, q: int) -> Matrix:
    entries = [
        _int(v, "matrix entry") for v in text.replace(";", ",").split(",") if v
    ]
    if len(entries) != dim * dim:
        raise SpecError(
            f"matrix needs {dim * dim} entries row-major, got {len(entries)}"
        )
    rows = [entries[i * dim : (i + 1) * dim] for i in range(dim)]
    try:
        m = Matrix.from_rows(field_ops(q), rows)
    except ValueError as exc:
        raise SpecError(str(exc)) from None
    if not m.is_invertible():
        raise SpecError("matrix is singular")
    return m


def parse_element(ctx: GroupContext, text: str):
    try:
        if ctx.kind in ("sym", "alt", "pgl2", "psl2", "m10", "pgammal2"):
            return parse_cycles(text, ctx.degree)
        if ctx.kind == "gl":
            return _parse_matrix(text, ctx.dim, ctx.q)
        if ctx.kind == "agl":
            lin_text, _, tra_text = text.partition("+")
            lin = _parse_matrix(lin_text, ctx.dim, ctx.q)
            tra = tuple(
                _int(v, "translation entry") for v in tra_text.split(",") if v
            )
            return AffineMap(lin, tra)
        if ctx.kind == "wreath":
            comps_text, _, top_text = text.partition("@")
            if not top_text:
                raise SpecError("wreath element needs '<components>@<top>'")
            comps = [
                parse_cycles(part, ctx.degree) for part in comps_text.split("|")
            ]
            if len(comps) != ctx.copies:
                raise SpecError(f"expected {ctx.copies} components")
            return WreathElement(comps, parse_cycles(top_text, ctx.copies))
        if ctx.kind == "diag":
            return _parse_diagonal_element(ctx, text)
    except SpecError:
        raise
    except ValueError as exc:
        raise SpecError(str(exc)) from None
    raise SpecError(f"cannot parse elements for group kind {ctx.kind!r}")


def _parse_diagonal_element(ctx: GroupContext, text: str) -> DiagonalElement:
    fields = {}
    for part in text.split(";"):
        key, eq, value = (v.strip() for v in part.partition("="))
        if not eq or key not in ("sigma", "phi", "m") or key in fields:
            raise SpecError(f"diagonal element part {part!r}: need sigma=, phi=, m= once each")
        fields[key] = value
    missing = {"sigma", "phi", "m"} - set(fields)
    if missing:
        raise SpecError(f"diagonal element is missing {sorted(missing)}")
    sigma = parse_cycles(fields["sigma"], ctx.copies + 1)
    phi = _int(fields["phi"], "phi") - 1
    m = tuple(_int(v, "m entry") - 1 for v in fields["m"].split(",") if v)
    n_amb = len(ctx.data.automorphisms.ambient.elements)
    if not 0 <= phi < n_amb:
        raise SpecError(f"phi must be in 1..{n_amb}")
    if len(m) != ctx.copies or any(not 0 <= v < ctx.data.order for v in m):
        raise SpecError(
            f"m needs {ctx.copies} entries in 1..{ctx.data.order}"
        )
    return DiagonalElement(sigma, phi, m)


def contains(ctx: GroupContext, g) -> bool:
    if ctx.kind == "sym":
        return isinstance(g, Permutation) and g.degree == ctx.degree
    if ctx.kind == "alt":
        return (
            isinstance(g, Permutation)
            and g.degree == ctx.degree
            and g.is_even()
        )
    if ctx.kind in ("gl", "agl"):
        return True  # validated during parsing
    if ctx.group is not None:
        return g in ctx.group
    if ctx.kind in ("wreath", "diag"):
        return True  # shape-checked during parsing
    return False


# ---------------------------------------------------------------------------
# action specs


def parse_action(text: str, ctx: GroupContext, config: RunConfig):
    """Build the action named by text; every malformed spec is a SpecError.

    No action reads config; it keeps the call shape of parse_group.
    """
    try:
        return _build_action(text, ctx)
    except SpecError:
        raise
    except ValueError as exc:
        raise SpecError(f"{text!r}: {exc}") from None


def _build_action(text: str, ctx: GroupContext):
    head, _, rest = text.partition(":")
    perm_like = ctx.kind in ("sym", "alt", "pgl2", "psl2", "m10", "pgammal2")
    if text == "natural" and perm_like:
        return NaturalAction(ctx.degree)
    if head == "ksets" and perm_like:
        return KSetsAction(ctx.degree, _int(rest, text))
    if head == "partitions" and perm_like:
        a, b = _int_pair(rest, "x", text)
        if a * b != ctx.degree:
            raise SpecError(
                f"shape {a}x{b} does not cover degree {ctx.degree}"
            )
        return PartitionsAction(a, b)
    if head == "cosets" and perm_like:
        return _parse_cosets(rest, ctx)
    if text == "vectors" and ctx.kind == "gl":
        return VectorsAction(ctx.dim, ctx.q)
    if text == "affine" and ctx.kind == "agl":
        return AffineVectorsAction(ctx.dim, ctx.q)
    if text == "product" and ctx.kind == "wreath":
        return ProductAction(ctx.degree, ctx.copies)
    if text == "diagonal" and ctx.kind == "diag":
        return DiagonalAction(ctx.data, ctx.copies)
    raise SpecError(f"action {text!r} does not apply to group {ctx.spec!r}")


def _materialized(ctx: GroupContext) -> GeneratedGroup:
    if ctx.group is not None:
        return ctx.group
    if ctx.kind not in ("sym", "alt"):
        raise SpecError(f"group {ctx.spec!r} has no coset machinery")
    # |Sym(n)| = n! and |Alt(n)| = n!/2 are priced before any closure.
    price = (lambda f: f // 2) if ctx.kind == "alt" else (lambda f: f)
    past = _factorial_price_past(ctx.degree, DEFAULT_GROUP_CAP, price)
    if past:
        raise ClosureCapError(DEFAULT_GROUP_CAP, past[1])
    builder = symmetric_group if ctx.kind == "sym" else alternating_group
    ctx.group = builder(ctx.degree)
    return ctx.group


def _parse_cosets(rest: str, ctx: GroupContext):
    group = _materialized(ctx)
    head, _, tail = rest.partition(":")
    if head == "pgl2":
        q = _int(tail, "cosets")
        sub = pgl2(q)
        if sub.degree != group.degree:
            raise SpecError(
                f"pgl2:{q} lives on {sub.degree} points, group on {group.degree}"
            )
    elif head == "stab":
        sub = point_stabilizer(group, _int(tail, "cosets"))
    elif head == "sylow":
        sub = sylow_normalizer(group, _int(tail, "cosets"))
    elif head == "pair":
        i, j = _int_pair(tail, ",", "cosets")
        if i == j:
            raise SpecError(f"cosets:pair needs two distinct points, got {i},{j}")
        sub = set_stabilizer(group, (i, j))
    else:
        raise SpecError(f"unknown coset spec {rest!r}")
    return CosetsAction(group, sub, label=rest)


# ---------------------------------------------------------------------------
# subcommands


def _emit_verdict(verdict, output: str) -> None:
    payload = verdict.to_json()
    if output == "json":
        print(json.dumps(payload, indent=2))
    else:
        keys = list(payload)
        print("\t".join(keys))
        cells = []
        for key in keys:
            value = payload[key]
            if isinstance(value, str):
                cells.append(value)
            else:
                cells.append(json.dumps(value))
        print("\t".join(cells))


def cmd_decide(args, config: RunConfig) -> int:
    ctx = parse_group(args.group, config)
    if args.element is None:
        raise SpecError("decide needs --element")
    g = parse_element(ctx, args.element)
    if not contains(ctx, g):
        raise SpecError(f"element does not belong to {ctx.spec}")
    action = parse_action(args.action, ctx, config)
    verdict = decide(action, g, domain_cap=config.domain_cap)
    _emit_verdict(verdict, config.output)
    return EXIT_OK


def render_report(report: SuiteReport, output: str) -> str:
    """The stdout of `verify` for `report`: JSON, or TSV with a header row."""
    if output == "json":
        checks = [{"name": ln.name, "ok": ln.ok, "detail": ln.detail} for ln in report.lines]
        payload = {"schema": 1, "suite": report.suite, "all_ok": report.all_ok, "checks": checks}
        return json.dumps(payload, indent=2) + "\n"
    rows = [f"{ln.name}\t{str(ln.ok).lower()}\t{ln.detail}\n" for ln in report.lines]
    return "check\tok\tdetail\n" + "".join(rows)


def cmd_verify(args, config: RunConfig) -> int:
    overrides = {}
    if args.m and args.suite != "ksets":
        raise SpecError(f"--m applies only to --suite ksets, not {args.suite}")
    if args.m:
        lo, hi = _parse_range(args.m)
        if lo != 2:
            raise SpecError(
                f"--m {args.m}: the ksets oracle starts at m = 2; use --m 2..{hi}"
            )
        overrides = {"oracle_m_max": hi, "scan_m_max": hi}
    report = run_suite(args.suite, config, **overrides)
    sys.stdout.write(render_report(report, config.output))
    print(report.summary(), file=sys.stderr)
    return EXIT_OK if report.all_ok else EXIT_ASSERTION


def _format_type(parts: tuple[int, ...]) -> str:
    return "[" + ",".join(str(v) for v in parts) + "]"


def _tsv_only(command: str, config: RunConfig) -> None:
    if config.output != "tsv":
        raise SpecError(f"--output {config.output}: {command} prints TSV only")


def cmd_scan(args, config: RunConfig) -> int:
    _tsv_only("scan", config)
    head, _, rest = args.action.partition(":")
    header = "m\taction\ttype\torder\tcover\tnote"
    if head == "ksets":
        k = _int(rest, args.action)
        if k < 1:
            raise SpecError(f"{args.action!r}: k must be at least 1")
        if not args.m:
            raise SpecError("scan over k-sets needs --m")
        lo, hi = _parse_range(args.m)
        if lo < 2 * k:
            raise SpecError(f"need m >= 2k = {2 * k}")
        print(header)
        for m in range(lo, hi + 1):
            for row in scan_ksets(m, k):
                print(
                    f"{m}\tksets:{k}\t{_format_type(row.parts)}\t"
                    f"{row.order}\t{row.covering_size}\t{row.note}"
                )
        return EXIT_OK
    if head == "partitions":
        a, b = _int_pair(rest, "x", args.action)
        if args.m:
            lo, hi = _parse_range(args.m)
            if lo != a * b or hi != a * b:
                raise SpecError(f"shape {a}x{b} forces m = {a * b}")
        try:
            rows = scan_partitions(a, b)
        except ScanCapError:
            raise
        except ValueError as exc:
            raise SpecError(str(exc)) from None
        print(header)
        for row in rows:
            print(
                f"{a * b}\tpartitions:{a}x{b}\t{_format_type(row.parts)}\t"
                f"{row.order}\t{row.covering_size}\t{row.note}"
            )
        return EXIT_OK
    raise SpecError(f"cannot scan action {args.action!r}")


def cmd_bounds(args, config: RunConfig) -> int:
    from . import bounds as bounds_mod

    _tsv_only("bounds", config)
    lo, hi = _parse_range(args.m) if args.m else (47, 200)
    if lo < bounds_mod.ALPHA_BETA_MIN_M:
        raise SpecError(f"bounds table starts at m = {bounds_mod.ALPHA_BETA_MIN_M}")
    print("m\tn_value\talpha\tbeta\tproduct\tverdict")
    failures = 0
    for row in map(bounds_mod.alpha_beta_row, range(lo, hi + 1)):
        beta = math.exp(row.log_beta_high)
        product = math.exp(row.product_log_high)
        print(
            f"{row.m}\t{row.n_value}\t{row.alpha_high:.6g}\t"
            f"{beta:.6g}\t{product:.6g}\t{row.status}"
        )
        if not row.ok:
            failures += 1
    return EXIT_ASSERTION if failures else EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regcycle",
        description=(
            "Decide regular cycles of finite permutation group elements in "
            "induced actions, construct certified witnesses, and run "
            "verification suites."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, output_default: str) -> None:
        p.add_argument("--output", choices=("json", "tsv"), default=output_default)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--cap", type=int, default=10**7,
                       help=f"domain size cap; decide lists up to {LISTING_FACTOR} times it")

    p_decide = sub.add_parser("decide", help="decide one element in one action")
    p_decide.add_argument("--group", required=True)
    p_decide.add_argument("--element", required=True)
    p_decide.add_argument("--action", required=True)
    common(p_decide, "json")

    p_verify = sub.add_parser("verify", help="run one verification suite")
    p_verify.add_argument("--suite", required=True, choices=sorted(SUITES))
    p_verify.add_argument("--m", help="restrict the scanned degree range (ksets suite only)")
    common(p_verify, "json")

    p_scan = sub.add_parser(
        "scan", help="list cycle types lacking regular cycles"
    )
    p_scan.add_argument("--action", required=True)
    p_scan.add_argument("--m", help="degree or degree range, e.g. 6..17")
    common(p_scan, "tsv")

    p_bounds = sub.add_parser(
        "bounds", help="per-degree bound table for the product criterion"
    )
    p_bounds.add_argument("--m", help="degree range, default 47..200")
    common(p_bounds, "tsv")

    return parser


_COMMANDS = {
    "decide": cmd_decide,
    "verify": cmd_verify,
    "scan": cmd_scan,
    "bounds": cmd_bounds,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = RunConfig(
            domain_cap=args.cap,
            seed=args.seed,
            output=args.output,
        )
    except ValueError as exc:
        print(f"regcycle: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        code = _COMMANDS[args.command](args, config)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early. Python flushes stdout once more at
        # exit, so stdout is pointed at devnull to keep that flush quiet, as
        # the SIGPIPE note of the signal module docs does.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except SpecError as exc:
        print(f"regcycle: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DomainCapError, ClosureCapError, ScanCapError) as exc:
        print(f"regcycle: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except AssertionError as exc:
        print(f"regcycle: certification failed: {exc}", file=sys.stderr)
        return EXIT_ASSERTION


if __name__ == "__main__":
    sys.exit(main())
