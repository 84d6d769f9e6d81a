"""Command-line interface.

Subcommands: burau, member, image, abelianization, cryst, verify.  Each
handler prints its output and returns an exit code and a report; main
writes the report to the --json path, if one is given.
Exit codes: 0 success, 1 claim failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from collections import Counter
from random import Random
from typing import TYPE_CHECKING

from . import __version__
from .burau import burau_matrix, burau_matrix_mod
from .congruence import (
    LimitExceeded,
    abelianization,
    enumerate_image,
    image_center,
    is_member,
)
from .matrices import check_integer
from .words import BraidWord, pair_list, random_word

# the verify suite and the crystallographic calculus load in the handlers
# that use them, so image, abelianization, burau and member never run them
if TYPE_CHECKING:
    from .claims import VerificationReport
    from .cryst import CrystElement

_TOKEN = re.compile(r"[^\s,]+")
_INTEGER = re.compile(r"[+-]?\d+")


def parse_word(text: str, n: int) -> BraidWord:
    """Parse signed generator indices separated by whitespace or commas."""
    letters = []
    for match in _TOKEN.finditer(text):
        token, position = match.group(), match.start() + 1
        if not _INTEGER.fullmatch(token):
            raise ValueError(f"bad word: column {position}: {token!r} is not a signed integer")
        value = int(token)
        if value == 0:
            raise ValueError(f"bad word: column {position}: generator index may not be 0")
        if abs(value) >= n:
            raise ValueError(
                f"bad word: column {position}: generator index {value} out of range"
                f" for n={n} (need |index| <= {n - 1})"
            )
        letters.append(value)
    return BraidWord(n, tuple(letters))


def format_word(w: BraidWord) -> str:
    return " ".join(str(k) for k in w.letters)


def format_matrix(rows) -> str:
    cells = [[str(x) for x in row] for row in rows]
    widths = [max(len(r[c]) for r in cells) for c in range(len(cells[0]))]
    return "\n".join(
        "[ " + "  ".join(cell.rjust(w) for cell, w in zip(row, widths)) + " ]"
        for row in cells
    )


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _element_report(a: CrystElement) -> dict:
    """Print an element's permutation and linking lines; return them as JSON fields."""
    pairs = pair_list(a.n)
    print("permutation:", " ".join(str(x) for x in a.perm.images))
    print("linking:", " ".join(f"({p.i},{p.j})={a.vec.coordinate(p)}" for p in pairs))
    return {
        "permutation": list(a.perm.images),
        "linking": {f"{p.i},{p.j}": a.vec.coordinate(p) for p in pairs},
    }


def _cmd_burau(args: argparse.Namespace) -> tuple[int, dict]:
    w = parse_word(args.word, args.n)
    matrix = burau_matrix(w) if args.mod is None else burau_matrix_mod(w, args.mod)
    print(format_matrix(matrix))
    return 0, {
        "n": args.n,
        "word": format_word(w),
        "mod": args.mod,
        "matrix": [list(row) for row in matrix],
    }


def _cmd_member(args: argparse.Namespace) -> tuple[int, dict]:
    w = parse_word(args.word, args.n)
    member = is_member(w, args.m)
    print("true" if member else "false")
    return 0, {"n": args.n, "m": args.m, "word": format_word(w), "member": member}


def _cmd_image(args: argparse.Namespace) -> tuple[int, dict]:
    group = enumerate_image(args.n, args.m, element_cap=args.cap)
    payload: dict = {"n": args.n, "m": args.m, "order": group.size}
    if args.order_only:
        print(group.size)
    else:
        print(f"image of the {args.n}-strand braid group mod {args.m}")
        print(f"order: {group.size}")
    if args.center:
        central = image_center(group)
        payload["center_order"] = len(central)
        payload["center"] = [[list(row) for row in group.matrix(k)] for k in central]
        if not args.order_only:
            print(f"center order: {len(central)}")
            for k in central:
                print(format_matrix(group.matrix(k)))
                print()
    return 0, payload


def _cmd_abelianization(args: argparse.Namespace) -> tuple[int, dict]:
    t0 = time.perf_counter()
    ab = abelianization(args.n, args.m, coset_cap=args.cap)
    runtime_ms = round((time.perf_counter() - t0) * 1000.0, 3)
    payload = {
        "n": args.n,
        "m": args.m,
        "index": ab.table.size,
        "schreier_generators": ab.num_generators,
        "invariant_factors": list(ab.invariant_factors),
        "free_rank": ab.free_rank,
        "runtime_ms": runtime_ms,
    }
    for key in ("n", "m", "index", "schreier_generators", "invariant_factors", "free_rank"):
        print(f"{key}: {payload[key]}")
    return 0, payload


def _cmd_cryst_nf(args: argparse.Namespace) -> tuple[int, dict]:
    from .cryst import normal_form

    w = parse_word(args.word, args.n)
    return 0, {"n": args.n, "word": format_word(w), **_element_report(normal_form(w))}


def _cmd_cryst_order(args: argparse.Namespace) -> tuple[int, dict]:
    from .cryst import element_order, normal_form

    w = parse_word(args.word, args.n)
    order = element_order(normal_form(w))
    print("infinite" if order is None else order)
    return 0, {"n": args.n, "word": format_word(w), "order": order}


def _cmd_cryst_power(args: argparse.Namespace) -> tuple[int, dict]:
    from .cryst import normal_form, power_endomorphism

    w = parse_word(args.word, args.n)
    image = power_endomorphism(args.n, args.m, normal_form(w))
    return 0, {"n": args.n, "m": args.m, "word": format_word(w), **_element_report(image)}


def _cmd_cryst_quotient_check(args: argparse.Namespace) -> tuple[int, dict]:
    from .cryst import (
        additivity_failures,
        normal_form,
        power_map_is_homomorphism,
        power_map_scales_lattice,
    )

    check_integer("samples", args.samples, 1)
    rng = Random(args.seed)
    n, m = args.n, args.m
    relations_hold = power_map_is_homomorphism(n, m)
    scaling = power_map_scales_lattice(n, m)
    pairs = (
        (normal_form(random_word(rng, n, 12)), normal_form(random_word(rng, n, 12)))
        for _ in range(args.samples)
    )
    failures = additivity_failures(n, m, pairs)
    additive_failures = len(failures)
    first_failure = None
    if failures:
        lhs, rhs = failures[0]
        first_failure = {"lhs": list(lhs), "rhs": list(rhs)}
    ok = relations_hold and scaling and additive_failures == 0
    payload = {
        "n": n,
        "m": m,
        "seed": args.seed,
        "samples": args.samples,
        "relations_hold": relations_hold,
        "lattice_scaling": scaling,
        "additive_failures": additive_failures,
        "first_failure": first_failure,
        "status": "pass" if ok else "fail",
    }
    print(f"relations hold on power images: {relations_hold}")
    print(f"lattice generators scale by m: {scaling}")
    print(f"additive failures: {additive_failures} / {args.samples}")
    if additive_failures:
        print(
            "note: the reduction obeys the twisted rule"
            " class(ab) = pair_action(perm(b)) . class(a) + class(b);"
            " plain additivity fails off the lattice"
        )
    print(f"status: {payload['status']}")
    return (0 if ok else 1), payload


def _claim_list(text: str) -> tuple[str, ...]:
    """Claim ids or prefixes separated by commas or whitespace."""
    return tuple(t for t in re.split(r"[\s,]+", text) if t)


def _print_report(report: VerificationReport) -> None:
    width = max(len(r.claim_id) for r in report.results)
    for r in report.results:
        print(f"{r.claim_id.ljust(width)}  {r.status:<7}  {r.runtime_ms:9.1f} ms")
        if r.status != "pass" and r.detail:
            print(f"{''.ljust(width)}  {r.detail}")
    counts = Counter(r.status for r in report.results)
    print(f"total: {counts['pass']} pass, {counts['fail']} fail ({report.total_ms:.0f} ms)")


def _cmd_verify(args: argparse.Namespace) -> tuple[int, dict]:
    from .claims import SuiteConfig, run_suite

    claims = _claim_list(args.claims) if args.claims is not None else None
    seed = SuiteConfig.seed if args.seed is None else args.seed
    report = run_suite(SuiteConfig(seed=seed, claims=claims))
    _print_report(report)
    return (0 if report.passed else 1), report.to_json_dict()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidcong",
        description=(
            "Exact computations with congruence subgroups of braid groups"
            " and crystallographic braid-group quotients."
        ),
    )
    parser.add_argument("--version", action="version", version=f"braidcong {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common_json = argparse.ArgumentParser(add_help=False)
    common_json.add_argument("--json", metavar="PATH", help="write a JSON report to PATH")
    strands = argparse.ArgumentParser(add_help=False, parents=[common_json])
    strands.add_argument("--n", type=int, required=True, help="number of strands")
    word = argparse.ArgumentParser(add_help=False, parents=[strands])
    word.add_argument("--word", required=True, help="signed generator indices, e.g. '1 2 -1'")

    p = sub.add_parser("burau", parents=[word], help="integral Burau matrix of a word")
    p.add_argument("--mod", type=int, help="reduce entries mod this value")
    p.set_defaults(handler=_cmd_burau)

    p = sub.add_parser("member", parents=[word], help="congruence subgroup membership")
    p.add_argument("--m", type=int, required=True, help="congruence level")
    p.set_defaults(handler=_cmd_member)

    p = sub.add_parser("image", parents=[strands], help="enumerate the finite mod-m image")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--center", action="store_true", help="also compute the center")
    p.add_argument("--order-only", action="store_true", help="print only the order")
    p.add_argument("--cap", type=int, default=10**6, help="element cap for the enumeration")
    p.set_defaults(handler=_cmd_image)

    p = sub.add_parser(
        "abelianization", parents=[strands], help="abelianization of the level-m subgroup"
    )
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--cap", type=int, default=10_000, help="coset cap for the enumeration")
    p.set_defaults(handler=_cmd_abelianization)

    p = sub.add_parser("cryst", help="crystallographic quotient calculus")
    cryst_sub = p.add_subparsers(dest="cryst_command", required=True)

    q = cryst_sub.add_parser("nf", parents=[word], help="normal form of a word")
    q.set_defaults(handler=_cmd_cryst_nf)

    q = cryst_sub.add_parser("order", parents=[word], help="order of a word's class")
    q.set_defaults(handler=_cmd_cryst_order)

    q = cryst_sub.add_parser(
        "power", parents=[word], help="image under the m-th power endomorphism"
    )
    q.add_argument("--m", type=int, required=True, help="odd exponent")
    q.set_defaults(handler=_cmd_cryst_power)

    q = cryst_sub.add_parser(
        "quotient-check",
        parents=[strands],
        help="check the mod-m reduction of the power-map quotient",
    )
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--samples", type=int, default=500)
    q.add_argument("--seed", type=int, default=2026)
    q.set_defaults(handler=_cmd_cryst_quotient_check)

    p = sub.add_parser("verify", parents=[common_json], help="run the verification suite")
    p.add_argument("--seed", type=int, help="suite seed")
    p.add_argument("--claims", help="comma-separated claim ids or prefixes")
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, payload = args.handler(args)
        if args.json:
            _write_json(args.json, payload)
        return code
    except LimitExceeded as exc:
        print(f"error: cap exceeded: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
