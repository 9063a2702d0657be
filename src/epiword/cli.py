"""Command-line entry point.

Subcommands: generate, minmax, test, witness, balanced, complexity, verify.
Exit codes: 0 success/accept, 1 clean reject, 2 usage or input error,
3 inconclusive (stability budget exceeded). Pass --json for stable
machine-readable output (no timings there; wall time only in verify text
mode).
"""

import argparse
import json
import sys
from fractions import Fraction

from .classify import (
    check_fine_prefix,
    find_witness,
    is_balanced,
    is_finite_episturmian,
    sturmian_test,
    wide_sense_check,
)
from .generate import (
    DirectiveSpec,
    EpiskewSpec,
    EventuallyPeriodicSpec,
    MechanicalSpec,
)
from .oracles import sweep
from .words import (
    InconclusiveError,
    InputError,
    InsufficientDirectiveError,
    Order,
    alphabetical,
    factor_complexity,
    max_factor,
    max_of,
    min_factor,
    min_of,
    validate_word,
)

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3


def _emit(args, payload: dict, lines: list[str]):
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _input_words(arg: str) -> list[str]:
    """The word argument itself, or words one per line from stdin for '-'."""
    if arg == "-":
        words = [line.strip() for line in sys.stdin if line.strip()]
        if not words:
            raise InputError("no words on stdin")
        return [validate_word(w) for w in words]
    return [validate_word(arg)]


def _parse_mechanical(text: str, ceiling: bool) -> MechanicalSpec:
    try:
        alpha_text, _, rho_text = text.partition(":")
        return MechanicalSpec(
            alpha=Fraction(alpha_text),
            rho=Fraction(rho_text) if rho_text else Fraction(0),
            variant="ceiling" if ceiling else "floor",
        )
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad mechanical spec {text!r}: {exc}") from exc


def _parse_skew(text: str) -> EventuallyPeriodicSpec:
    head, comma, cycle = text.partition(",")
    if not comma:
        raise InputError(f"skew spec must be U,V with V non-empty: {text!r}")
    return EventuallyPeriodicSpec(head, cycle)


def _parse_source(text: str):
    """A prefix source from compact text: episkew JSON, skew U,V pair, or
    directive form PRE*PERIOD."""
    if text.lstrip().startswith("{"):
        return EpiskewSpec.from_json(json.loads(text))
    if "," in text:
        return _parse_skew(text)
    return DirectiveSpec.from_text(text)


def _cmd_generate(args) -> int:
    n = args.length
    if n < 0:
        raise InputError("--length must be non-negative")
    if args.directive is not None:
        source = DirectiveSpec.from_text(args.directive)
    elif args.mechanical is not None:
        source = _parse_mechanical(args.mechanical, args.ceiling)
    elif args.episkew is not None:
        source = EpiskewSpec.from_json(json.loads(args.episkew))
    else:
        source = _parse_skew(args.skew)
    word = source.prefix(n)
    _emit(args, {"word": word, "length": len(word)}, [word])
    return EXIT_OK


def _each_word(args, text: str, judge) -> int:
    """Run judge(args, w) -> (accepted, payload, lines) on each input word,
    emit each result, and return EXIT_REJECT if any word was rejected."""
    code = EXIT_OK
    for w in _input_words(text):
        accepted, payload, lines = judge(args, w)
        _emit(args, payload, lines)
        if not accepted:
            code = EXIT_REJECT
    return code


def _minmax(args, w: str):
    if not w:
        raise InputError("empty word")
    order = Order(args.order) if args.order else alphabetical(w)
    if args.k is not None:
        lo = min_factor(w, args.k, order)
        hi = max_factor(w, args.k, order)
    else:
        lo = min_of(w, order)
        hi = max_of(w, order)
    payload = {"word": w, "order": order.letters, "k": args.k, "min": lo, "max": hi}
    return True, payload, [f"min={lo}", f"max={hi}"]


def _episturmian(args, w: str):
    verdict = is_finite_episturmian(w)
    if verdict.accepted:
        cert = verdict.certificate
        lines = [
            "episturmian: yes",
            f"directive={cert.embedding_directive}",
            f"occurrence={cert.occurrence_index}",
            f"witness={cert.witness_u}",
        ]
    else:
        lines = [f"episturmian: no ({verdict.reason.value})"]
    return verdict.accepted, verdict.to_json_dict(), lines


def _wide_sense(args, w: str):
    result = wide_sense_check(w)
    payload = {"ok": result.ok, "bad_factor": result.bad_factor}
    if result.ok:
        return True, payload, ["wide-sense: yes"]
    return False, payload, [f"wide-sense: no (bad factor {result.bad_factor})"]


def _witness(args, w: str):
    u = find_witness(w)
    return u is not None, {"word": w, "witness": u}, [u if u is not None else "none"]


def _balanced(args, w: str):
    if is_balanced(w):
        return True, {"word": w, "balanced": True, "u": None}, ["balanced"]
    u = sturmian_test(w).u
    return False, {"word": w, "balanced": False, "u": u}, [f"not balanced: u={u}"]


def _cmd_test(args) -> int:
    if args.mode != "fine":
        judge = _episturmian if args.mode == "episturmian" else _wide_sense
        return _each_word(args, args.target, judge)
    source = _parse_source(args.target)
    ok = check_fine_prefix(source, args.k)
    _emit(args, {"fine": ok, "k": args.k}, [f"fine: {'yes' if ok else 'no'}"])
    return EXIT_OK if ok else EXIT_REJECT


def _cmd_complexity(args) -> int:
    if args.max_n < 1:
        raise InputError("--max-n must be positive")
    if args.length < 0:
        raise InputError("--length must be non-negative")
    text = args.spec
    if "*" in text or "," in text or text.lstrip().startswith("{"):
        prefix = _parse_source(text).prefix(args.length)
    else:
        prefix = validate_word(text)
    counts = factor_complexity(prefix, min(args.max_n, len(prefix)))
    _emit(
        args,
        {"counts": counts, "prefix_length": len(prefix)},
        [" ".join(str(c) for c in counts)],
    )
    return EXIT_OK


def _cmd_verify(args) -> int:
    report = sweep(args.check, args.alphabet, args.max_len)
    lines = [
        f"check={report.check} alphabet={report.alphabet_size} "
        f"max_len={report.max_len} total={report.total_words} "
        f"mismatches={len(report.mismatches)}"
    ]
    for w, d, o in report.mismatches:
        lines.append(f"mismatch word={w} decider={d} oracle={o}")
    lines.append(f"elapsed={report.elapsed_seconds:.2f}s")
    _emit(args, report.to_json_dict(include_timing=False), lines)
    return EXIT_OK if report.passed else EXIT_REJECT


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")

    parser = argparse.ArgumentParser(prog="epiword", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", parents=[common], help="generate a word prefix")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--directive", metavar="SPEC", help="directive form PRE*PERIOD")
    source.add_argument("--mechanical", metavar="A:R", help="slope:intercept rationals")
    source.add_argument("--episkew", metavar="JSON", help="episkew spec as JSON")
    source.add_argument("--skew", metavar="U,V", help="ultimately periodic word U V^w")
    p.add_argument("--ceiling", action="store_true", help="ceiling-variant mechanical")
    p.add_argument("--length", type=int, required=True, metavar="N")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("minmax", parents=[common], help="extremal factors of a word")
    p.add_argument("word")
    p.add_argument("--order", metavar="ORD", help="letters smallest first, e.g. bac")
    p.add_argument("--k", type=int, help="fixed factor length")
    p.set_defaults(func=lambda args: _each_word(args, args.word, _minmax))

    p = sub.add_parser("test", parents=[common], help="classification tests")
    p.add_argument("mode", choices=["episturmian", "wide", "fine"])
    p.add_argument("target", help="word, or spec for the fine test")
    p.add_argument("--k", type=int, default=50, help="cutoff for the fine test")
    p.set_defaults(func=_cmd_test)

    p = sub.add_parser("witness", parents=[common], help="find a validating witness")
    p.add_argument("word")
    p.set_defaults(func=lambda args: _each_word(args, args.word, _witness))

    p = sub.add_parser("balanced", parents=[common], help="balance test for binary words")
    p.add_argument("word")
    p.set_defaults(func=lambda args: _each_word(args, args.word, _balanced))

    p = sub.add_parser("complexity", parents=[common], help="factor counts by length")
    p.add_argument("spec", help="word, or generating spec")
    p.add_argument("--max-n", type=int, required=True, dest="max_n")
    p.add_argument("--length", type=int, default=5000, help="generated prefix length")
    p.set_defaults(func=_cmd_complexity)

    p = sub.add_parser("verify", parents=[common], help="decider-vs-oracle sweeps")
    p.add_argument("check", choices=["episturmian", "sturmian"])
    p.add_argument("--alphabet", type=int, choices=[2, 3], required=True)
    p.add_argument("--max-len", type=int, required=True, dest="max_len")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InconclusiveError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (InputError, InsufficientDirectiveError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: bad input ({exc})", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
