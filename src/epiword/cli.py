"""Command-line entry point.

Subcommands: generate, minmax, test, witness, balanced, complexity, verify.
Exit codes: 0 success/accept, 1 clean reject, 2 usage or input error
(including an input too large for the available memory, and stdout closed
by its reader), 3 inconclusive (stability budget exceeded). Pass --json for
stable machine-readable output (no timings there; wall time only in verify
text mode).

The parser is built once per process, on the first main call, and serves
every later call.

The per-word subcommands judge and print each stdin word of '-' before they
read the next line, so a batch holds one line in memory; a batch with an
invalid word prints the results before it, then the error, and exits 2.
"""

import argparse
import functools
import json
import os
import re
import sys

from .classify import (
    check_fine_prefix,
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
    alph,
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

# Fraction expands a decimal exponent into a power of ten, at a cost that
# grows faster than the exponent: 0.13 s at 10^6, 5.1 s at 10^7 (2 vCPUs).
# _EXPONENT reads the exponent's digits after its sign and leading zeros.
_MAX_EXPONENT = 10**6
_EXPONENT = re.compile(r"e[-+]?[0_]*([\d_]*)\s*(?=:|\Z)", re.IGNORECASE)


def _emit(args, payload: dict, lines: list[str]):
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _parse_mechanical(text: str, ceiling: bool) -> MechanicalSpec:
    # Only this parse needs fractions (and the decimal module it loads).
    from fractions import Fraction

    for digits in _EXPONENT.findall(text.replace("_", "")):
        if len(digits) > 7 or int(digits or 0) > _MAX_EXPONENT:  # 7 digits hold 10^6
            raise InputError(f"bad mechanical spec {text!r}: exponent above {_MAX_EXPONENT}")
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


def _parse_episkew(text: str) -> EpiskewSpec:
    # The JSON parser recurses once per nesting level, so a deep enough
    # input ends in RecursionError.
    try:
        return EpiskewSpec.from_json(json.loads(text))
    except RecursionError as exc:
        raise InputError("episkew spec is nested too deeply") from exc


def _parse_source(text: str):
    """A prefix source from compact text: episkew JSON, skew U,V pair, or
    directive form PRE*PERIOD."""
    if text.lstrip().startswith("{"):
        return _parse_episkew(text)
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
        source = _parse_episkew(args.episkew)
    else:
        source = _parse_skew(args.skew)
    word = source.prefix(n)
    _emit(args, {"word": word, "length": len(word)}, [word])
    return EXIT_OK


def _each_word(args, text: str, judge) -> int:
    """Run judge(args, w) -> (accepted, payload, lines) on the word argument,
    or for '-' on each non-blank stdin line, emitting each result before the
    next line is read; EXIT_REJECT if any word was rejected."""
    words = filter(None, map(str.strip, sys.stdin)) if text == "-" else [text]
    rejected = None  # until a word is judged
    for w in words:
        accepted, payload, lines = judge(args, validate_word(w))
        _emit(args, payload, lines)
        rejected = rejected or not accepted
    if rejected is None:
        raise InputError("no words on stdin")
    return EXIT_REJECT if rejected else EXIT_OK


def _minmax(args, w: str):
    if not w:
        raise InputError("empty word")
    order = Order(args.order if args.order is not None else "".join(sorted(alph(w))))
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
    verdict = is_finite_episturmian(w)
    u = verdict.certificate.witness_u if verdict.accepted else None
    return verdict.accepted, {"word": w, "witness": u}, [u if u is not None else "none"]


def _balanced(args, w: str):
    # A word on both a and b takes one Sturmian test, which gives the verdict
    # and u together; is_balanced judges the rest, raising on foreign letters.
    if alph(w) == {"a", "b"}:
        u = sturmian_test(w).u
        balanced = u is None
    else:
        balanced = is_balanced(w)
    if balanced:
        return True, {"word": w, "balanced": True, "u": None}, ["balanced"]
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
    _emit(args, report.to_json_dict(), lines)
    return EXIT_OK if report.passed else EXIT_REJECT


@functools.cache
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
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout. Point it at devnull, so that the flush at
        # exit cannot raise again (the SIGPIPE note in Python's signal docs).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: output closed", file=sys.stderr)
        return EXIT_USAGE
    except InconclusiveError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (InputError, InsufficientDirectiveError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: bad input ({exc})", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
