"""Correctness checks on op outputs, and the output digests.

The checks do not trust the library's own answer. Standard words are
regenerated with this benchmark's generator, balance is recomputed, and
extremal factors are compared against every window. The one library call
is ``check_witness`` on a certificate's witness, which the certificate
format defines as its own check.
"""

import hashlib
import json
import math

from workloads import is_balanced, standard_word


def digest(out) -> str:
    """Short hex digest of one op's output."""
    text = json.dumps(out, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:8]


def _ranked(w: str, order: str) -> str:
    """w with each letter replaced by a letter of its rank under order, so
    plain string comparison is the order's lexicographic comparison."""
    return w.translate(str.maketrans(order, "abcdefgh"[: len(order)]))


def _extremal_ok(w: str, order: str, m: str, greatest: bool) -> bool:
    """m is a suffix of w occurring once, and the least (greatest) length-|m|
    window of w under order."""
    if not m or not w.endswith(m) or w.find(m) != len(w) - len(m):
        return False
    r = _ranked(w, order)
    k = len(m)
    windows = (r[i : i + k] for i in range(len(w) - k + 1))
    best = max(windows) if greatest else min(windows)
    return best == _ranked(m, order)


def _certificate_ok(ep, w: str, cert: dict) -> bool:
    pre, _, _ = cert["embedding_directive"].partition("*")
    generated = standard_word(pre, math.inf)
    i = cert["occurrence_index"]
    return generated[i : i + len(w)] == w and ep.check_witness(w, cert["witness_u"]) is True


def check(ep, op, meta, out) -> bool:
    """True iff out is a correct output of op (ep is the epiword package)."""
    kind, args = op[0], op[1:]
    if kind == "decide":
        w = args[0]
        if meta["expect"]:
            return out["accepted"] is True and _certificate_ok(ep, w, out["certificate"])
        return out == {"accepted": False, "reason": "ReductionFailed", "certificate": None}
    if kind == "wide":
        w = args[0]
        if meta["expect"]:
            return out == {"ok": True, "bad_factor": None}
        # a^(k+2) b a^k b: every proper factor is balanced, the word is not.
        return out == {"ok": False, "bad_factor": w} and not is_balanced(w)
    if kind in ("min", "max"):
        w, order = args
        return isinstance(out, str) and _extremal_ok(w, order, out, greatest=kind == "max")
    if kind == "balanced":
        return out is True and is_balanced(args[0])
    if kind == "sturmian":
        # Prefixes of Sturmian words, balanced by construction; rechecking
        # balance at n = 10^4 would cost seconds.
        return out["sturmian"] is True and out["u"] is None
    if kind in ("witness", "fine", "mineq"):
        # Witnesses are prefixes of the standard word the factor came from;
        # the directives are periodic with every letter recurring.
        return out is True
    if kind == "complexity":
        # Prefixes of Arnoux-Rauzy words over k letters (directive period a
        # permutation), long enough to hold every factor counted: (k-1)m + 1.
        w, max_n = args
        k = len(set(w))
        return out == [(k - 1) * m + 1 for m in range(1, max_n + 1)]
    if kind == "verify":
        check_name, size, max_len = args
        if out["exit"] != 0:
            return False
        report = json.loads(out["stdout"])
        return report == {
            "check": check_name,
            "alphabet_size": size,
            "max_len": max_len,
            "total_words": meta["words"],
            "passed": True,
            "mismatches": [],
        }
    return False
