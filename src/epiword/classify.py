"""Deciders: episturmian membership with machine-checkable certificates,
balance and Sturmian tests, and prefix-scale checks for generated words.

The membership decider works by de-substitution on the run-length form of
the word, in one iterative pass with no cache: undo psi_x for the least
letter x whose inverse block parse succeeds (the least separating letter)
and repeat, accepting once the word is a single letter off a power of
another. A run step undoes psi_x^m at once, m being one less than the
shortest interior run of x (at least 1): while every interior run of x is
at least 2 long, no other letter parses and the word is not in base form.
So one step costs O(runs) and the number of steps counts letter changes in
the directive rather than letters. The certificate is built in the same
pass: a word ending in x takes a single step by the full reading, which
keeps its final run of x, when that reading is accepted, and the run step
otherwise. The trimmed reading is accepted exactly when the word is, and
the full reading extends it, so the pass accepts the same words as one
that always trims. Acceptance yields a directive word, read off the base
form the pass stops at, embedding the input in a generated standard word,
plus a witness prefix u for which a·u is lexicographically at most min(w)
under every order on the alphabet. Balance is the paper's lexicographic
test on min(w) and max(w), which reads the two extremes letter by letter,
in lockstep, only until their tails disagree; oracles.py counts the
windows.
"""

import re
from dataclasses import dataclass
from enum import Enum
from itertools import count

from .generate import DirectiveSpec, palindromic_walk
from .words import (
    _REFLECT,
    MAX_ALPHABET,
    InputError,
    InconclusiveError,
    Order,
    _least_prefix_starts,
    all_orders,
    alph,
    factors,
    lex_le,
    min_of,
    validate_word,
)

STABILITY_BUDGET = 2**16

# A maximal run of one letter; words are validated to a-z.
_RUN = re.compile("|".join(f"{c}+" for c in "abcdefghijklmnopqrstuvwxyz"))

# The order a < b of the Sturmian test.
_AB = Order("ab")


class RejectReason(str, Enum):
    NO_SEPARATING_LETTER = "NoSeparatingLetter"
    REDUCTION_FAILED = "ReductionFailed"
    WITNESS_CHECK_FAILED = "WitnessCheckFailed"


@dataclass(frozen=True)
class Certificate:
    """Evidence for acceptance, checkable without rerunning the decider."""

    reduction_letters: str
    base_word: str
    embedding_directive: DirectiveSpec
    occurrence_index: int
    witness_u: str

    def to_json_dict(self) -> dict:
        return {
            "reduction_letters": self.reduction_letters,
            "base_word": self.base_word,
            "embedding_directive": self.embedding_directive.text(),
            "occurrence_index": self.occurrence_index,
            "witness_u": self.witness_u,
        }


@dataclass(frozen=True)
class Verdict:
    accepted: bool
    certificate: Certificate | None = None
    reason: RejectReason | None = None

    def to_json_dict(self) -> dict:
        return {
            "accepted": self.accepted,
            "reason": self.reason.value if self.reason else None,
            "certificate": self.certificate.to_json_dict() if self.certificate else None,
        }


def separating_letters(w: str) -> set[str]:
    """Letters of w occurring in every length-2 factor of w.

    For |w| <= 1 the condition is vacuous and every letter of w qualifies.
    """
    letters = alph(w)
    if len(w) <= 1:
        return letters
    pairs = factors(w, 2)
    return {a for a in letters if all(a in f for f in pairs)}


def _runs(w: str):
    """Run-length form of w: the run letters, no letter twice in a row, as a
    string, and the run lengths as a list."""
    runs = _RUN.findall(w)
    return "".join([run[0] for run in runs]), list(map(len, runs))


def _base_form(runs):
    """(x, y, p, q) if the word is x^p y x^q with at most one letter y
    differing from x (y is None for a power of the single letter x, with
    q = 0), else None."""
    letters, counts = runs
    if len(letters) == 1:
        return letters, None, counts[0], 0
    if len(letters) == 2:
        # y is the lesser of the two letters when both occur once.
        for i in sorted((0, 1), key=letters.__getitem__):
            if counts[i] == 1:
                p, q = (0, counts[1]) if i == 0 else (counts[0], 0)
                return letters[1 - i], letters[i], p, q
    if len(letters) == 3 and letters[0] == letters[2] and counts[1] == 1:
        return letters[0], letters[1], counts[0], counts[2]
    return None


def _parse_letter(runs):
    """(x, parity) for the least letter x whose psi_x block parse succeeds on
    the word (aligned to start with x), which is the least separating letter;
    x's runs are then those at the positions of that parity. None if no
    letter's parse succeeds. The word has at least two runs.

    The parse succeeds exactly when no two letters other than x are adjacent,
    that is when x's runs alternate with single other letters.
    """
    letters, counts = runs
    for parity in (0, 1) if letters[0] < letters[1] else (1, 0):
        xs = letters[parity::2]
        if xs.count(xs[0]) == len(xs) and max(counts[1 - parity :: 2]) == 1:
            return xs[0], parity
    return None


def _run_length(runs, x: str, parity: int) -> int:
    """The number m of single trimmed psi_x steps that follow one another
    from the word: one less than its shortest interior run of x, and at
    least 1, as the word itself qualifies.

    A step takes one letter off every run of x; the first and final runs
    may run out. While every interior run of x is at least 2 long, no other
    letter can parse and the word cannot be in base form, so every word
    reached before the m-th step takes the next single step with x.
    """
    letters, counts = runs
    xs = counts[parity::2]
    # The first run is one of x exactly when parity is 0. A word that is
    # not in base form and parses with x has an interior run of x.
    interior = xs[1 - parity : len(xs) - (letters[-1] == x)]
    return max(1, min(interior) - 1)


def _strip(runs, parity: int, m: int, keep_final: bool = False):
    """The runs after m single psi_x steps, x's runs being those of the
    given parity: each run of x is m letters shorter, the first and final
    ones gone if they had at most m; with keep_final the final run, one of
    x, keeps its length (the full reading of its lone x blocks)."""
    letters, counts = runs
    counts = counts.copy()
    shorter = [c - m for c in counts[parity::2]]
    if keep_final:
        shorter[-1] += m
    counts[parity::2] = shorter
    if min(shorter) > 0:
        return letters, counts
    # Runs of x are gone: an interior one's two neighbours meet.
    merged_letters, merged = [], []
    for c, k in zip(letters, counts):
        if k <= 0:
            continue
        if merged_letters and merged_letters[-1] == c:
            merged[-1] += k
        else:
            merged_letters.append(c)
            merged.append(k)
    return "".join(merged_letters), merged


def _reduce(runs, certify: bool = False):
    """Undo psi_x^m in run steps until the word is in base form.

    A run step takes m single steps at once, m being one less than the
    shortest interior run of x and at least 1 (_run_length). Returns
    (reason, chain, base): reason is None when the word is accepted, chain
    holds the letters undone, m of them per run step, and base is the base
    form (x, y, p, q) the word reached, None on rejection. Without certify
    every step takes the trimmed reading: a final x of the word is a whole
    block, so dropping it from the reading is the same as reading the word
    without it, and as finite episturmian words are closed under factors
    and each extends to the right, that reading alone decides the word.
    With certify a word ending in x takes a single step by the full
    reading, which keeps the final run of x whole, when that reading is
    accepted, and the run step otherwise. The verdict stays exact: an
    accepted word leaves the trimmed path only for an accepted reading, and
    a rejected word's full reading extends its rejected trimmed one, so it
    follows the trimmed path to where no letter parses. Once a full reading
    is rejected, so is the next one along the run step, as it is the
    trimmed reading of the rejected one; the run step therefore takes the
    single steps the certificate would.
    """
    chain = []
    reason = RejectReason.NO_SEPARATING_LETTER
    while (base := _base_form(runs)) is None:
        step = _parse_letter(runs)
        if step is None:
            return reason, chain, None
        reason = RejectReason.REDUCTION_FAILED
        x, parity = step
        if certify and runs[0][-1] == x:
            full = _strip(runs, parity, 1, keep_final=True)
            if _reduce(full)[0] is None:
                chain.append(x)
                runs = full
                continue
        m = _run_length(runs, x, parity)
        chain.append(x * m)
        runs = _strip(runs, parity, m)
    return None, chain, base


def _reject_reason(w: str) -> RejectReason | None:
    """Why w is not finite episturmian, or None when it is."""
    return _reduce(_runs(w))[0]


def _certificate(w: str, chain: list[str], base) -> Certificate:
    x, y, p, q = base
    tail = x * p if y is None else x * max(p, q) + y
    directive = DirectiveSpec("".join(chain) + tail, x)
    # The prefixes are nested, so every one that holds w holds it first at
    # the same place and starts with the same |w| letters: the last one,
    # which holds w, gives occurrence and witness.
    for generated in palindromic_walk(directive.preperiod):
        pass
    occurrence = generated.find(w)
    assert occurrence >= 0, f"embedding lost {w!r} under directive {directive}"
    return Certificate(
        reduction_letters="".join(chain),
        base_word=x * p + (y or "") + x * q,
        embedding_directive=directive,
        occurrence_index=occurrence,
        witness_u=generated[: len(w)],
    )


def is_finite_episturmian(w: str) -> Verdict:
    """Decide whether w occurs in some episturmian word.

    Accepts with a certificate: the de-substitution letters, the terminal
    base word, a directive word whose generated standard word contains w,
    and a witness u passing check_witness. Rejections name the first
    obstruction.
    """
    validate_word(w)
    if not w:
        raise InputError("empty word")
    if len(alph(w)) > MAX_ALPHABET:
        raise InputError(f"alphabet larger than {MAX_ALPHABET}")
    reason, chain, base = _reduce(_runs(w), certify=True)
    if reason is not None:
        return Verdict(False, None, reason)
    cert = _certificate(w, chain, base)
    if not check_witness(w, cert.witness_u):
        return Verdict(False, None, RejectReason.WITNESS_CHECK_FAILED)
    return Verdict(True, cert, None)


def check_witness(w: str, u: str) -> bool:
    """True iff a·u (cut to |min(w)|) is at most min(w) for every order.

    Orders range over the letters of w and u together; orders whose least
    letter does not occur in w hold vacuously.
    """
    validate_word(w)
    validate_word(u)
    if not w:
        raise InputError("empty word")
    letters = alph(w) | alph(u)
    if len(letters) > MAX_ALPHABET:
        raise InputError(f"alphabet larger than {MAX_ALPHABET}")
    present = alph(w)
    minima = [
        (order, min_of(w, order))
        for order in all_orders(letters)
        if order.min_letter in present
    ]
    longest = max(len(m) for _, m in minima)
    if len(u) < longest - 1:
        raise InputError(
            f"witness too short: |u|={len(u)} < |min(w)|-1 = {longest - 1}"
        )
    return all(
        lex_le(order.min_letter + u[: len(m) - 1], m, order) for order, m in minima
    )


def find_witness(w: str) -> str | None:
    """A witness u validating w, or None when w is not episturmian."""
    verdict = is_finite_episturmian(w)
    return verdict.certificate.witness_u if verdict.accepted else None


def is_balanced(w: str) -> bool:
    """True iff equal-length factors of w never differ by more than one
    occurrence of either letter (binary words only); by Glen, Justin and
    Pirillo's characterization, iff sturmian_test finds no u with a·u·a a
    prefix of min(w) and b·u·b a prefix of max(w)."""
    validate_word(w)
    if not alph(w) <= {"a", "b"}:
        raise InputError(f"balance is defined over letters a, b: {w!r}")
    return len(set(w)) < 2 or sturmian_test(w).sturmian


@dataclass(frozen=True)
class SturmianResult:
    sturmian: bool
    u: str | None
    common_prefix: str
    after_min: str | None
    after_max: str | None


def sturmian_test(w: str) -> SturmianResult:
    """Sturmian test via extremal factors: w fails exactly when some u has
    a·u·a a prefix of min(w) and b·u·b a prefix of max(w).

    Such a u is unique when it exists; the common-prefix trace of
    a^{-1}min(w) and b^{-1}max(w) is reported either way. The verdict and
    the trace depend on min(w) and max(w) only up to the first letter where
    those tails differ or one ends, so both are read letter by letter and
    neither is built beyond that point.
    """
    validate_word(w)
    if alph(w) != {"a", "b"}:
        raise InputError("needs a binary word containing both a and b")
    ranks = _AB.key(w)
    lo = _least_prefix_starts(ranks)
    hi = _least_prefix_starts(ranks.translate(_REFLECT))
    # The k-th letters of min(w) and max(w) are w[P[0] + k - 1] for the
    # position lists P that lo and hi yield at step k; the first letters
    # are a and b.
    start = next(lo)[0]
    next(hi)
    for k in count(2):
        mins, maxs = next(lo, None), next(hi, None)
        after_min = w[mins[0] + k - 1] if mins else None
        after_max = w[maxs[0] + k - 1] if maxs else None
        if after_min is None or after_min != after_max:
            break
        start = mins[0]
    common = w[start + 1 : start + k - 1]
    # Below k the two tails agree, so an a·u·a / b·u·b split can only come
    # at k itself, with u the whole common prefix.
    if after_min == "a" and after_max == "b":
        return SturmianResult(False, common, common, after_min, after_max)
    return SturmianResult(True, None, common, after_min, after_max)


@dataclass(frozen=True)
class WideSenseResult:
    ok: bool
    bad_factor: str | None


def wide_sense_check(prefix: str) -> WideSenseResult:
    """True iff every factor of prefix is finite episturmian.

    Factors of episturmian words are episturmian, so testing the prefix
    itself suffices; on failure the shortest (then leftmost) bad factor is
    reported.
    """
    validate_word(prefix)
    if not prefix:
        return WideSenseResult(True, None)
    if _reject_reason(prefix) is None:
        return WideSenseResult(True, None)
    # Two-pointer scan: i is the least start with prefix[i:j] good. A bad
    # window whose two one-letter-shorter sub-windows are good is a minimal
    # bad factor; every one shows up as i advances, and the shortest bad
    # factor is minimal. Single letters are good, so prefix[i+1:j] is never
    # empty here.
    best = None
    i = 0
    for j in range(2, len(prefix) + 1):
        if _reject_reason(prefix[i:j]) is None:
            continue
        while _reject_reason(prefix[i + 1 : j]) is not None:
            i += 1
        if best is None or j - i < len(best):
            best = prefix[i:j]
        i += 1
    return WideSenseResult(False, best)


def _doubling_minima(source, k: int):
    """Prefixes of the generated word, doubling in length up to the letter
    budget, each with its per-order length-k minima."""
    if k < 1:
        raise InputError("k must be positive")
    length = max(4 * k, 64)
    while length <= STABILITY_BUDGET:
        prefix = source.prefix(length)
        # One window set, shared by all |A|! orders: a rank scan per order
        # (min_factor) was up to 1.9x slower on the 4-letter fine checks of
        # perfbench's extremal workload, seed 0 (3.6 -> 6.7 ms at k = 20).
        windows = factors(prefix, k)
        yield prefix, {
            order: min(windows, key=order.key) for order in all_orders(alph(prefix))
        }
        length *= 2


def check_min_inequality(d: DirectiveSpec, k: int) -> bool:
    """Check a·t <= min(t) at cutoff k for the directed standard word t,
    for every order; strict directives must achieve equality.

    The directed word is standard by construction, so its length-k minima
    never drop below a·t cut to k; once every order's minimum over a finite
    prefix reaches that floor, the strict equality is exactly converged.
    Stabilization alone is not trusted for equality: the witnessing factor
    can first occur far beyond where the minima stop moving.
    """
    prev = None
    for prefix, minima in _doubling_minima(d, k):
        floors = {order: order.min_letter + prefix[: k - 1] for order in minima}
        if not all(lex_le(floors[o], mk, o) for o, mk in minima.items()):
            return False
        if minima == (floors if d.is_strict else prev):
            return True
        prev = minima
    raise InconclusiveError(
        f"length-{k} minima not settled within {STABILITY_BUDGET} letters"
    )


def check_fine_prefix(source, k: int) -> bool:
    """True iff min(t | k) = a·s for one shared s across all orders.

    The minima are read off the first doubled prefix on which they repeat
    those of the prefix before; InconclusiveError past the letter budget.
    """
    prev = None
    for prefix, minima in _doubling_minima(source, k):
        if minima == prev:
            break
        prev = minima
    else:
        raise InconclusiveError(
            f"length-{k} minima still changing at {STABILITY_BUDGET} letters"
        )
    if len(alph(prefix)) < 2:
        raise InputError("fineness needs at least two letters")
    tails = set()
    for order, mk in minima.items():
        if not mk.startswith(order.min_letter):
            return False
        tails.add(mk[1:])
    return len(tails) == 1
