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
test on min(w) and max(w): Duval's algorithm finds where each extreme
starts, and one scan compares their tails; oracles.py counts the windows.
"""

import re
from dataclasses import dataclass
from enum import Enum
from itertools import permutations

from .generate import DirectiveSpec, palindromic_prefix
from .words import (
    _REFLECT,
    MAX_ALPHABET,
    InputError,
    InconclusiveError,
    Order,
    _least_suffix_start,
    _least_suffix_start_duval,
    all_orders,
    alph,
    factors,
    min_factor,
    min_of,  # not called here; perfbench's tracer test checks this binding
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
            "embedding_directive": str(self.embedding_directive),
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
    # A run of x that is gone lets its neighbours meet; none gone, none merge.
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
    generated = palindromic_prefix(directive.preperiod)
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
    if not _witness_holds(w, cert.witness_u, alph(w) | alph(cert.witness_u)):
        return Verdict(False, None, RejectReason.WITNESS_CHECK_FAILED)
    return Verdict(True, cert, None)


def check_witness(w: str, u: str) -> bool:
    """True iff a·u (cut to |min(w)|) is at most min(w) for every order.

    Orders range over the letters of w and u together; orders whose least
    letter does not occur in w hold vacuously. Each order ranks w once,
    through a plain translate table, and both sides are compared as rank
    strings: min(w) is the key's least suffix and a·u is chr(0) followed by
    u's ranks.
    """
    validate_word(w)
    validate_word(u)
    if not w:
        raise InputError("empty word")
    letters = alph(w) | alph(u)
    if len(letters) > MAX_ALPHABET:
        raise InputError(f"alphabet larger than {MAX_ALPHABET}")
    return _witness_holds(w, u, letters)


def _witness_holds(w: str, u: str, letters) -> bool:
    """check_witness on checked words, letters being Alph(w) ∪ Alph(u)."""
    codes = sorted(map(ord, letters))
    # (table, least suffix of w's key) for each order whose least letter,
    # ranked chr(0), occurs in w.
    minima = []
    for perm in permutations(range(len(codes))):
        table = dict(zip(codes, perm))
        key = w.translate(table)
        if "\0" in key:
            minima.append((table, key[_least_suffix_start(key) :]))
    longest = max(len(m) for _, m in minima)
    if len(u) < longest - 1:
        raise InputError(
            f"witness too short: |u|={len(u)} < |min(w)|-1 = {longest - 1}"
        )
    return all("\0" + u[: len(m) - 1].translate(table) <= m for table, m in minima)


def is_balanced(w: str) -> bool:
    """True iff equal-length factors of w never differ by more than one
    occurrence of either letter (binary words only); by Glen, Justin and
    Pirillo's characterization, iff sturmian_test finds no u with a·u·a a
    prefix of min(w) and b·u·b a prefix of max(w)."""
    validate_word(w)
    letters = alph(w)
    if not letters <= {"a", "b"}:
        raise InputError(f"balance is defined over letters a, b: {w!r}")
    return len(letters) < 2 or _sturmian(w).sturmian


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
    a^{-1}min(w) and b^{-1}max(w) is reported either way. Both extremes are
    least suffixes, of the key and of the reflected key, which Duval's
    algorithm finds in linear time; one scan of the two tails then finds
    the first letter where they differ or one ends.
    """
    validate_word(w)
    if alph(w) != {"a", "b"}:
        raise InputError("needs a binary word containing both a and b")
    return _sturmian(w)


def _sturmian(w: str) -> SturmianResult:
    """sturmian_test on a checked word over both a and b."""
    ranks = _AB.key(w)
    # The tails a^{-1}min(w) and b^{-1}max(w) are w[lo:] and w[hi:].
    lo = _least_suffix_start_duval(ranks) + 1
    hi = _least_suffix_start_duval(ranks.translate(_REFLECT)) + 1
    n = len(w)
    span = n - max(lo, hi)
    c = 0
    while c < span and w[lo + c] == w[hi + c]:
        c += 1
    common = w[lo : lo + c]
    after_min = w[lo + c] if lo + c < n else None
    after_max = w[hi + c] if hi + c < n else None
    # The tails agree up to c, so an a·u·a / b·u·b split can only come
    # right after, with u the whole common prefix.
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


def _window_minima(source, k: int):
    """The source's prefix of window(k) letters, which holds every length-k
    factor of its infinite word, and each order's least length-k window of
    it: the least length-k factor of the infinite word.

    Every window is at least k letters long, so past the letter budget the
    window need not be computed; where it is, InconclusiveError names it.
    """
    if k < 1:
        raise InputError("k must be positive")
    window = source.window(k) if k <= STABILITY_BUDGET else None
    if window is None or window > STABILITY_BUDGET:
        # A window too long for the budget can have thousands of digits.
        size = f"{window}-letter " if window is not None and window.bit_length() <= 64 else ""
        raise InconclusiveError(
            f"length-{k} factors need a {size}window past the {STABILITY_BUDGET}-letter budget"
        )
    prefix = source.prefix(window)
    return prefix, {order: min_factor(prefix, k, order) for order in all_orders(alph(prefix))}


def check_min_inequality(d: DirectiveSpec, k: int) -> bool:
    """Check a·t <= min(t) at cutoff k for the directed standard word t,
    for every order; strict directives must achieve equality.

    The minima are read off the prefix that holds every length-k factor of
    t. Each order's least letter a occurs in t and so starts a length-k
    factor: the least one starts with a, as a·t does, and the two compare
    on the rest.
    """
    prefix, minima = _window_minima(d, k)
    floors = {order: order.min_letter + prefix[: k - 1] for order in minima}
    if not all(o.key(floors[o]) <= o.key(mk) for o, mk in minima.items()):
        return False
    return not d.is_strict or minima == floors


def check_fine_prefix(source, k: int) -> bool:
    """True iff min(t | k) = a·s for one shared s across all orders.

    The minima are read off the prefix that holds every length-k factor of
    t. Each order's least letter a occurs in the infinite word t and so
    starts a length-k factor; the least one starts with a, which needs no
    test, and only the tails s are compared.
    """
    _, minima = _window_minima(source, k)
    # One order per permutation: fewer than two orders means one letter.
    if len(minima) < 2:
        raise InputError("fineness needs at least two letters")
    return len({mk[1:] for mk in minima.values()}) == 1
