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
pass. It reads a word w ending in x by the full reading, which keeps its
final run of x, whenever that reading is accepted, that is whenever w·x
is. The answer lies further down the walk, so the pass carries the
extensions still open, a letter and a count each, and settles them where
the walk ends: at a base form, or at a word alternating two letters, whose
extensions have closed forms. It then goes on from the extended word, so
no word is reduced twice. Acceptance yields a directive word, read off the base
form the pass stops at, embedding the input in a generated standard word,
plus a witness prefix u for which a·u is lexicographically at most min(w)
under every order on the alphabet. Balance is the paper's lexicographic
test on min(w) and max(w): Duval's algorithm finds where each extreme
starts, and one scan compares their tails; oracles.py counts the windows.
The prefix-scale checks read the least length-k factor of one prefix under
at most 2|A| orders in place of all |A|!: for each least letter a, the two
orders listing the other letters ascending and descending decide whether
a comparison holds under every order with least letter a.
"""

import re
from dataclasses import dataclass
from enum import Enum
from itertools import permutations
from math import inf

from .generate import DirectiveSpec, palindromic_prefix
from .words import (
    MAX_ALPHABET,
    InputError,
    InconclusiveError,
    Order,
    _least_suffix_start,
    _least_suffix_start_duval,
    alph,
    factors,
    min_factor,
    min_of,  # not called here; perfbench's tracer test checks this binding
    validate_word,
)

STABILITY_BUDGET = 2**16

# A maximal run of one letter; words are validated to a-z.
_RUN = re.compile("|".join(f"{c}+" for c in "abcdefghijklmnopqrstuvwxyz"))

# The Sturmian test reads max(w) as the least suffix of w with a and b
# swapped; min(w) is the least suffix of w itself.
_SWAP = str.maketrans("ab", "ba")
# A word over a and b alone, the balance test's input.
_AB_WORD = re.compile("[ab]*")


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


# One shared verdict per reason: a rejection carries nothing else.
_REJECTED = {reason: Verdict(False, None, reason) for reason in RejectReason}


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
        for i in (0, 1) if letters[0] < letters[1] else (1, 0):
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


def _strip(runs, parity: int, m: int):
    """The runs after m single psi_x steps, x's runs being those of the
    given parity: each run of x is m letters shorter, the first and final
    ones gone if they had at most m."""
    letters, counts = runs
    counts = counts.copy()
    counts[parity::2] = [c - m for c in counts[parity::2]]
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


def _room(runs, base, z: str):
    """How many letters z an accepted word where the walk ends takes on the
    right and stays accepted: inf for any number. base is the word's base
    form (x, y, p, q), or None for a word alternating two letters.

    Alternating, ending in e, with other letter e' (at least two of each, as
    it is not in base form): only e separates u·e, read by it as e'^n·e, and
    u·ee reads as e'^n·ee, which nothing separates; u·e' alternates, u·e'e'
    is read by e' alone as e^n·e' and u·e'^3 as e^n·e'e', which nothing
    separates; u·z with a third letter is read by e alone as e'^n·z, and
    nothing separates u·zz. So e' has room 2 and every other letter room 1.

    Base form b = x^p·y·x^q (x^p if y is None), z != x unless said:
    - b·z^j is a base form for z = x, for y None and p <= 1 (x·z^j), and for
      z = y and p + q = 1 (x·y^(1+j), y·x·y^j).
    - y None, p >= 2: b·z is a base form; nothing separates b·zz (xx, zz).
    - p > q + 1: nothing separates x^p·y·z (xx, yz) for q = 0; for q >= 1,
      x alone separates x^p·y·x^q·z, and its q steps, each keeping xx,
      reach x^(p-q)·y·z, which nothing separates.
    - Otherwise b·z is accepted: for q = 0 it is x·y·z (z != y), which y
      alone reads as x·z; for q >= 1, x reads it down to y·z, x·y·z or
      x·y·y (a word alternating two letters on the way is accepted).
    - b·zz: zz leaves x out, and z is no separating letter unless z = y
      (b has xy or yx), so y must separate, that is p, q <= 1. Outside the
      first case that leaves p = q = 1: y alone reads x·y·x·y^j as
      x·x·y^(j-1), a base form for j = 2 and rejected for j >= 3.
    """
    if base is None:
        letters = runs[0]
        return 1 + (z in letters and letters[-1] != z)
    x, y, p, q = base
    if z == x or (y is None and p <= 1) or (z == y and p + q == 1):
        return inf
    if y is None:
        return 1
    if p > q + 1:
        return 0
    return 2 if z == y and p == q == 1 else 1


def _reduce(runs):
    """Undo psi_x^m in run steps until the certificate's word is in base form.

    A run step takes m single steps at once, m being one less than the
    shortest interior run of x and at least 1 (_run_length). Returns
    (reason, chain, base): reason is None when the word is accepted, chain
    holds the letters undone, m of them per run step, and base is the base
    form (x, y, p, q) the certificate reached, None on rejection.

    Each single step T takes the trimmed reading: a final x of the word is a
    whole block, so dropping it from the reading is the same as reading the
    word without it, and as finite episturmian words are closed under
    factors and each extends to the right, that reading alone decides the
    word. The certificate reads a word w ending in its parse letter x by the
    full reading T(w)·x instead whenever a second reduction would accept
    that reading. As T(w)·x = T(w·x) and x parses w·x, that is whenever w·x
    is accepted: the certificate extends its word by its parse letter where
    it can, then steps. The answer lies further down the walk, so the walk
    carries pending, letters z with counts h in order of preference, and
    keeps, for an accepted input: the certificate's word is u·z^j for the
    first pending z with u·z accepted and j <= h greatest with u·z^j
    accepted, else the walk's word u. Each candidate before the
    certificate's word is rejected, and so is every extension of one.

    Inside a run step, a candidate w·s is rejected unless x separates it,
    its separating letters being among w's: past the step's first word xx
    occurs, so x is the only one, and the walk steps from a word with two
    separating letters (alternating them) only with nothing pending, when
    its candidates are itself and w·x. One single step maps:
    - w ending in x: w·x^j to T(w)·x^j and w·z to T(w)·z, while w·zz is
      rejected. Each candidate ending in x tries one more x, so x's count
      grows by one (w·x, tried by w itself, comes after the others or
      repeats one), and every other count falls to 1.
    - w ending in another letter: w·x^j to T(w)·x^(j-1), while w·z is
      rejected, its last two letters lacking x. w·x maps to T(w), which is
      accepted as the input is, so no later candidate counts: only x stays
      pending, with its count (grown by the try, then lowered by the step).
    From a word ending in x^c, a run step thus adds min(c, m) to x's count,
    and the other letters keep count 1 if c >= m and are dropped otherwise.

    At a base form or a word alternating two letters (both separate it) the
    walk settles what is pending by _room: the certificate's word is u·z^j
    for the first z with room, j = min(h, room), and the walk goes on from
    it with nothing pending; in base form with no such z the walk stops. The
    alternating word is the one place where an extension's least separating
    letter can differ from the word's (abbabb reduces to abab, its
    certificate to ababb, which b reads), so nothing is carried past it.
    Both ends are accepted words (an alternating word reads as a power of
    one letter), so a rejected input reaches neither: pending never changes
    its walk, and its verdict and reason are the trimmed walk's.
    """
    chain = []
    reason = RejectReason.NO_SEPARATING_LETTER
    pending = {}
    while True:
        letters, counts = runs
        base = _base_form(runs)
        if base is not None or (pending and max(counts) == 1 and len(set(letters)) == 2):
            # Every letter has room at a word alternating two letters, so
            # only a base form can end the walk here.
            for z, h in pending.items():
                if j := min(h, _room(runs, base, z)):
                    break
            else:
                return None, chain, base
            if letters[-1] == z:
                runs = letters, counts[:-1] + [counts[-1] + j]
            else:
                runs = letters + z, counts + [j]
            pending = {}
            continue
        step = _parse_letter(runs)
        if step is None:
            return reason, chain, None
        reason = RejectReason.REDUCTION_FAILED
        x, parity = step
        m = _run_length(runs, x, parity)
        c = counts[-1] if letters[-1] == x else 0
        if pending:
            pending = {z: h if z == x else 1 for z, h in pending.items() if z == x or c >= m}
        if c:
            pending[x] = pending.get(x, 0) + min(c, m)
        chain.append(x * m)
        runs = _strip(runs, parity, m)


def _reject_reason(w: str) -> RejectReason | None:
    """Why w is not finite episturmian, or None when it is."""
    return _reduce(_runs(w))[0]


def _certificate(w: str, chain: list[str], base) -> Certificate:
    x, y, p, q = base
    reduction = "".join(chain)
    preperiod = reduction + (x * p if y is None else x * max(p, q) + y)
    # The prefixes are nested, so every one that holds w holds it first at
    # the same place and starts with the same |w| letters: the last one,
    # which holds w, gives occurrence and witness.
    generated = palindromic_prefix(preperiod)
    occurrence = generated.find(w)
    directive = DirectiveSpec(preperiod, x)
    assert occurrence >= 0, f"embedding lost {w!r} under directive {directive}"
    return Certificate(
        reduction_letters=reduction,
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
    letters = alph(w)
    if len(letters) > MAX_ALPHABET:
        raise InputError(f"alphabet larger than {MAX_ALPHABET}")
    reason, chain, base = _reduce(_runs(w))
    if reason is not None:
        return _REJECTED[reason]
    cert = _certificate(w, chain, base)
    if not _witness_holds(w, cert.witness_u, letters | alph(cert.witness_u)):
        return _REJECTED[RejectReason.WITNESS_CHECK_FAILED]
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
    # One pass over the orders whose least letter, ranked chr(0), occurs in
    # w: each takes the least suffix m of w's key, compares chr(0)·u with it
    # and keeps the longest m, which decides the error after the loop.
    holds, longest = True, 0
    for perm in permutations(range(len(codes))):
        table = dict(zip(codes, perm))
        key = w.translate(table)
        if "\0" in key:
            m = key[_least_suffix_start(key) :]
            if len(m) > longest:
                longest = len(m)
            holds = holds and "\0" + u[: len(m) - 1].translate(table) <= m
    if len(u) < longest - 1:
        raise InputError(
            f"witness too short: |u|={len(u)} < |min(w)|-1 = {longest - 1}"
        )
    return holds


def is_balanced(w: str) -> bool:
    """True iff equal-length factors of w never differ by more than one
    occurrence of either letter (binary words only).

    By Glen, Justin and Pirillo's characterization, that is iff no u has
    a·u·a a prefix of min(w) and b·u·b a prefix of max(w). The verdict is
    read off the two letters after the common prefix of a^{-1}min(w) and
    b^{-1}max(w), with no SturmianResult built: w is unbalanced exactly
    when they are a and b. Duval's algorithm runs on w itself, for min(w),
    and on w with a and b swapped, for max(w).
    """
    if _AB_WORD.fullmatch(w) is None:
        validate_word(w)
        raise InputError(f"balance is defined over letters a, b: {w!r}")
    if "a" not in w or "b" not in w:
        return True
    lo, hi, c = _tails(w)
    return w[lo + c : lo + c + 1] + w[hi + c : hi + c + 1] != "ab"


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
    lo, hi, c = _tails(w)
    n = len(w)
    common = w[lo : lo + c]
    after_min = w[lo + c] if lo + c < n else None
    after_max = w[hi + c] if hi + c < n else None
    # The tails agree up to c, so an a·u·a / b·u·b split can only come
    # right after, with u the whole common prefix.
    if after_min == "a" and after_max == "b":
        return SturmianResult(False, common, common, after_min, after_max)
    return SturmianResult(True, None, common, after_min, after_max)


def _tails(w: str):
    """(lo, hi, c) for a checked word over both a and b: the tails
    a^{-1}min(w) and b^{-1}max(w) are w[lo:] and w[hi:], and c is the length
    of their common prefix.

    Duval's algorithm runs on the word itself, as a < b < chr(127), its
    sentinel, already holds, and on the word with a and b swapped, whose
    least suffix starts where max(w) does."""
    lo = _least_suffix_start_duval(w) + 1
    hi = _least_suffix_start_duval(w.translate(_SWAP)) + 1
    span = len(w) - max(lo, hi)
    c = 0
    while c < span and w[lo + c] == w[hi + c]:
        c += 1
    return lo, hi, c


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


def _deciding_orders(letters) -> list[Order]:
    """For each letter a, the orders a·rest and a·reverse(rest), rest being
    the other letters ascending: at most 2|A| orders (every order up to
    three letters), which decide any claim "x <= y under every order with
    least letter a" for words x, y over the letters.

    Proof: x <= y holds for every order when x is a prefix of y, and for
    none when y is a proper prefix of x. Otherwise let c != d be the letters
    at their first mismatch: x <= y under an order exactly when c precedes
    d. With least letter a, that holds for every such order if c = a, for
    none if d = a, and otherwise for some orders but not all; the two
    deciding orders rank c and d oppositely, so one of them fails it too.
    """
    letters = sorted(set(letters))
    if len(letters) > MAX_ALPHABET:
        raise InputError(f"alphabet larger than {MAX_ALPHABET}: {letters}")
    names = []
    for a in letters:
        rest = "".join(letters).replace(a, "")
        names += [a + rest, a + rest[::-1]]
    return [Order(name) for name in dict.fromkeys(names)]


def _window_minima(source, k: int):
    """The source's prefix of window(k) letters, which holds every length-k
    factor of its infinite word, and the least length-k window of it, the
    least length-k factor of the infinite word, under each deciding order.

    Both checks compare the minima only through claims "x <= f under every
    order with least letter a, for every length-k factor f", and a's two
    deciding orders settle each such claim, so 2|A| scans give the answers
    of all |A|! orders.

    Every window is at least k letters long, so past the letter budget the
    window need not be computed; where it is, InconclusiveError names it.
    """
    if k < 1:
        raise InputError("k must be positive")
    window = source.window(k) if k <= STABILITY_BUDGET else None
    if window is None or window > STABILITY_BUDGET:
        raise InconclusiveError(k, STABILITY_BUDGET, window)
    prefix = source.prefix(window)
    orders = _deciding_orders(alph(prefix))
    return prefix, {order: min_factor(prefix, k, order) for order in orders}


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
    # Each letter a is the least letter of a deciding order, whose minimum
    # is a·s for every order with least letter a exactly when it is for
    # both deciding ones. Fewer than two deciding orders means one letter.
    if len(minima) < 2:
        raise InputError("fineness needs at least two letters")
    return len({mk[1:] for mk in minima.values()}) == 1
