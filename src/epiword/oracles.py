"""Independent brute-force references for validating the deciders.

The membership oracle enumerates directive words outright and generates the
words they direct. Directive enumeration walks one directive length at a
time, so a window's first depth is its least, and records, at each closure
step, only the windows outside the mirrored parent, since the rest are
factors of the parent. The balance oracle grows the balanced words a letter
at a time, keeping per word the least and greatest count of b per window
length and widening them by the new suffixes' counts; an extension stops at
the first window length where that band grows more than 1 wide. Sweeps
compare a decider against its oracle over every word up to a length budget,
building each length's words by extending the previous length's. The
certificate checker rebuilds an accepted word's embedding with pal_closure
and checks its witness order by order, with an Order, a min_of and a lex_le
per order.
"""

import time
from dataclasses import dataclass, field

from .classify import Certificate, is_balanced, is_finite_episturmian
from .generate import pal_closure
from .words import (
    MAX_ALPHABET,
    InputError,
    all_orders,
    alph,
    lex_le,
    min_of,
    validate_word,
)

_SWEEP_BUDGET = {2: 14, 3: 8}


def oracle_is_finite_episturmian(w: str) -> bool:
    """True iff w occurs in the word generated by some directive over the
    letters of w.

    Enumeration is exhaustive with iterative deepening up to directive
    length |w|. Searching deeper cannot change the answer: any embedding
    de-substitutes, shrinking the word at every step, to one of directive
    length at most |w|.
    """
    validate_word(w)
    if not w:
        raise InputError("empty word")
    letters = sorted(alph(w))

    def search(u: str, remaining: int) -> bool:
        for x in letters:
            u2 = pal_closure(u + x)
            if w in u2:
                return True
            if remaining > 1 and search(u2, remaining - 1):
                return True
        return False

    # Deepening redoes the shallower levels on a rejected word, but one
    # search at limit |w| dives deep down the first letters' branches before
    # it tries a short directive: on the accepted baabacababac it makes
    # 147 634 pal_closure calls against 246 for deepening.
    return any(search("", limit) for limit in range(1, len(w) + 1))


def oracle_check_witness(w: str, u: str) -> bool:
    """check_witness by its definition: for every Order on the letters of w
    and u whose least letter a occurs in w, lex_le(a·u, min_of(w)) with a·u
    cut to |min(w)|. Same answers and errors as check_witness."""
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


def check_certificate(w: str, cert: Certificate) -> bool:
    """True iff cert shows w finite episturmian without the decider's own
    construction: the directive's preperiod, closed letter by letter with
    pal_closure, holds w at occurrence_index, witness_u is that word's first
    |w| letters, and oracle_check_witness accepts the witness."""
    embedding = ""
    for x in cert.embedding_directive.preperiod:
        embedding = pal_closure(embedding + x)
    start = cert.occurrence_index
    return (
        0 <= start
        and embedding[start : start + len(w)] == w
        and cert.witness_u == embedding[: len(w)]
        and oracle_check_witness(w, cert.witness_u)
    )


def discovery_table(letters, max_len: int) -> dict[str, int]:
    """factor -> least directive length whose generated word contains it,
    for factors of length up to max_len, over all directives on the given
    letters of length up to max_len.

    The walk goes one directive length at a time, so the first depth at
    which a window is seen is its least. A window shorter than the depth
    is never new there: a word of n letters that occurs at all occurs under
    a directive of at most n letters, the bound the oracle's search rests on.
    """
    letters = sorted(set(letters))
    table: dict[str, int] = {}
    # The generated words of one directive length, each with the length of
    # its parent, the word of the directive less its last letter.
    level = [(x, 0) for x in letters]
    for depth in range(1, max_len + 1):
        for u, parent_len in level:
            # u is a palindrome that starts, and so ends, with the palindrome
            # u[:parent_len]: a window inside either copy is the parent's,
            # already recorded, and one ending past mirror + max_len - 1 is
            # that or too long.
            mirror = len(u) - parent_len
            for end in range(parent_len + 1, min(len(u), mirror + max_len - 1) + 1):
                for size in range(max(depth, end - mirror + 1), min(max_len, end) + 1):
                    table.setdefault(u[end - size : end], depth)
        if depth < max_len:
            level = [(pal_closure(u + x), len(u)) for u, _ in level for x in letters]
    return table


def _balanced_levels(max_len: int) -> list[set[str]]:
    """The balanced binary words of each length 0..max_len.

    Each balanced word w keeps its band, the least and greatest count of b
    over its windows of each length, and the counts of b in its suffixes.
    Every window of w·c but its |w|+1 suffixes is a window of w, so w·c is
    balanced exactly when w's band, widened by those suffix counts, is
    nowhere more than 1 wide: an O(|w|) check per extension, which stops
    at the first window length where the band overflows. An unbalanced
    word has no balanced extension, so each level extends the one before.
    """
    levels = [{""}]
    bands = {"": ((), (), ())}
    for _ in range(max_len):
        grown = {}
        for w, (lo, hi, suffixes) in bands.items():
            # A suffix of w·c of length k+1 is one of w of length k, then c.
            for c, counts in (
                ("a", (0, *suffixes)),
                ("b", (1, *[s + 1 for s in suffixes])),
            ):
                lo2, hi2 = [], []
                for low, high, s in zip(lo, hi, counts):
                    # The band is at most 1 wide, so s can move one end only.
                    if s < low:
                        if s < high - 1:
                            break
                        low = s
                    elif s > high:
                        if s > low + 1:
                            break
                        high = s
                    lo2.append(low)
                    hi2.append(high)
                else:
                    # The one window of length |w|+1 is w·c itself.
                    lo2.append(counts[-1])
                    hi2.append(counts[-1])
                    grown[w + c] = lo2, hi2, counts
        bands = grown
        levels.append(set(grown))
    return levels


@dataclass
class SweepReport:
    check: str
    alphabet_size: int
    max_len: int
    total_words: int
    mismatches: list = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.mismatches

    def to_json_dict(self) -> dict:
        return {
            "check": self.check,
            "alphabet_size": self.alphabet_size,
            "max_len": self.max_len,
            "total_words": self.total_words,
            "passed": self.passed,
            "mismatches": [
                {"word": w, "decider": d, "oracle": o} for w, d, o in self.mismatches
            ],
        }


def _episturmian_reference(letters, max_len: int):
    """The oracle's verdict, first discovery depth at most |w|, on every word
    over the letters up to max_len from one table: directives over letters
    outside Alph(w) find only words that directives over Alph(w) find within |w|."""
    table = discovery_table(letters, max_len)
    return lambda w: table.get(w, max_len + 1) <= len(w)


def sweep(check: str, alphabet_size: int, max_len: int) -> SweepReport:
    """Compare a named decider against its oracle on every word over the
    first alphabet_size letters up to max_len, collecting mismatches."""
    if alphabet_size not in _SWEEP_BUDGET:
        raise InputError("alphabet_size must be 2 or 3")
    if not 1 <= max_len <= _SWEEP_BUDGET[alphabet_size]:
        raise InputError(
            f"max_len budget for alphabet {alphabet_size} is "
            f"{_SWEEP_BUDGET[alphabet_size]}, got {max_len}"
        )
    letters = "abc"[:alphabet_size]

    if check not in ("episturmian", "sturmian"):
        raise InputError(f"unknown check {check!r}; expected episturmian or sturmian")
    if check == "sturmian" and alphabet_size != 2:
        raise InputError("the sturmian check is binary only")

    start = time.perf_counter()
    if check == "episturmian":
        decide = lambda w: is_finite_episturmian(w).accepted
    else:
        decide = is_balanced
    if alphabet_size == 2:
        balanced = _balanced_levels(max_len)
        reference = lambda w: w in balanced[len(w)]
    else:
        reference = _episturmian_reference(letters, max_len)
    total = 0
    mismatches = []
    # Each length's words extend the previous length's by each letter, in
    # the order of itertools.product.
    words = [""]
    for _ in range(max_len):
        words = [w + x for w in words for x in letters]
        total += len(words)
        for w in words:
            d = bool(decide(w))
            o = bool(reference(w))
            if d != o:
                mismatches.append((w, d, o))
    elapsed = time.perf_counter() - start
    return SweepReport(check, alphabet_size, max_len, total, mismatches, elapsed)
