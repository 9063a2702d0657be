"""Finite words, alphabet orders, lexicographic comparison and extremal factors.

Words are plain lowercase strings ("baabac"); the empty string is the empty
word. An order is a permutation of the letters in play, written smallest
first: Order("bac") means b < a < c. Words are compared under an order
through its rank-string key, so every comparison is a string comparison.
"""

import re
from dataclasses import dataclass, field
from itertools import permutations

MAX_ALPHABET = 8

class EpiwordError(Exception):
    pass


class InputError(EpiwordError, ValueError):
    """Malformed word, order or out-of-range argument."""


class InsufficientDirectiveError(EpiwordError):
    """A finite directive word ran out before the requested length."""


class InconclusiveError(EpiwordError):
    """A prefix-scale check did not stabilize within its letter budget."""


_WORD = re.compile("[a-z]*")


def validate_word(w: str) -> str:
    if _WORD.fullmatch(w) is None:
        raise InputError(f"word must be lowercase a-z letters, got {w!r}")
    return w


def alph(w: str) -> set[str]:
    """The set of distinct letters occurring in w."""
    return set(w)


class _Ranks(dict):
    """str.translate table sending the letter of rank i to chr(i); any other
    character raises InputError instead of passing through unchanged."""

    def __init__(self, letters: str):
        super().__init__(zip(map(ord, letters), range(len(letters))))
        self.letters = letters

    def __missing__(self, code: int):
        raise InputError(f"letter {chr(code)!r} outside alphabet {self.letters!r}")


@dataclass(frozen=True)
class Order:
    """A total order on a small alphabet, letters listed smallest first."""

    letters: str
    _ranks: _Ranks = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        validate_word(self.letters)
        if len(set(self.letters)) != len(self.letters):
            raise InputError(f"order letters must be distinct: {self.letters!r}")
        if len(self.letters) > MAX_ALPHABET:
            raise InputError(f"alphabet larger than {MAX_ALPHABET}: {self.letters!r}")
        object.__setattr__(self, "_ranks", _Ranks(self.letters))

    @property
    def min_letter(self) -> str:
        return self.letters[0]

    def key(self, w: str) -> str:
        """w as a rank string (the letter of rank i becomes chr(i)); keys
        compare as the words do under this order, a proper prefix first."""
        return w.translate(self._ranks)


def all_orders(letters) -> list[Order]:
    """Every order on the given letter set (|A|! of them, A capped at 8)."""
    letters = sorted(set(letters))
    if len(letters) > MAX_ALPHABET:
        raise InputError(f"alphabet larger than {MAX_ALPHABET}: {letters}")
    return [Order("".join(p)) for p in permutations(letters)]


def lex_le(u: str, v: str, order: Order) -> bool:
    """u <= v lexicographically under order; a proper prefix compares less."""
    return order.key(u) <= order.key(v)


def factors(w: str, n: int) -> set[str]:
    """All distinct length-n windows of w."""
    if not 1 <= n <= len(w):
        raise InputError(f"factor length {n} out of range for |w|={len(w)}")
    return {w[i : i + n] for i in range(len(w) - n + 1)}


def factor_complexity(w: str, max_n: int) -> list[int]:
    """Distinct-factor counts of w for lengths 1..max_n."""
    return [len(factors(w, n)) for n in range(1, max_n + 1)]


def reversal(w: str) -> str:
    return w[::-1]


# str.translate table sending rank i to rank MAX_ALPHABET - 1 - i: a rank
# string read through it compares as the word does under the reversed order,
# so each maximum is the minimum of the reflected key.
_REFLECT = {i: MAX_ALPHABET - 1 - i for i in range(MAX_ALPHABET)}


def _least_window_start(ranks: str, k: int) -> int:
    # One window is held at a time; every occurrence of the least one starts
    # an equal window, so the first is as good as any.
    return ranks.find(min(ranks[i : i + k] for i in range(len(ranks) - k + 1)))


def min_factor(w: str, k: int, order: Order) -> str:
    """The lexicographically smallest factor of w of length k."""
    if not 1 <= k <= len(w):
        raise InputError(f"k={k} out of range for |w|={len(w)}")
    start = _least_window_start(order.key(w), k)
    return w[start : start + k]


def max_factor(w: str, k: int, order: Order) -> str:
    """The lexicographically greatest factor of w of length k."""
    if not 1 <= k <= len(w):
        raise InputError(f"k={k} out of range for |w|={len(w)}")
    start = _least_window_start(order.key(w).translate(_REFLECT), k)
    return w[start : start + k]


def _least_suffix_start_duval(ranks: str) -> int:
    """Start of the last Lyndon factor of ranks + chr(127), found by Duval's
    algorithm (J. Algorithms 4, 1983) in linear time.

    The sentinel ranks above every letter, so a suffix compares above its
    own extensions and the last Lyndon factor, the least suffix, starts
    where min(w) does on ranks = order.key(w).
    """
    s = ranks + chr(127)
    n = len(s)
    i = 0
    while i < n:
        # s[i:j] is a power of the Lyndon word s[i:i+j-k] and a prefix more.
        j, k = i + 1, i
        while j < n:
            x, y = s[k], s[j]
            if x > y:
                break
            k = i if x < y else k + 1
            j += 1
        while i <= k:
            start, i = i, i + j - k
    return start


def _least_suffix_start(ranks: str) -> int:
    # The position-set loop, quadratic on long runs, serving min_of, max_of
    # and check_witness; the tests keep min_of and max_of as the independent
    # check of the Duval path above. At step k, positions holds the starts
    # of the least factor of length k. The least factor of length k+1
    # extends it as long as some position still has a letter to its right;
    # the chain stops exactly when positions has shrunk to the suffix
    # occurrence, which is then unioccurrent and is the least suffix.
    if not ranks:
        raise InputError("empty word has no extremal factor")
    pick = min(ranks)
    positions = [i for i, r in enumerate(ranks) if r == pick]
    k, n = 1, len(ranks)
    while extendable := [p for p in positions if p + k < n]:
        nxt = [ranks[p + k] for p in extendable]
        pick = min(nxt)
        positions = [p for p, r in zip(extendable, nxt) if r == pick]
        k += 1
    return positions[0]


def min_of(w: str, order: Order) -> str:
    """min(w): the longest factor m such that every min(w|j), j <= |m|, is a
    prefix of m.  Always a suffix of w, occurring exactly once."""
    return w[_least_suffix_start(order.key(w)) :]


def max_of(w: str, order: Order) -> str:
    """max(w), dual to min_of: the least suffix under the reversed order."""
    return w[_least_suffix_start(order.key(w).translate(_REFLECT)) :]
