"""Finite words, alphabet orders, lexicographic comparison and extremal factors.

Words are plain lowercase strings ("baabac"); the empty string is the empty
word. An order is a permutation of the letters in play, written smallest
first: Order("bac") means b < a < c. Words are compared under an order
through its rank-string key, so every comparison is a string comparison.
"""

from dataclasses import dataclass, field
from itertools import permutations

MAX_ALPHABET = 8

LESS, EQUAL, GREATER = -1, 0, 1


class EpiwordError(Exception):
    pass


class InputError(EpiwordError, ValueError):
    """Malformed word, order or out-of-range argument."""


class InsufficientDirectiveError(EpiwordError):
    """A finite directive word ran out before the requested length."""


class InconclusiveError(EpiwordError):
    """A prefix-scale check did not stabilize within its letter budget."""


def validate_word(w: str) -> str:
    if not all("a" <= c <= "z" for c in w):
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


def alphabetical(w: str) -> Order:
    """Default order: the word's letters in a-z order."""
    return Order("".join(sorted(alph(w))))


def all_orders(letters) -> list[Order]:
    """Every order on the given letter set (|A|! of them, A capped at 8)."""
    letters = sorted(set(letters))
    if len(letters) > MAX_ALPHABET:
        raise InputError(f"alphabet larger than {MAX_ALPHABET}: {letters}")
    return [Order("".join(p)) for p in permutations(letters)]


def lex_compare(u: str, v: str, order: Order) -> int:
    """Compare u and v lexicographically; a proper prefix compares less.

    Returns LESS (-1), EQUAL (0) or GREATER (1).
    """
    ku, kv = order.key(u), order.key(v)
    return (ku > kv) - (ku < kv)


def lex_le(u: str, v: str, order: Order) -> bool:
    return order.key(u) <= order.key(v)


def factors(w: str, n: int) -> set[str]:
    """All distinct length-n windows of w."""
    if not 1 <= n <= len(w):
        raise InputError(f"factor length {n} out of range for |w|={len(w)}")
    return {w[i : i + n] for i in range(len(w) - n + 1)}


@dataclass
class FactorSet:
    """Factor sets of one word, indexed by length."""

    by_length: dict[int, set[str]]

    @classmethod
    def of(cls, w: str, max_n: int | None = None) -> "FactorSet":
        max_n = len(w) if max_n is None else max_n
        if max_n > len(w):
            raise InputError(f"max_n {max_n} exceeds |w|={len(w)}")
        return cls({n: factors(w, n) for n in range(1, max_n + 1)})


def factor_complexity(w: str, max_n: int) -> list[int]:
    """Distinct-factor counts of w for lengths 1..max_n."""
    return [len(factors(w, n)) for n in range(1, max_n + 1)]


def reversal(w: str) -> str:
    return w[::-1]


def is_palindrome(w: str) -> bool:
    return w == w[::-1]


def min_factor(w: str, k: int, order: Order) -> str:
    """The lexicographically smallest factor of w of length k."""
    if not 1 <= k <= len(w):
        raise InputError(f"k={k} out of range for |w|={len(w)}")
    return min(factors(w, k), key=order.key)


def max_factor(w: str, k: int, order: Order) -> str:
    """The lexicographically greatest factor of w of length k."""
    if not 1 <= k <= len(w):
        raise InputError(f"k={k} out of range for |w|={len(w)}")
    return max(factors(w, k), key=order.key)


def _extremal_of(w: str, order: Order, greatest: bool) -> str:
    # Track the set P of start positions of the current extremal factor of
    # length k. The extremal factor of length k+1 extends it as long as some
    # position in P still has a letter to its right; the chain stops exactly
    # when P has shrunk to the suffix occurrence, which is then unioccurrent.
    if not w:
        raise InputError("empty word has no extremal factor")
    ranks = order.key(w)
    n = len(w)
    pick = max(ranks) if greatest else min(ranks)
    positions = [i for i, r in enumerate(ranks) if r == pick]
    k = 1
    while True:
        extendable = [p for p in positions if p + k < n]
        if not extendable:
            break
        nxt = [ranks[p + k] for p in extendable]
        pick = max(nxt) if greatest else min(nxt)
        positions = [p for p, r in zip(extendable, nxt) if r == pick]
        k += 1
    start = positions[0]
    return w[start : start + k]


def min_of(w: str, order: Order) -> str:
    """min(w): the longest factor m such that every min(w|j), j <= |m|, is a
    prefix of m.  Always a suffix of w, occurring exactly once."""
    return _extremal_of(w, order, greatest=False)


def max_of(w: str, order: Order) -> str:
    """max(w), dual to min_of."""
    return _extremal_of(w, order, greatest=True)
