"""Word generators: letter morphisms, directive words, mechanical words, and
non-recurrent (skew-style) constructions; each source spec generates through
its own prefix(n).

A directive word drives the iterated palindromic closure u(n+1) = (u(n)·x)^+,
whose nested palindromic prefixes converge to a standard episturmian word.
palindromic_walk takes each step by Justin's formula; pal_closure, the direct
construction, is off that path and serves the oracles as a reference.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import ceil, floor

from .words import (
    InputError,
    InsufficientDirectiveError,
    reversal,
    validate_word,
)


def psi(a: str, w: str) -> str:
    """The morphism fixing a and prepending a to every other letter."""
    return "".join(c if c == a else a + c for c in w)


def psi_inverse(a: str, w: str) -> str | None:
    """Invert psi(a, .) by the left-to-right block parse, or None.

    w is in the image exactly when it starts with a and a occurs in every
    length-2 factor; blocks "a·y" (y != a) map to y, lone "a" maps to a.
    """
    out = []
    i, n = 0, len(w)
    while i < n:
        if w[i] != a:
            return None
        if i + 1 < n and w[i + 1] != a:
            out.append(w[i + 1])
            i += 2
        else:
            out.append(a)
            i += 1
    return "".join(out)


def apply_morphism(letters: str, w: str) -> str:
    """Compose psi over letters (leftmost outermost) and apply to w."""
    for x in reversed(letters):
        w = psi(x, w)
    return w


def pal_closure(w: str) -> str:
    """The shortest palindrome having w as a prefix.

    Splits w = u·v at the longest palindromic suffix v and returns u·v·ũ.
    Naive quadratic scan, kept as the reference that the oracles use.
    """
    n = len(w)
    for i in range(n):
        lo, hi = i, n - 1
        while lo < hi and w[lo] == w[hi]:
            lo += 1
            hi -= 1
        if lo >= hi:
            return w + w[:i][::-1]
    return w


@dataclass(frozen=True)
class DirectiveSpec:
    """A directive word: finite preperiod followed by a repeated period.

    Text form "PRE*PERIOD": "*ab" repeats ab forever, "c*ab" prepends c,
    "abc" with no star is a finite directive.
    """

    preperiod: str
    period: str = ""

    def __post_init__(self):
        validate_word(self.preperiod)
        validate_word(self.period)

    @classmethod
    def from_text(cls, text: str) -> "DirectiveSpec":
        pre, star, per = text.partition("*")
        if not star:
            return cls(text, "")
        return cls(pre, per)

    def text(self) -> str:
        return f"{self.preperiod}*{self.period}" if self.period else self.preperiod

    def __str__(self) -> str:
        return self.text()

    def letters(self):
        yield from self.preperiod
        while self.period:
            yield from self.period

    @property
    def is_finite(self) -> bool:
        return not self.period

    @property
    def is_strict(self) -> bool:
        """Every letter of the directive recurs forever in it."""
        return bool(self.period) and set(self.preperiod) <= set(self.period)

    def alphabet(self) -> set[str]:
        return set(self.preperiod + self.period)

    def prefix(self, n: int) -> str:
        """Exactly the first n letters of the directed standard word."""
        return standard_prefix(self, n)[:n]


def palindromic_walk(letters):
    """Yield the nested palindromic prefixes u(1) = empty and
    u(i+1) = (u(i)·x(i))^+ for the letters x(1), x(2), ... in turn.

    Each step is Justin's formula (RAIRO ITA 39, 2005), with no rescan:
    u(i)·x·u(i) when x is new, else u(i)·u(j)^{-1}·u(i), where u(j) is the
    prefix just before x's previous step.
    """
    u = ""
    before = {}
    yield u
    for x in letters:
        cut = before.get(x)
        before[x] = len(u)
        u = u + x + u if cut is None else u + u[cut:]
        yield u


def palindromic_prefixes(d: DirectiveSpec, count: int) -> list[str]:
    """The nested palindromic prefixes u(1)=empty, u(2), ..., u(count)."""
    us = list(islice(palindromic_walk(d.letters()), max(count, 1)))
    if len(us) < count:
        raise InsufficientDirectiveError(
            f"directive {d} has only {len(us) - 1} letters, need {count - 1}"
        )
    return us


def standard_prefix(d: DirectiveSpec, min_len: int) -> str:
    """The first palindromic prefix of the directed word with length >= min_len.

    Output may overshoot min_len: closure steps are applied whole.
    """
    for u in palindromic_walk(d.letters()):
        if len(u) >= min_len:
            return u
    raise InsufficientDirectiveError(
        f"directive {d} exhausted at length {len(u)}, need {min_len}"
    )


def h_words(d: DirectiveSpec, n: int) -> list[str]:
    """The prefixes h(i) = mu(i)(x(i+1)) for i = 0..n-1.

    mu(i) composes psi over the first i directive letters; the product
    h(n-2)···h(1)h(0) rebuilds the palindromic prefix u(n).
    """
    xs = "".join(islice(d.letters(), max(n, 0)))
    if len(xs) < n:
        raise InsufficientDirectiveError(f"directive {d} has fewer than {n} letters")
    return [apply_morphism(xs[:i], xs[i]) for i in range(n)]


@dataclass(frozen=True)
class MechanicalSpec:
    """Rotation-coded binary word with rational slope and intercept."""

    alpha: Fraction
    rho: Fraction
    variant: str = "floor"

    def __post_init__(self):
        if not (0 <= self.alpha <= 1 and 0 <= self.rho <= 1):
            raise InputError("alpha and rho must lie in [0, 1]")
        if self.variant not in ("floor", "ceiling"):
            raise InputError(f"variant must be floor or ceiling: {self.variant!r}")

    @classmethod
    def from_json(cls, obj: dict) -> "MechanicalSpec":
        return cls(
            alpha=Fraction(obj["alpha"]),
            rho=Fraction(obj["rho"]),
            variant=obj.get("variant", "floor"),
        )

    def to_json_dict(self) -> dict:
        return {
            "alpha": str(self.alpha),
            "rho": str(self.rho),
            "variant": self.variant,
        }

    def prefix(self, n: int) -> str:
        """First n letters: 'a' where the floor (or ceiling) difference is 0."""
        f = floor if self.variant == "floor" else ceil
        out = []
        for i in range(n):
            step = f((i + 1) * self.alpha + self.rho) - f(i * self.alpha + self.rho)
            out.append("a" if step == 0 else "b")
        return "".join(out)


@dataclass(frozen=True)
class EventuallyPeriodicSpec:
    """Literal ultimately periodic word u·v·v·v··· (the skew-word shape)."""

    preperiod: str
    period: str

    def __post_init__(self):
        validate_word(self.preperiod)
        validate_word(self.period)
        if not self.period:
            raise InputError("periodic part must be non-empty")

    def prefix(self, n: int) -> str:
        """First n letters of the preperiod followed by the period forever."""
        # Just enough copies of the period: ceil((n - |u|) / |v|), none when
        # the preperiod alone is long enough.
        reps = max(0, -((len(self.preperiod) - n) // len(self.period)))
        return (self.preperiod + self.period * reps)[:n]


@dataclass(frozen=True)
class EpiskewSpec:
    """A non-recurrent word v·mu(s) built from a recurrent core s.

    s is the standard word directed by inner_directive over an alphabet
    avoiding excluded_letter; v is the suffix, selected by suffix_index
    (1 = last letter, full length = whole word), of the mu-image of the
    reversed length-p prefix of s followed by excluded_letter.
    """

    mu: str
    excluded_letter: str
    inner_directive: DirectiveSpec
    p: int
    suffix_index: int

    def __post_init__(self):
        validate_word(self.mu)
        validate_word(self.excluded_letter)
        if len(self.excluded_letter) != 1:
            raise InputError("excluded_letter must be a single letter")
        if self.excluded_letter in self.inner_directive.alphabet():
            raise InputError(
                f"excluded letter {self.excluded_letter!r} occurs in the inner directive"
            )
        if self.inner_directive.is_finite:
            raise InputError("inner directive must have a non-empty period")
        if self.p < 0:
            raise InputError("p must be non-negative")
        if self.suffix_index < 1:
            raise InputError("suffix_index must be positive")

    @classmethod
    def from_json(cls, obj) -> "EpiskewSpec":
        if not isinstance(obj, dict):
            raise InputError(f"episkew spec must be a JSON object, got {obj!r}")
        texts = {
            "mu": obj.get("mu", ""),
            "excluded_letter": obj["excluded_letter"],
            "inner_directive": obj["inner_directive"],
        }
        for name, value in texts.items():
            if not isinstance(value, str):
                raise InputError(f"episkew {name} must be a string, got {value!r}")
        inner = DirectiveSpec.from_text(texts["inner_directive"])
        try:
            p, suffix_index = int(obj.get("p", 0)), int(obj["suffix_index"])
        except (TypeError, OverflowError) as exc:
            raise InputError(f"episkew p and suffix_index must be integers: {exc}") from exc
        for value in (obj.get("p", 0), obj["suffix_index"]):
            if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
                raise InputError(f"episkew p and suffix_index must be integers, got {value!r}")
        return cls(texts["mu"], texts["excluded_letter"], inner, p, suffix_index)

    def to_json_dict(self) -> dict:
        return {
            "mu": self.mu,
            "excluded_letter": self.excluded_letter,
            "inner_directive": self.inner_directive.text(),
            "p": int(self.p),
            "suffix_index": int(self.suffix_index),
        }

    def head(self) -> str:
        """The chosen non-empty suffix v; always ends with excluded_letter."""
        core = reversal(self.inner_directive.prefix(self.p)) + self.excluded_letter
        image = apply_morphism(self.mu, core)
        if self.suffix_index > len(image):
            raise InputError(
                f"suffix_index {self.suffix_index} exceeds |image| = {len(image)}"
            )
        return image[len(image) - self.suffix_index :]

    def prefix(self, n: int) -> str:
        """First n letters of v·mu(s)."""
        v = self.head()
        if n <= len(v):
            return v[:n]
        rest = n - len(v)
        image = apply_morphism(self.mu, self.inner_directive.prefix(rest))
        return v + image[:rest]
