"""Word generators: letter morphisms, directive words, mechanical words, and
non-recurrent (skew-style) constructions; each source spec generates through
its own prefix(n), and the directive, skew and episkew specs name, through
window(k), a prefix length that holds every length-k factor of their word.

A directive word drives the iterated palindromic closure u(n+1) = (u(n)·x)^+,
whose nested palindromic prefixes converge to a standard episturmian word.
palindromic_prefix appends each step, by Justin's formula, to one buffer;
pal_closure, the direct construction, serves the oracles as a reference.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import inf, lcm

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
        pre, _, per = text.partition("*")
        return cls(pre, per)

    def __str__(self) -> str:
        return f"{self.preperiod}*{self.period}" if self.period else self.preperiod

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

    def window(self, k: int) -> int:
        """A prefix length holding every length-k factor of the directed word.

        Let u(i) = Pal(x(1)···x(i-1)), j the least index with |u(j)| >= k - 1
        and m >= j the least index such that x(j)···x(m) holds every letter
        of x(j)x(j+1)···; the window is |Pal(x(1)···x(m))|. Write
        w = x(1)···x(j-1) and mu_w for the composed psi morphisms of w.
        Then t = mu_w(t') for the word t' directed by x(j)x(j+1)···, and by
        Justin's formula Pal(w·v) = mu_w(Pal(v))·Pal(w) (RAIRO ITA 39,
        2005), Pal(w·y) = mu_w(y)·u(j) starts with u(j) for each letter y;
        so mu_w(s)·u(j) starts with u(j) for every word s. A length-k factor
        starting in the block mu_w(y) of t = mu_w(y(1))mu_w(y(2))··· thus
        lies in mu_w(y)·u(j) = Pal(w·y), as |u(j)| >= k - 1. And
        Pal(x(1)···x(m)) = mu_w(Pal(x(j)···x(m)))·u(j) holds each such block,
        since Pal(x(j)···x(m)) holds every letter y of t'. Past 2^64 letters
        the count stops, and the length returned is a lower bound.
        """
        return sum(_window_counts(self, k).values())


def palindromic_prefix(letters, min_len=inf) -> str:
    """The first nested palindromic prefix u(1) = empty, u(i+1) = (u(i)·x(i))^+
    over the letters x(i) that is at least min_len long, else the last one.

    Each step appends Justin's formula (RAIRO ITA 39, 2005) to one buffer:
    x·u(i) when x is new, else u(i) less its prefix u(j), where u(j) is the
    prefix just before x's previous step.
    """
    u = bytearray()
    before = {}
    for x in letters:
        if len(u) >= min_len:
            break
        cut = before.get(x)
        before[x] = len(u)
        u += x.encode() + u if cut is None else u[cut:]
    return u.decode()


def _window_counts(d: DirectiveSpec, k: int) -> dict[str, int]:
    """Letter counts of the directive's factor window Pal(x(1)···x(m)) at k
    (DirectiveSpec.window), or of its first palindromic prefix of 2^64 letters
    or more, in integers: each step is palindromic_prefix's, on counts."""
    if d.is_finite:
        raise InsufficientDirectiveError(f"directive {d} is finite: it directs no infinite word")
    counts, before, rest = {}, {}, None
    for i, x in enumerate(d.letters()):
        if (length := sum(counts.values())) >= 2**64:
            return counts
        if rest is None and length >= k - 1:
            rest = set(d.preperiod[i:] + d.period)
        cut = before.get(x)
        before[x] = counts
        if cut is None:
            counts = {c: 2 * n for c, n in counts.items()} | {x: 1}
        else:
            counts = {c: 2 * n - cut.get(c, 0) for c, n in counts.items()}
        if rest is not None:
            rest.discard(x)
            if not rest:
                return counts


def standard_prefix(d: DirectiveSpec, min_len: int) -> str:
    """The first palindromic prefix of the directed word with length >= min_len.

    Output may overshoot min_len: closure steps are applied whole.
    """
    u = palindromic_prefix(d.letters(), min_len)
    if len(u) < min_len:
        raise InsufficientDirectiveError(
            f"directive {d} exhausted at length {len(u)}, need {min_len}"
        )
    return u


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

    def prefix(self, n: int) -> str:
        """First n letters: 'a' where the floor (or ceiling) difference is 0.

        i·alpha + rho is x/d over the common denominator d, and alpha's
        numerator A is at most d. So the floor of x/d steps by one, giving
        the letter b, exactly when carrying A into the remainder x mod d
        wraps past d. The ceiling of x/d is the floor of (x + d - 1)/d, so
        the ceiling variant carries from a remainder d - 1 higher. No letter
        costs a division.
        """
        d = lcm(self.alpha.denominator, self.rho.denominator)
        a, r = (f.numerator * (d // f.denominator) for f in (self.alpha, self.rho))
        if self.variant == "ceiling":
            r += d - 1
        r %= d
        letters = []
        for _ in range(n):
            r += a
            if r >= d:
                r -= d
                letters.append("b")
            else:
                letters.append("a")
        return "".join(letters)


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

    def window(self, k: int) -> int:
        """A prefix length holding every length-k factor: one starting at
        each position up to the end of the first period."""
        return len(self.preperiod) + len(self.period) + k - 1


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
            raise InputError(f"episkew spec must be a JSON object, got {type(obj).__name__}")
        texts = {
            "mu": obj.get("mu", ""),
            "excluded_letter": obj["excluded_letter"],
            "inner_directive": obj["inner_directive"],
        }
        for name, value in texts.items():
            if not isinstance(value, str):
                raise InputError(
                    f"episkew {name} must be a string, got {type(value).__name__}"
                )
        inner = DirectiveSpec.from_text(texts["inner_directive"])
        try:
            p, suffix_index = int(obj.get("p", 0)), int(obj["suffix_index"])
        except (TypeError, OverflowError) as exc:
            raise InputError(f"episkew p and suffix_index must be integers: {exc}") from exc
        for value in (obj.get("p", 0), obj["suffix_index"]):
            if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
                raise InputError(f"episkew p and suffix_index must be integers, got {value!r}")
        return cls(texts["mu"], texts["excluded_letter"], inner, p, suffix_index)

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
        image = apply_morphism(self.mu, self.inner_directive.prefix(max(0, n - len(v))))
        return (v + image)[:n]

    def window(self, k: int) -> int:
        """A prefix length holding every length-k factor: v·mu(s[:W]), W the
        inner directive's window. A factor starting in v ends within k - 1
        <= W letters after it, and one inside mu(s) lies in mu(f) for a
        length-k factor f of s. Counted, not built: |mu(c)| per letter; mu
        erases no letter, so an inner lower bound past 2^64 gives one here."""
        counts = _window_counts(self.inner_directive, k)
        image = sum(n * len(apply_morphism(self.mu, c)) for c, n in counts.items())
        return len(self.head()) + image
