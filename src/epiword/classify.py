"""Deciders: episturmian membership with machine-checkable certificates,
balance and Sturmian tests, and prefix-scale checks for generated words.

The membership decider works by de-substitution in one iterative pass with
no cache: strip the least separating letter with the inverse block parse and
repeat, accepting once the word is a single letter off a power of another.
Acceptance yields a directive word embedding the input in a generated
standard word, plus a witness prefix u for which a·u is lexicographically at
most min(w) under every order on the alphabet. Balance is the paper's
lexicographic test on min(w) and max(w); oracles.py counts the windows.
"""

from dataclasses import dataclass
from enum import Enum

from .generate import DirectiveSpec, palindromic_walk, psi_inverse
from .words import (
    MAX_ALPHABET,
    InputError,
    InconclusiveError,
    Order,
    all_orders,
    alph,
    factors,
    lex_le,
    max_of,
    min_of,
    validate_word,
)

STABILITY_BUDGET = 2**16


class RejectReason(str, Enum):
    NO_SEPARATING_LETTER = "NoSeparatingLetter"
    REDUCTION_FAILED = "ReductionFailed"
    WITNESS_CHECK_FAILED = "WitnessCheckFailed"
    NOT_BALANCED = "NotBalanced"


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


def _base_form(w: str):
    """(x, y, p, q) if w = x^p y x^q with at most one letter y differing
    from x (y may be None for powers of a single letter), else None."""
    letters = sorted(set(w))
    if len(letters) == 1:
        return (w[0], None, len(w), 0)
    if len(letters) == 2:
        for y in letters:
            if w.count(y) == 1:
                x = letters[0] if y == letters[1] else letters[1]
                p = w.index(y)
                return (x, y, p, len(w) - p - 1)
    return None


def _desubstitute(w: str):
    """(x, psi_x^{-1}(w aligned to start with x)) for the least letter x whose
    block parse succeeds, which is the least separating letter; else None."""
    for x in sorted(set(w)):
        r = psi_inverse(x, w if w[0] == x else x + w)
        if r is not None:
            return x, r
    return None


def _reject_reason(w: str) -> RejectReason | None:
    """Why w is not finite episturmian, or None when it is."""
    # A final x of w is a whole block, so dropping it from the reading is
    # the same as reading w without it. Finite episturmian words are closed
    # under factors and each extends to the right, so that trimmed reading
    # alone decides w.
    reason = RejectReason.NO_SEPARATING_LETTER
    while _base_form(w) is None:
        step = _desubstitute(w)
        if step is None:
            return reason
        x, r = step
        w = r[:-1] if w.endswith(x) else r
        reason = RejectReason.REDUCTION_FAILED
    return None


def _build_certificate(w: str) -> Certificate:
    chain = []
    cur = w
    while (base := _base_form(cur)) is None:
        x, r = _desubstitute(cur)
        chain.append(x)
        # Keep the full reading when it is accepted; the trimmed one always is.
        cur = r if not cur.endswith(x) or _reject_reason(r) is None else r[:-1]
    x, y, p, q = base
    tail = x * p if y is None else x * max(p, q) + y
    directive = DirectiveSpec("".join(chain) + tail, x)
    # The prefixes are nested: the first holding w fixes occurrence and witness.
    for generated in palindromic_walk(directive.preperiod):
        if (occurrence := generated.find(w)) >= 0:
            break
    assert occurrence >= 0, f"embedding lost {w!r} under directive {directive}"
    return Certificate(
        reduction_letters="".join(chain),
        base_word=cur,
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
    reason = _reject_reason(w)
    if reason is not None:
        return Verdict(False, None, reason)
    cert = _build_certificate(w)
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
    a^{-1}min(w) and b^{-1}max(w) is reported either way.
    """
    validate_word(w)
    if alph(w) != {"a", "b"}:
        raise InputError("needs a binary word containing both a and b")
    order = Order("ab")
    mi = min_of(w, order)
    ma = max_of(w, order)
    mt, xt = mi[1:], ma[1:]
    limit = 0
    while limit < len(mt) and limit < len(xt) and mt[limit] == xt[limit]:
        limit += 1
    common = mt[:limit]
    after_min = mt[limit] if limit < len(mt) else None
    after_max = xt[limit] if limit < len(xt) else None
    # Below limit the two tails agree, so an a·u·a / b·u·b split can only
    # come at limit itself, with u the whole common prefix.
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
