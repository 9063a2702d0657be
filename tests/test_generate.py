import random
import time
from fractions import Fraction
from itertools import product
from math import ceil, floor

import pytest
from hypothesis import given
from hypothesis import strategies as st

from epiword import (
    DirectiveSpec,
    EpiskewSpec,
    EventuallyPeriodicSpec,
    InputError,
    InsufficientDirectiveError,
    MechanicalSpec,
    factor_complexity,
    factors,
    pal_closure,
    psi,
    psi_inverse,
    reversal,
    standard_prefix,
)
from epiword.generate import palindromic_prefix
from references import h_words, is_palindrome, pal_closure_two_pointer, palindromic_prefixes

words = st.text(alphabet="abc", max_size=30)


def test_psi():
    assert psi("a", "ab") == "aab"
    assert psi("b", "aa") == "baba"
    assert psi("a", "") == ""


def test_psi_inverse():
    assert psi_inverse("b", "baba") == "aa"
    assert psi_inverse("a", "aab") == "ab"
    assert psi_inverse("a", "ba") is None
    assert psi_inverse("a", "abb") is None
    assert psi_inverse("a", "") == ""


@given(st.sampled_from("abc"), words)
def test_psi_roundtrip(a, w):
    assert psi_inverse(a, psi(a, w)) == w


def _closure_by_mirroring(w):
    # Shortest palindrome with prefix w, found by trying each target length
    # and mirroring the undetermined tail.
    n = len(w)
    for total in range(n, 2 * n + 1):
        cand = list(w) + [""] * (total - n)
        for j in range(n, total):
            cand[j] = cand[total - 1 - j]
        joined = "".join(cand)
        if joined == joined[::-1]:
            return joined
    raise AssertionError("unreachable")


@pytest.mark.parametrize(
    "w, expected",
    [("abc", "abcba"), ("abaa", "abaaba"), ("aba", "aba"), ("", "")],
)
def test_pal_closure(w, expected):
    assert pal_closure(w) == expected


@given(words)
def test_pal_closure_matches_mirror_search(w):
    got = pal_closure(w)
    assert got == _closure_by_mirroring(w)
    assert got.startswith(w)
    assert is_palindrome(got)


def test_pal_closure_matches_two_pointer_scan():
    # pal_closure tries only the suffixes starting with w's last letter;
    # the reference tries every suffix.
    for n in range(9):
        for w in map("".join, product("abc", repeat=n)):
            assert pal_closure(w) == pal_closure_two_pointer(w), w
    rng = random.Random(29)
    for _ in range(200):
        w = "".join(rng.choices("ab", weights=(rng.random(), 1), k=rng.randint(1, 300)))
        assert pal_closure(w) == pal_closure_two_pointer(w), w


def test_directive_text_forms():
    assert DirectiveSpec.from_text("*ab") == DirectiveSpec("", "ab")
    assert DirectiveSpec.from_text("c*ab") == DirectiveSpec("c", "ab")
    assert DirectiveSpec.from_text("abc") == DirectiveSpec("abc", "")
    assert str(DirectiveSpec("c", "ab")) == "c*ab"
    assert str(DirectiveSpec("abc", "")) == "abc"
    assert DirectiveSpec("", "ab").is_strict
    assert DirectiveSpec("a", "ab").is_strict
    assert not DirectiveSpec("b", "a").is_strict
    assert not DirectiveSpec("ab", "").is_strict


def test_standard_prefix():
    assert standard_prefix(DirectiveSpec("", "ab"), 6) == "abaaba"
    assert standard_prefix(DirectiveSpec("", "abc"), 7) == "abacaba"
    assert standard_prefix(DirectiveSpec("a", "a"), 5) == "aaaaa"
    assert standard_prefix(DirectiveSpec("", "ab"), 0) == ""
    with pytest.raises(
        InsufficientDirectiveError, match="^directive ab exhausted at length 3, need 50$"
    ):
        standard_prefix(DirectiveSpec("ab", ""), 50)


def _walk_by_closure(letters):
    # The direct construction: close u·x to the shortest palindrome.
    u = ""
    yield u
    for x in letters:
        u = pal_closure(u + x)
        yield u


def test_walk_matches_closure_walk():
    rng = random.Random(11)
    for _ in range(400):
        letters = "abcd"[: rng.randint(1, 4)]
        xs = "".join(rng.choice(letters) for _ in range(rng.randint(0, 16)))
        walk = list(_walk_by_closure(xs))
        assert [palindromic_prefix(xs[:i]) for i in range(len(xs) + 1)] == walk, xs
        # The first prefix at least min_len long, the last when none is.
        min_len = rng.randint(0, len(walk[-1]) + 1)
        want = next((u for u in walk if len(u) >= min_len), walk[-1])
        assert palindromic_prefix(xs, min_len) == want, (xs, min_len)


def test_one_letter_closure_steps_stay_fast():
    # Directive a*b grows by one letter per closure step, the worst case
    # for a closure that rescans or copies the word: tens of seconds at
    # these sizes.
    start = time.perf_counter()
    assert len(standard_prefix(DirectiveSpec("a", "b"), 10**6)) == 10**6 + 1
    assert time.perf_counter() - start < 2.0
    spec = EpiskewSpec.from_json(
        {"excluded_letter": "c", "inner_directive": "a*b", "p": 20_000, "suffix_index": 1}
    )
    start = time.perf_counter()
    assert spec.prefix(5) == "cabab"
    assert time.perf_counter() - start < 2.0


def test_palindromic_prefixes_are_nested_palindromes():
    us = palindromic_prefixes(DirectiveSpec("", "abc"), 10)
    assert us[0] == ""
    assert palindromic_prefixes(DirectiveSpec("", "abc"), 1) == [""]
    assert palindromic_prefixes(DirectiveSpec("ab", ""), 3) == ["", "a", "aba"]
    for prev, cur in zip(us, us[1:]):
        assert cur.startswith(prev)
        assert is_palindrome(cur)


def test_h_words():
    assert h_words(DirectiveSpec("", "ab"), 2) == ["a", "ab"]
    assert h_words(DirectiveSpec("", "abc"), 3) == ["a", "ab", "abac"]
    assert h_words(DirectiveSpec("", "a"), 1) == ["a"]
    assert h_words(DirectiveSpec("", "ab"), 0) == []


def test_prefix_product_identity():
    # u(n) equals the product h(n-2)···h(1)h(0) for every directive word.
    rng = random.Random(42)
    for _ in range(25):
        letters = "abc"[: rng.randint(2, 3)]
        pre = "".join(rng.choice(letters) for _ in range(rng.randint(0, 3)))
        per = "".join(rng.choice(letters) for _ in range(rng.randint(1, 4)))
        d = DirectiveSpec(pre, per)
        us = palindromic_prefixes(d, 12)
        hs = h_words(d, 10)
        for n in range(2, 12):
            assert us[n - 1] == "".join(reversed(hs[: n - 1])), (d, n)


def test_first_letter_is_separating_for_standard_words():
    for text in ["*ab", "*abc", "b*ca", "c*ab"]:
        w = standard_prefix(DirectiveSpec.from_text(text), 100)
        x = w[0]
        assert all(x in f for f in factors(w, 2))


def test_standard_factors_closed_under_reversal():
    w = standard_prefix(DirectiveSpec("", "abc"), 200)
    for n in (2, 5, 9):
        fs = factors(w, n)
        assert {reversal(f) for f in fs} == fs


def test_strict_directive_complexity():
    rng = random.Random(9)
    for _ in range(8):
        k = rng.randint(2, 3)
        letters = list("abc"[:k])
        rng.shuffle(letters)
        extra = "".join(rng.choice(letters) for _ in range(rng.randint(0, 2)))
        d = DirectiveSpec("", "".join(letters) + extra)
        w = standard_prefix(d, 3000)
        counts = factor_complexity(w[:3000], 20)
        assert counts == [(k - 1) * n + 1 for n in range(1, 21)], d


@pytest.mark.parametrize(
    "alpha, rho, variant, n, expected",
    [
        (Fraction(1, 2), Fraction(0), "floor", 4, "abab"),
        (Fraction(1, 3), Fraction(1, 3), "floor", 6, "abaaba"),
        (Fraction(0), Fraction(0), "floor", 3, "aaa"),
    ],
)
def test_mechanical_prefix(alpha, rho, variant, n, expected):
    assert MechanicalSpec(alpha, rho, variant).prefix(n) == expected


def _mechanical_by_fractions(alpha, rho, variant, n):
    # The defining formula, in Fraction arithmetic letter by letter.
    f = floor if variant == "floor" else ceil
    return "".join(
        "a" if f((i + 1) * alpha + rho) == f(i * alpha + rho) else "b" for i in range(n)
    )


def test_mechanical_prefix_matches_fraction_formula():
    rng = random.Random(31)
    for _ in range(2000):
        alpha = Fraction(*sorted((rng.randint(0, 60), rng.randint(1, 60))))
        rho = Fraction(*sorted((rng.randint(0, 60), rng.randint(1, 60))))
        n = rng.randint(0, 80)
        for variant in ("floor", "ceiling"):
            got = MechanicalSpec(alpha, rho, variant).prefix(n)
            assert got == _mechanical_by_fractions(alpha, rho, variant, n), (alpha, rho, variant)


def test_mechanical_validation():
    with pytest.raises(InputError):
        MechanicalSpec(Fraction(3, 2), Fraction(0))
    with pytest.raises(InputError):
        MechanicalSpec(Fraction(1, 2), Fraction(0), "round")


def _matching_directive(target):
    for np in range(0, 6):
        for pre in product("ab", repeat=np):
            for nq in range(1, 4):
                for per in product("ab", repeat=nq):
                    d = DirectiveSpec("".join(pre), "".join(per))
                    if d.prefix(len(target)) == target:
                        return d
    return None


@pytest.mark.parametrize(
    "alpha", [Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), Fraction(3, 8), Fraction(2, 7)]
)
def test_mechanical_agrees_with_some_directive(alpha):
    # Standard-case mechanical words are directive-generated; enumeration
    # digs up a directive reproducing the whole sampled prefix.
    mech = MechanicalSpec(alpha, alpha).prefix(3 * alpha.denominator + 20)
    assert _matching_directive(mech) is not None


def test_episkew_prefix():
    whole = EpiskewSpec("", "b", DirectiveSpec("", "a"), 2, 3)
    assert whole.prefix(6) == "aabaaa"
    single = EpiskewSpec("", "c", DirectiveSpec("", "ab"), 0, 1)
    assert single.prefix(7) == "cabaaba"


def test_episkew_head_always_ends_with_excluded_letter():
    spec = EpiskewSpec("ab", "c", DirectiveSpec("", "ab"), 3, 2)
    assert spec.head().endswith("c")


def test_episkew_validation():
    with pytest.raises(InputError):
        EpiskewSpec("", "b", DirectiveSpec("a", ""), 0, 1)  # finite inner directive
    with pytest.raises(InputError):
        EpiskewSpec("", "a", DirectiveSpec("", "ab"), 0, 1)  # letter not excluded
    with pytest.raises(InputError):
        EpiskewSpec("", "c", DirectiveSpec("", "ab"), 0, 0)  # empty suffix
    with pytest.raises(InputError):
        EpiskewSpec("", "c", DirectiveSpec("", "ab"), 0, 99).prefix(5)


def test_eventually_periodic_prefix():
    assert EventuallyPeriodicSpec("b", "a").prefix(4) == "baaa"
    assert EventuallyPeriodicSpec("", "ab").prefix(5) == "ababa"
    assert EventuallyPeriodicSpec("aab", "ab").prefix(7) == "aababab"
    with pytest.raises(InputError):
        EventuallyPeriodicSpec("a", "").prefix(3)


def _prefix_by_appending(u, v, n):
    # The reference: the period appended one copy at a time.
    out = u
    while len(out) < n:
        out += v
    return out[:n]


def test_eventually_periodic_prefix_matches_appending():
    for u, v, n in product(("", "a", "ba", "abc"), ("a", "ab", "bca"), range(-2, 12)):
        expected = _prefix_by_appending(u, v, n)
        assert EventuallyPeriodicSpec(u, v).prefix(n) == expected, (u, v, n)
