import random
from dataclasses import replace
from itertools import product
from types import SimpleNamespace

import pytest

from epiword import (
    DirectiveSpec,
    InputError,
    alph,
    discovery_table,
    is_balanced,
    is_finite_episturmian,
    oracle_is_finite_episturmian,
    oracles,
    pal_closure,
    sweep,
)
from epiword.oracles import _balanced_levels, check_certificate
from references import balanced_by_windows


def _discovery_table_full_scan(letters, max_len):
    # Reference: every window that ends past the parent, mirrored copy
    # of the parent included.
    letters = sorted(set(letters))
    table = {}

    def visit(u, parent_len, depth):
        for end in range(parent_len + 1, len(u) + 1):
            for size in range(1, min(max_len, end) + 1):
                f = u[end - size : end]
                old = table.get(f)
                if old is None or depth < old:
                    table[f] = depth
        if depth < max_len:
            for x in letters:
                visit(pal_closure(u + x), len(u), depth + 1)

    for x in letters:
        visit(x, 0, 1)
    return table


def test_oracle_examples():
    assert oracle_is_finite_episturmian("baabacababac")
    assert not oracle_is_finite_episturmian("aabb")
    assert oracle_is_finite_episturmian("a")
    assert oracle_is_finite_episturmian("aaaa")


@pytest.mark.parametrize("letters, max_len, checked", [("ab", 12, 6), ("abc", 8, 4)])
def test_no_factor_first_found_deeper_than_its_length(letters, max_len, checked):
    # The oracle stops at directive length |w|; directives up to twice that
    # long find no factor of length n that none of length <= n finds.
    table = discovery_table(letters, max_len)
    late = {f: d for f, d in table.items() if len(f) <= checked and d > len(f)}
    assert not late


@pytest.mark.parametrize(
    "letters, max_len", [("a", 6), ("ab", 12), ("abc", 8), ("abcd", 5), ("abcde", 5)]
)
def test_discovery_table_matches_full_scan(letters, max_len):
    assert discovery_table(letters, max_len) == _discovery_table_full_scan(letters, max_len)


@pytest.mark.parametrize("letters, max_len", [("abc", 8), ("abcd", 7)])
def test_one_table_reference_matches_per_alphabet_tables(letters, max_len):
    # The sweep's reference walks directives over all its letters once; the
    # oracle's contract is directives over Alph(w) up to depth |w|, here one
    # discovery table per word alphabet.
    reference = oracles._episturmian_reference(letters, max_len)
    tables = {}
    for n in range(1, max_len + 1):
        for w in map("".join, product(letters, repeat=n)):
            key = frozenset(w)
            if key not in tables:
                tables[key] = discovery_table(key, max_len)
            depth = tables[key].get(w)
            assert reference(w) == (depth is not None and depth <= n), w


def test_discovery_table_agrees_with_oracle():
    table = discovery_table("ab", 6)
    for n in range(1, 7):
        for tup in product("ab", repeat=n):
            w = "".join(tup)
            found = table.get(w)
            expected = oracle_is_finite_episturmian(w)
            assert (found is not None and found <= n) == expected, w


def test_certificate_checker_accepts_every_sweep_certificate():
    accepted = 0
    for letters, max_len in (("ab", 10), ("abc", 6)):
        for n in range(1, max_len + 1):
            for w in map("".join, product(letters, repeat=n)):
                verdict = is_finite_episturmian(w)
                if verdict.accepted:
                    accepted += 1
                    assert check_certificate(w, verdict.certificate), w
    assert accepted == 878


def test_certificate_checker_on_factors_of_random_standard_words():
    # The reference witness loop builds |A|! orders per word, so n is capped
    # per alphabet size. A factor holding all 8 letters is at least 65 long
    # and takes the two order loops about 3.5 s, so the 8-letter words hold
    # fewer letters.
    rng = random.Random(37)
    most = 0
    for size, max_n, count in ((2, 300, 12), (3, 160, 12), (4, 90, 10), (5, 60, 8), (6, 40, 6), (7, 32, 3), (8, 30, 2)):
        letters = "abcdefgh"[:size]
        for _ in range(count):
            chain = "".join(rng.sample(letters, size) + rng.choices(letters, k=size))
            n = rng.randint(max_n // 2, max_n)
            t = DirectiveSpec(chain, letters).prefix(3 * n)
            i = rng.randrange(2 * n)
            w = t[i : i + n]
            verdict = is_finite_episturmian(w)
            assert verdict.accepted, w
            assert check_certificate(w, verdict.certificate), w
            most = max(most, len(alph(w)))
    assert most >= 6


def test_certificate_checker_rejects_altered_certificates():
    w = "baabacababac"
    cert = is_finite_episturmian(w).certificate
    assert check_certificate(w, cert)
    bad_directive = replace(cert, embedding_directive=DirectiveSpec("ab", "a"))
    assert not check_certificate(w, bad_directive)
    embedding = ""
    for x in cert.embedding_directive.preperiod:
        embedding = pal_closure(embedding + x)
    # The negative index slices out w too, counted from the end.
    for i in (cert.occurrence_index + 1, cert.occurrence_index - len(embedding)):
        assert not check_certificate(w, replace(cert, occurrence_index=i))
    assert not check_certificate(w, replace(cert, witness_u="b" + cert.witness_u[1:]))
    assert not check_certificate(w, replace(cert, witness_u=cert.witness_u[:-1]))


def test_balanced_levels():
    # The binary sweeps' reference: level n holds the balanced words of
    # length n.
    levels = _balanced_levels(16)
    assert levels[1] == {"a", "b"}
    assert levels[2] == {"aa", "ab", "ba", "bb"}
    four = levels[4]
    assert "aabb" not in four and "bbaa" not in four
    assert four == {w for w in ("".join(t) for t in product("ab", repeat=4)) if is_balanced(w)}
    for n in range(17):
        words = ("".join(t) for t in product("ab", repeat=n))
        assert levels[n] == {w for w in words if balanced_by_windows(w)}, n


def test_sweep_small():
    report = sweep("episturmian", 2, 8)
    assert report.passed
    assert report.total_words == 2**9 - 2
    report = sweep("sturmian", 2, 8)
    assert report.passed
    report = sweep("episturmian", 3, 5)
    assert report.passed
    assert report.total_words == (3**6 - 3) // 2


@pytest.mark.parametrize(
    "check, alphabet_size, max_len, words",
    [
        ("episturmian", 2, 8, "aabb"),
        ("episturmian", 2, 8, "abaab"),
        ("sturmian", 2, 8, "abbaab"),
        ("sturmian", 2, 8, "babaa"),
        ("episturmian", 3, 5, "abcab"),
        ("episturmian", 3, 5, "acbca"),
        ("episturmian", 2, 8, "bbbbbbbb baaba abaab a"),
        ("sturmian", 2, 8, "bbbbbbbb bbaa aabb a"),
        ("episturmian", 3, 5, "ccccc cbca acbc a"),
    ],
)
def test_sweep_reports_a_wrong_decider(monkeypatch, check, alphabet_size, max_len, words):
    # A decider that flips its verdict on some words must be caught by the
    # oracle on exactly those words, listed by length, then in the order of
    # itertools.product: the first word, the last word of max_len and two
    # words of one length in between are given here out of that order.
    flips = words.split()
    if check == "episturmian":
        real = lambda w: is_finite_episturmian(w).accepted
        flipped = lambda w: SimpleNamespace(accepted=real(w) != (w in flips))
        monkeypatch.setattr(oracles, "is_finite_episturmian", flipped)
    else:
        real = is_balanced
        monkeypatch.setattr(oracles, "is_balanced", lambda w: real(w) != (w in flips))
    report = sweep(check, alphabet_size, max_len)
    expected = sorted(flips, key=lambda w: (len(w), w))
    assert report.mismatches == [(w, not real(w), real(w)) for w in expected]
    assert report.total_words == sum(alphabet_size**n for n in range(1, max_len + 1))


def test_sweep_validation():
    with pytest.raises(InputError):
        sweep("episturmian", 4, 5)
    with pytest.raises(InputError):
        sweep("episturmian", 2, 15)
    with pytest.raises(InputError):
        sweep("episturmian", 3, 9)
    with pytest.raises(InputError):
        sweep("sturmian", 3, 5)
    with pytest.raises(InputError):
        sweep("unknown", 2, 5)


def test_sweep_report_json():
    report = sweep("episturmian", 2, 5)
    data = report.to_json_dict()
    assert data["passed"] is True
    assert data["mismatches"] == []
    assert "elapsed_seconds" not in data
