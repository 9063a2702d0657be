"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they go.
All checks are exact; the only tolerances are the stated runtime budgets.
"""

import random
import time
from contextlib import contextmanager

from epiword import (
    DirectiveSpec,
    EpiskewSpec,
    Order,
    all_orders,
    alph,
    apply_morphism,
    check_min_inequality,
    check_witness,
    factor_complexity,
    is_finite_episturmian,
    min_of,
    psi,
    reversal,
    standard_prefix,
    sturmian_test,
    sweep,
    wide_sense_check,
)
from references import h_words, palindromic_prefixes


@contextmanager
def criterion(num, name, budget=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed > budget:
        print(f"[criterion {num:02d}] {name}: FAIL (took {elapsed:.1f}s > {budget}s)")
        raise AssertionError(f"criterion {num} exceeded {budget}s budget")
    print(f"[criterion {num:02d}] {name}: PASS ({elapsed:.2f}s)")


def test_criterion_01_extremal_factor_regression():
    with criterion(1, "extremal-factor regression", budget=1.0):
        w = "baabacababac"
        expected = {
            "abc": "aabacababac",
            "acb": "aabacababac",
            "bac": "babac",
            "bca": "babac",
            "cab": "cababac",
            "cba": "cababac",
        }
        for letters, m in expected.items():
            assert min_of(w, Order(letters)) == m, letters


def test_criterion_02_witness_verification():
    with criterion(2, "witness verification", budget=1.0):
        w = "baabacababac"
        assert check_witness(w, "abacaaaaaa") is True
        cert = is_finite_episturmian(w).certificate
        assert cert is not None and cert.witness_u.startswith("aba")
        u = cert.witness_u
        assert check_witness(w, u)


def test_criterion_03_sturmian_test_regression():
    with criterion(3, "min/max Sturmian test regression", budget=1.0):
        good = sturmian_test("ababaabaabab")
        assert good.sturmian
        assert good.common_prefix == "abaaba"
        assert good.after_min == "b" and good.after_max == "a"
        bad = sturmian_test("aabababaabaab")
        assert not bad.sturmian
        assert bad.u == "aba"


def test_criterion_04_binary_sweep():
    with criterion(4, "binary sweep n<=14 (decider = balance = min/max test)", budget=20.0):
        episturmian = sweep("episturmian", 2, 14)
        assert episturmian.total_words == 2**15 - 2
        assert episturmian.mismatches == []
        sturmian = sweep("sturmian", 2, 14)
        assert sturmian.mismatches == []


def test_criterion_05_ternary_sweep():
    with criterion(5, "ternary sweep n<=8 vs directive enumeration", budget=30.0):
        report = sweep("episturmian", 3, 8)
        assert report.total_words == (3**9 - 3) // 2
        assert report.mismatches == []


def test_criterion_06_min_suffix_property():
    with criterion(6, "min(w) suffix + unioccurrence, 10^4 random words"):
        rng = random.Random(20260808)
        for _ in range(10_000):
            size = rng.randint(2, 4)
            letters = "abcd"[:size]
            w = "".join(rng.choice(letters) for _ in range(rng.randint(1, 200)))
            for order in all_orders(alph(w)):
                m = min_of(w, order)
                assert w.endswith(m)
                assert w.find(m) == len(w) - len(m)


def test_criterion_07_extremal_transfer_under_psi():
    with criterion(7, "extremal transfer under psi, 10^4 random pairs"):
        rng = random.Random(77)
        buckets = {(a, b): 0 for a in (False, True) for b in (False, True)}
        done = 0
        while done < 10_000:
            size = rng.randint(2, 3)
            letters = "abc"[:size]
            w2 = "".join(rng.choice(letters) for _ in range(rng.randint(1, 40)))
            z = rng.choice(letters)
            append = rng.random() < 0.5
            if not append and w2.endswith(z):
                w2 = w2.rstrip(z)
                if not w2:
                    continue
            w = psi(z, w2) + (z if append else "")
            done += 1
            for order in all_orders(alph(w2) | {z}):
                image = psi(z, min_of(w2, order))
                m = min_of(w, order)
                begins = m.startswith(z)
                expected = image if begins else image[1:]
                if append:
                    expected += z
                assert m == expected, (w2, z, append, order.letters)
                buckets[(append, begins)] += 1
        assert all(count > 0 for count in buckets.values()), buckets


def test_criterion_08_prefix_product_identity():
    with criterion(8, "u(n) = h(n-2)...h(0) for n<=20, 100 random directives"):
        rng = random.Random(8)
        for _ in range(100):
            size = rng.randint(2, 3)
            letters = "abc"[:size]
            pre = "".join(rng.choice(letters) for _ in range(rng.randint(0, 3)))
            per = "".join(rng.choice(letters) for _ in range(rng.randint(1, 4)))
            d = DirectiveSpec(pre, per)
            us = palindromic_prefixes(d, 20)
            hs = h_words(d, 19)
            for n in range(2, 21):
                assert us[n - 1] == "".join(reversed(hs[: n - 1])), (d, n)


def test_criterion_09_factor_complexity():
    with criterion(9, "factor complexity (k-1)n+1 at length 5000"):
        tribonacci = standard_prefix(DirectiveSpec("", "abc"), 5000)[:5000]
        counts = factor_complexity(tribonacci, 50)
        assert counts == [2 * n + 1 for n in range(1, 51)]
        fibonacci = standard_prefix(DirectiveSpec("", "ab"), 5000)[:5000]
        counts = factor_complexity(fibonacci, 50)
        assert counts == [n + 1 for n in range(1, 51)]


def _random_strict_spec(rng):
    size = rng.choice([2, 3])
    letters = list("abc"[:size])
    rng.shuffle(letters)
    period = "".join(letters) + "".join(
        rng.choice(letters) for _ in range(rng.randint(0, 3))
    )
    pre = "".join(rng.choice(letters) for _ in range(rng.randint(0, 3)))
    return DirectiveSpec(pre, period)


def _random_nonstrict_spec(rng):
    size = rng.choice([2, 3])
    letters = "abc"[:size]
    missing = rng.choice(letters)
    kept = [c for c in letters if c != missing]
    period = "".join(rng.choice(kept) for _ in range(rng.randint(1, 4)))
    pre = missing + "".join(rng.choice(letters) for _ in range(rng.randint(0, 2)))
    return DirectiveSpec(pre, period)


def test_criterion_10_min_inequality_and_strictness():
    with criterion(10, "a·t <= min(t) at k=50, strict with equality"):
        rng = random.Random(10)
        for _ in range(50):
            spec = _random_strict_spec(rng)
            assert spec.is_strict
            assert check_min_inequality(spec, 50), spec
        for _ in range(20):
            spec = _random_nonstrict_spec(rng)
            assert not spec.is_strict
            assert check_min_inequality(spec, 50), spec


def _shortest_unioccurrent_factor_with(prefix, letter):
    for n in range(1, len(prefix) + 1):
        for i in range(len(prefix) - n + 1):
            f = prefix[i : i + n]
            if letter not in f:
                continue
            if prefix.find(f, i + 1) == -1 and prefix.find(f) == i:
                return f
    return None


def _random_episkew_spec(rng):
    total = rng.choice([2, 3])
    letters = "abc"[:total]
    excluded = rng.choice(letters)
    inner_letters = [c for c in letters if c != excluded]
    rng.shuffle(inner_letters)
    period = "".join(inner_letters) + "".join(
        rng.choice(inner_letters) for _ in range(rng.randint(0, 2))
    )
    pre = "".join(rng.choice(inner_letters) for _ in range(rng.randint(0, 2)))
    mu = "".join(rng.choice(letters) for _ in range(rng.randint(0, 3)))
    p = rng.randint(0, 4)
    inner = DirectiveSpec(pre, period)
    head_image = apply_morphism(mu, reversal(inner.prefix(p)) + excluded)
    index = rng.randint(1, len(head_image))
    return EpiskewSpec(mu, excluded, inner, p, index)


def test_criterion_11_wide_sense_and_non_recurrence():
    with criterion(11, "episkew prefixes: wide-sense + non-recurrent factor"):
        rng = random.Random(11)
        for _ in range(20):
            spec = _random_episkew_spec(rng)
            prefix = spec.prefix(200)
            assert wide_sense_check(prefix).ok, spec
            marker = _shortest_unioccurrent_factor_with(prefix, spec.excluded_letter)
            assert marker is not None, spec
            assert len(marker) < len(prefix), spec
