from itertools import product

import pytest

from epiword import (
    InputError,
    discovery_table,
    enumerate_balanced,
    is_balanced,
    oracle_is_finite_episturmian,
    sweep,
)


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


def test_discovery_table_agrees_with_oracle():
    table = discovery_table("ab", 6)
    for n in range(1, 7):
        for tup in product("ab", repeat=n):
            w = "".join(tup)
            found = table.get(w)
            expected = oracle_is_finite_episturmian(w)
            assert (found is not None and found <= n) == expected, w


def test_enumerate_balanced():
    assert enumerate_balanced(1) == {"a", "b"}
    assert enumerate_balanced(2) == {"aa", "ab", "ba", "bb"}
    four = enumerate_balanced(4)
    assert "aabb" not in four and "bbaa" not in four
    assert four == {w for w in ("".join(t) for t in product("ab", repeat=4)) if is_balanced(w)}
    with pytest.raises(InputError):
        enumerate_balanced(21)


def test_sweep_small():
    report = sweep("episturmian", 2, 8)
    assert report.passed
    assert report.total_words == 2**9 - 2
    report = sweep("sturmian", 2, 8)
    assert report.passed
    report = sweep("episturmian", 3, 5)
    assert report.passed
    assert report.total_words == (3**6 - 3) // 2


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
