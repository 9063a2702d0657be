"""Seeded inputs for the benchmark workloads.

Standard library only, and independent of epiword: the words are built here
with this module's own generators, so a change to the library never changes
what the benchmark feeds it. A seed fixes every word; another seed gives the
same families, sizes and op counts with different words.

An op is a JSON-ready list ``[kind, *args]`` that the worker runs (see
``worker.py``). Each op comes with a metadata dict: its family, its size,
what the independent checks expect of its output and, for ops of about a
millisecond, ``repeat``, the number of calls the worker makes of the op in
one repetition (see ``payload``).
"""

import json
import random
from itertools import cycle, permutations

WORKLOADS = ("decide", "sweep", "extremal")

# The three verification sweeps, run in this fixed order in every
# repetition (the ternary sweep reuses memo entries of the binary one). The
# budgets are below the acceptance ones (14, 14, 8): at those, a repetition
# is three calls of 1-3 s each, and on a shared machine a call that long
# averages over the machine's load instead of finding its fastest time.
SWEEPS = (("episturmian", 2, 10), ("sturmian", 2, 10), ("episturmian", 3, 6))

# Letters for standard words and psi-images; the run-heavy families use the
# disjoint range below, so their decider memo entries are never shared with
# the other ops and their cost does not depend on the seed.
MAIN_LETTERS = "abcdefgh"
RUN_LETTERS = "ijklmnopqrstuvwxyz"

# Calls per repetition of an extremal op that takes about a millisecond;
# the op's time is the fastest call. Only ops with no cache in the library
# are repeated, so every call does the same work.
SHORT_REPEAT = 2


def standard_word(directive, min_len: int) -> str:
    """First palindromic prefix of length >= min_len of the standard word
    directed by the letter iterable ``directive``, or the last one if the
    directive runs out first. Uses Justin's formula: (u x)^+ = u v^-1 u,
    with v the palindromic prefix reached just before the previous
    occurrence of x (u x u when x is new)."""
    us = [""]
    last = {}
    for x in directive:
        if len(us[-1]) >= min_len:
            break
        u = us[-1]
        if x in last:
            u2 = u + u[len(us[last[x]]) :]
        else:
            u2 = u + x + u
        last[x] = len(us) - 1
        us.append(u2)
    return us[-1]


def psi(x: str, w: str) -> str:
    return "".join(c if c == x else x + c for c in w)


def is_balanced(w: str) -> bool:
    """Binary balance over any two letters, by prefix counts of the first
    letter: every window length sees counts differing by at most one."""
    if len(set(w)) < 2:
        return True
    first = w[0]
    pre = [0]
    for c in w:
        pre.append(pre[-1] + (c == first))
    n = len(w)
    for length in range(1, n):
        counts = [pre[i + length] - pre[i] for i in range(n - length + 1)]
        if max(counts) - min(counts) > 1:
            return False
    return True


def _random_directive(rng: random.Random, letters: str, blocks: int = 32) -> str:
    """Random directive over letters: a chain of random permutations of them,
    so every letter recurs and the word grows at a steady rate."""
    return "".join("".join(rng.sample(letters, len(letters))) for _ in range(blocks))


def _standard_factor(rng: random.Random, n: int, n_letters: int):
    """A length-n factor, holding all n_letters letters, of the standard word
    of a random directive, and the standard word it came from."""
    letters = "".join(rng.sample(MAIN_LETTERS, n_letters))
    t = standard_word(_random_directive(rng, letters), 3 * n)
    while True:
        start = rng.randrange(2 * n)
        w = t[start : start + n]
        if len(set(w)) == n_letters:
            return w, t


def _psi_image(rng: random.Random, n: int, n_letters: int):
    """A psi-image of a short unbalanced binary core, at least n letters long.

    No morphism letter equals the core's last letter x, so every
    intermediate image ends in x as well and psi_y(c) is a factor of an
    episturmian word only if c is (align the occurrence on psi_y's blocks).
    The core is unbalanced, hence rejected, and so is every image.
    """
    letters = rng.sample(MAIN_LETTERS, n_letters)
    p, q = letters[0], letters[1]
    while True:
        core = "".join(rng.choice((p, q)) for _ in range(rng.randint(5, 8)))
        if not is_balanced(core):
            break
    others = [c for c in letters if c != core[-1]]
    w = core
    while len(w) < n:
        w = psi(rng.choice(others), w)
    return w


def _spread(rng: random.Random, count: int, pool: str) -> list[tuple[str, str]]:
    """count distinct unordered letter pairs from pool, each in random order."""
    pairs = [(a, b) for i, a in enumerate(pool) for b in pool[i + 1 :]]
    out = []
    for a, b in rng.sample(pairs, count):
        out.append((a, b) if rng.random() < 0.5 else (b, a))
    return out


def decide_ops(seed: int):
    rng = random.Random(f"decide/{seed}")
    ops = []
    for i in range(80):
        n = (100, 200, 400, 700, 1000)[i % 5]
        w, _ = _standard_factor(rng, n, 2 + i % 3)
        ops.append((["decide", w], {"family": "factor", "n": n, "expect": True}))
    for i in range(8):
        n = (100, 300, 1000)[i % 3]
        w, _ = _standard_factor(rng, n, 2 + i % 3)
        ops.append((["wide", w], {"family": "wide_factor", "n": n, "expect": True}))
    for i in range(16):
        n = (100, 300, 1000)[i % 3]
        w = _psi_image(rng, n, 3 + i % 2)
        ops.append((["decide", w], {"family": "psi", "n": n, "expect": False}))
    # The ROADMAP's run-heavy families, a quarter of the ops. More than a
    # tenth of all ops are at the largest size, so op_p90_ms lies inside them.
    # The largest k is 50 (n = 203 for the decider): at k = 60 these words
    # took 60 % of a repetition, leaving too few repetitions in a run for
    # every op's fastest time to be steady.
    pairs = iter(_spread(rng, 32, RUN_LETTERS))
    sizes = (20,) * 4 + (35,) * 4 + (50,) * 8
    for k in sizes:
        a, b = next(pairs)
        w = (a * k + b) * 3 + a * k
        ops.append((["decide", w], {"family": "runs_decide", "n": len(w), "expect": True}))
    for k in sizes:
        a, b = next(pairs)
        w = a * (k + 2) + b + a * k + b
        ops.append((["wide", w], {"family": "runs_wide", "n": len(w), "expect": False}))
    rng.shuffle(ops)
    return ops


def _renamed(rng: random.Random, template: str, pool: str = MAIN_LETTERS) -> str:
    """template with its letters renamed to distinct random letters of pool."""
    letters = sorted(set(template))
    table = dict(zip(letters, rng.sample(pool, len(letters))))
    return "".join(table[c] for c in template)


def extremal_ops(seed: int):
    """One repetition takes about 1.3 s. On a shared machine an op's fastest
    time over a run is steady only if the op is sampled many times in the
    run, so every family is kept as small as its purpose allows."""
    rng = random.Random(f"extremal/{seed}")
    ops = []
    fib = standard_word(cycle("ab"), 10000)
    trib = standard_word(cycle("abc"), 10000)
    words = []
    for n, n_letters in ((1000, 4), (3000, 3), (10000, 2)):
        words.append(("fibonacci", _renamed(rng, fib[:n])))
        words.append(("tribonacci", _renamed(rng, trib[:n])))
        letters = rng.sample(MAIN_LETTERS, n_letters)
        words.append(("random", "".join(rng.choice(letters) for _ in range(n))))
    # The Tetranacci prefix adds 48 ops of about 1 ms whose cost does not
    # depend on the seed. With them, more than half of all ops take about a
    # millisecond or less, and op_p50_ms lies among ops of fixed cost
    # rather than on the seed-dependent random words alone.
    words.append(("tetranacci", _renamed(rng, standard_word(cycle("abcd"), 1000)[:1000])))
    # Runs and periodic words, where min_of/max_of are quadratic.
    for n in (600, 800, 1000):
        words.append(("runs_minmax", _renamed(rng, "a" * (n - 1) + "b")))
        words.append(("periodic", _renamed(rng, "ab" * (n // 2))))
    # One op per extremal factor and order, so every order is covered and
    # no op runs long. Ops on the short words take about a millisecond, too
    # short for one call per repetition to find their fastest time.
    for family, w in words:
        repeat = SHORT_REPEAT if len(w) == 1000 and family not in ("runs_minmax", "periodic") else 1
        for order in all_orders(w):
            for kind in ("min", "max"):
                ops.append(([kind, w, order], {"family": family, "n": len(w), "repeat": repeat}))
    # is_balanced and sturmian_test are defined over the letters a and b only.
    for n in (200, 300, 400):
        t = standard_word(_random_directive(rng, "ab"), n)
        ops.append((["balanced", t[:n]], {"family": "balanced", "n": n}))
    for n in (1000, 3000, 6000):
        for _ in range(2):
            t = standard_word(_random_directive(rng, "ab"), n)
            ops.append((["sturmian", t[:n]], {"family": "sturmian", "n": n}))
    for i in range(12):
        n = (100, 300, 600)[i % 3]
        w, t = _standard_factor(rng, n, 2 + i % 3)
        ops.append((["witness", w, t[:n]], {"family": "witness", "n": n}))
    # Fineness and a.t <= min(t) on renamed periodic directives: every letter
    # recurs, so both hold, and renaming keeps the cost of each op fixed.
    # Five and six letters are left out (0.2 s and 2 s per check at k = 20),
    # and so are four letters past k = 30.
    for kind in ("fine", "mineq"):
        for size, ks in ((2, (20, 35, 50)), (3, (20, 35, 50)), (4, (20, 30))):
            for k in ks:
                spec = "*" + "".join(rng.sample(MAIN_LETTERS, size))
                ops.append(([kind, spec, k], {"family": kind, "n": size, "k": k}))
    for i in range(6):
        spec = "".join(rng.sample(MAIN_LETTERS, 2 + i % 3))
        t = standard_word(cycle(spec), 1000)
        ops.append((["complexity", t[:1000], 30], {"family": "complexity", "n": 1000}))
    rng.shuffle(ops)
    return ops


def sweep_ops(seed: int):
    """The three sweeps; exhaustive, so every seed gives the same inputs."""
    return [
        (
            ["verify", check, size, max_len],
            {"family": "sweep", "n": max_len, "words": sum(size**i for i in range(1, max_len + 1))},
        )
        for check, size, max_len in SWEEPS
    ]


def all_orders(letters) -> list[str]:
    """Every order on the letters, smallest first, as strings."""
    return ["".join(p) for p in permutations(sorted(set(letters)))]


def make_ops(workload: str, seed: int):
    """(ops, metadata) for a workload and seed."""
    build = {"decide": decide_ops, "sweep": sweep_ops, "extremal": extremal_ops}[workload]
    pairs = build(seed)
    return [op for op, _ in pairs], [meta for _, meta in pairs]


def payload(ops, meta) -> str:
    """The worker's first input line: the ops and each op's calls."""
    return json.dumps({"ops": ops, "repeat": [m.get("repeat", 1) for m in meta]})
