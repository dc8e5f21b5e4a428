"""Seeded instance generator for the benchmark.

Every function returns plain JSON documents in the CLI's file formats, so
the program under test only ever sees generated documents.  The scaling
families are fixed by their size; the random presentations are drawn from
a ``random.Random`` seeded with a string, so one seed always yields the
same bytes.

Random presentations satisfy the base category's composition equations by
construction: only the generating arrows are drawn and every composite is
derived from them (``tw = uw . tu = vw . tv`` in the sheaf base,
``w = f . e = g . e`` in the equalizer base).

The closed forms used by the correctness gate are computed from the
documents alone, independently of the engine:

* ``binary_product``: the reflection keeps ``a`` and makes ``p = a x a``;
* ``two_cover_sheaf``: ``U, V, W`` are kept and ``T`` becomes the set of
  matching pairs ``{(u, v) : uw(u) = vw(v)}``;
* ``equalizer``: ``a, b`` are kept and ``q`` becomes the agreeing elements
  ``{x : f(x) = g(x)}``.
"""

from __future__ import annotations

import random
from itertools import product as cartesian


def rng_for(seed: int, label: str) -> random.Random:
    """An independent generator per (seed, instance label)."""
    return random.Random(f"limsketch-bench:{seed}:{label}")


def _ids(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{i}" for i in range(n)]


# -- binary_product -----------------------------------------------------------


def product_family(n: int) -> dict:
    """|a| = n, empty peak: the reflection must build all n^2 pairs."""
    return {
        "category": "binary_product",
        "carrier": {"a": _ids("x", n), "p": []},
        "action": {"pi1": {}, "pi2": {}},
    }


def product_random(rng: random.Random, n: int, peak: int) -> dict:
    """|a| = n and ``peak`` witnesses over random pairs, some repeated.

    About a third of the witnesses reuse an earlier pair, so the gap map is
    not injective and rule (1) merges fire.
    """
    a = _ids("x", n)
    pi1: dict[str, str] = {}
    pi2: dict[str, str] = {}
    drawn: list[tuple[str, str]] = []
    for i in range(peak):
        if drawn and rng.random() < 1 / 3:
            pair = rng.choice(drawn)
        else:
            pair = (rng.choice(a), rng.choice(a))
        drawn.append(pair)
        pi1[f"w{i}"], pi2[f"w{i}"] = pair
    return {
        "category": "binary_product",
        "carrier": {"a": a, "p": sorted(pi1)},
        "action": {"pi1": pi1, "pi2": pi2},
    }


def product_square_model(k: int) -> dict:
    """The model a = k elements, p = a x a with its projections."""
    a = _ids("m", k)
    pairs = {f"{x}.{y}": (x, y) for x, y in cartesian(a, a)}
    return {
        "category": "binary_product",
        "carrier": {"a": a, "p": sorted(pairs)},
        "action": {
            "pi1": {p: xy[0] for p, xy in pairs.items()},
            "pi2": {p: xy[1] for p, xy in pairs.items()},
        },
    }


def product_universal(rng: random.Random, n: int, k: int) -> tuple[dict, dict, dict]:
    """X = n points (empty peak), M = the square of a k-set, f seeded."""
    x = product_family(n)
    model = product_square_model(k)
    f = {"a": {e: rng.choice(model["carrier"]["a"]) for e in x["carrier"]["a"]}, "p": {}}
    return x, model, {"components": f}


# -- two_cover_sheaf ----------------------------------------------------------


def _sheaf_doc(
    u: list[str],
    v: list[str],
    w: list[str],
    uw: dict[str, str],
    vw: dict[str, str],
    sections: list[tuple[str, str]],
) -> dict:
    """A sheaf presentation whose T elements are the given matching pairs."""
    tu, tv, tw = {}, {}, {}
    for i, (x, y) in enumerate(sections):
        if uw[x] != vw[y]:
            raise ValueError(f"section ({x}, {y}) does not match")
        t = f"t{i}"
        tu[t], tv[t], tw[t] = x, y, uw[x]
    return {
        "category": "two_cover_sheaf",
        "carrier": {"T": sorted(tu), "U": u, "V": v, "W": w},
        "action": {"tu": tu, "tv": tv, "tw": tw, "uw": uw, "vw": vw},
    }


def matching_pairs(doc: dict) -> list[tuple[str, str]]:
    carrier, action = doc["carrier"], doc["action"]
    return [
        (x, y)
        for x in carrier["U"]
        for y in carrier["V"]
        if action["uw"][x] == action["vw"][y]
    ]


def sheaf_family(n: int) -> dict:
    """|U| = |V| = |W| = n, both restrictions the identity, T empty.

    The cospan limit scans n^3 candidates to emit n matching pairs.
    """
    s = _ids("s", n)
    ident = {x: x for x in s}
    return _sheaf_doc(s, s, s, ident, dict(ident), [])


def sheaf_random(rng: random.Random, n: int, w: int) -> dict:
    """Random restrictions U, V -> W and a partial, repeating set of sections.

    T holds about half of the matching pairs, a few of them twice.
    """
    u, v, ws = _ids("u", n), _ids("v", n), _ids("c", w)
    uw = {x: rng.choice(ws) for x in u}
    vw = {y: rng.choice(ws) for y in v}
    doc = _sheaf_doc(u, v, ws, uw, vw, [])
    matches = matching_pairs(doc)
    sections = [pair for pair in matches if rng.random() < 0.5]
    sections += rng.sample(sections, len(sections) // 8)
    return _sheaf_doc(u, v, ws, uw, vw, sections)


def sheaf_universal(rng: random.Random) -> tuple[dict, dict, dict]:
    """X over a 2-element cover into a model over a 3-element cover.

    Both restrictions of M and of X are bijections drawn by the seed, so
    the search space is the same for every seed: 3^2 * 3^2 * 3^2 * 3^2.
    """
    mu, mv, mw = _ids("mu", 3), _ids("mv", 3), _ids("mw", 3)
    m_uw = dict(zip(mu, rng.sample(mw, 3)))
    m_vw = dict(zip(mv, rng.sample(mw, 3)))
    model = _sheaf_doc(mu, mv, mw, m_uw, m_vw, [])
    model = _sheaf_doc(mu, mv, mw, m_uw, m_vw, matching_pairs(model))

    # X is the restriction of M to two points of W, renamed.
    keep_w = sorted(rng.sample(mw, 2))
    xw = {c: f"xw{i}" for i, c in enumerate(keep_w)}
    inv_uw = {c: x for x, c in m_uw.items()}
    inv_vw = {c: y for y, c in m_vw.items()}
    xu = {inv_uw[c]: f"xu{i}" for i, c in enumerate(keep_w)}
    xv = {inv_vw[c]: f"xv{i}" for i, c in enumerate(keep_w)}
    x = _sheaf_doc(
        sorted(xu.values()),
        sorted(xv.values()),
        sorted(xw.values()),
        {xu[mx]: xw[m_uw[mx]] for mx in xu},
        {xv[my]: xw[m_vw[my]] for my in xv},
        [],
    )
    components = {
        "T": {},
        "U": {xu[mx]: mx for mx in xu},
        "V": {xv[my]: my for my in xv},
        "W": {xw[c]: c for c in xw},
    }
    return x, model, {"components": components}


# -- equalizer ----------------------------------------------------------------


def _equalizer_doc(
    a: list[str], b: list[str], f: dict[str, str], g: dict[str, str], q: list[str]
) -> dict:
    """An equalizer presentation; ``q`` lists agreeing elements to witness."""
    e, w = {}, {}
    for i, x in enumerate(q):
        if f[x] != g[x]:
            raise ValueError(f"{x} is not an agreeing element")
        e[f"q{i}"] = x
        w[f"q{i}"] = f[x]
    return {
        "category": "equalizer",
        "carrier": {"a": a, "b": b, "q": sorted(e)},
        "action": {"e": e, "f": f, "g": g, "w": w},
    }


def agreeing(doc: dict) -> list[str]:
    f, g = doc["action"]["f"], doc["action"]["g"]
    return [x for x in doc["carrier"]["a"] if f[x] == g[x]]


def equalizer_family(n: int) -> dict:
    """|a| = n, |b| = n/4; f and g agree on the even-indexed half, q empty."""
    a = _ids("x", n)
    k = max(2, n // 4)
    b = _ids("y", k)
    f = {x: b[i % k] for i, x in enumerate(a)}
    g = {x: b[i % k] if i % 2 == 0 else b[(i + 1) % k] for i, x in enumerate(a)}
    return _equalizer_doc(a, b, f, g, [])


def equalizer_universal(rng: random.Random) -> tuple[dict, dict, dict]:
    """X with two agreeing and one disagreeing point into a 4-point model.

    M has |a| = 4, |b| = 2 and agrees on two points; X is M restricted to
    three of them, so the core has |a| = 3, |b| = 2, |q| = 2 for every seed.
    """
    ma, mb = _ids("ma", 4), _ids("mb", 2)
    f = {x: rng.choice(mb) for x in ma}
    agree = set(rng.sample(ma, 2))
    other = {mb[0]: mb[1], mb[1]: mb[0]}
    g = {x: f[x] if x in agree else other[f[x]] for x in ma}
    model = _equalizer_doc(ma, mb, f, g, sorted(agree))
    keep = sorted(agree) + [rng.choice(sorted(set(ma) - agree))]
    rename = {mx: f"xa{i}" for i, mx in enumerate(keep)}
    xb = {mb[0]: "xb0", mb[1]: "xb1"}
    x = _equalizer_doc(
        sorted(rename.values()),
        sorted(xb.values()),
        {rename[mx]: xb[f[mx]] for mx in keep},
        {rename[mx]: xb[g[mx]] for mx in keep},
        [],
    )
    components = {
        "a": {rename[mx]: mx for mx in keep},
        "b": {xb[mx]: mx for mx in mb},
        "q": {},
    }
    return x, model, {"components": components}


# -- closed forms -------------------------------------------------------------


def expected_core(doc: dict) -> dict[str, int]:
    """Core sizes of the reflection of ``doc``, from the closed forms."""
    carrier = doc["carrier"]
    family = doc["category"]
    if family == "binary_product":
        n = len(carrier["a"])
        return {"a": n, "p": n * n}
    if family == "two_cover_sheaf":
        sizes = {o: len(carrier[o]) for o in ("U", "V", "W")}
        return {"T": len(matching_pairs(doc)), **sizes}
    if family == "equalizer":
        return {"a": len(carrier["a"]), "b": len(carrier["b"]), "q": len(agreeing(doc))}
    raise ValueError(f"no closed form for {family!r}")


def search_space(x: dict, model: dict) -> int:
    """Candidate count of the uniqueness search: prod |M(d)| ** |core(d)|."""
    size = 1
    for obj, n in expected_core(x).items():
        size *= len(model["carrier"][obj]) ** n
    return size
