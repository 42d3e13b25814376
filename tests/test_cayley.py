"""Presentations, coset enumeration, and Cayley graphs."""

import json
import os
import subprocess
import sys
import time
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from conftest import fixture_path
from oracles import (
    brute_canonical_face,
    check_regular_action,
    exponent_sums,
    orbifold_euler_characteristic,
    perm_compose,
    perm_inverse,
    rational_rank,
    reference_coset_enumerate,
    relator_words,
    spherical_order,
    verify_table_isomorphism,
    von_dyck_permutation_group,
)
from planarblocks import (
    GroupTable,
    Presentation,
    RotationSystem,
    cayley_graph,
    certify_embedding,
    coset_enumerate,
    equivariant_rotation,
    facial_walks,
    invert_word,
    parse_presentation,
    planarity_test,
    surface_presentation,
    triblock_tree,
)
from planarblocks import cli, planar
from planarblocks.blocks2 import KIND_THREE_CONNECTED
from planarblocks.cayley import (MAX_WORD_LETTERS, check_relators,
                                 free_abelian_rank, rotation_candidates,
                                 surface_signature)
from planarblocks.errors import (BadExponent, InvariantViolated,
                                 MalformedInput, Overflow, TooLarge)


def read_pres(name):
    with open(fixture_path(name)) as f:
        return parse_presentation(f.read())


# ---------------------------------------------------------------------------
# words and presentations


def test_invert_word():
    w = (("e1", 1), ("e2", -1))
    assert invert_word(w) == (("e2", 1), ("e1", -1))
    assert invert_word(()) == ()


def test_surface_presentation_triangle():
    p = surface_presentation(0, (2, 3, 3), 0)
    assert p.generators == ("e1", "e2", "e3")
    assert p.relators == (
        ((("e1", 1),), 2), ((("e2", 1),), 3), ((("e3", 1),), 3),
        ((("e1", 1), ("e2", 1), ("e3", 1)), 1))
    assert relator_words(p) == (
        (("e1", 1), ("e1", 1)),
        (("e2", 1), ("e2", 1), ("e2", 1)),
        (("e3", 1), ("e3", 1), ("e3", 1)),
        (("e1", 1), ("e2", 1), ("e3", 1)),
    )


def test_surface_presentation_torus():
    p = surface_presentation(1, (), 0)
    assert p.generators == ("a1", "b1")
    assert p.relators == (
        ((("a1", 1), ("b1", 1), ("a1", -1), ("b1", -1)), 1),)


def test_surface_presentation_with_punctures():
    p = surface_presentation(0, (2,), 2)
    assert p.generators == ("e1", "f1", "f2")
    assert p.relators == (((("e1", 1),), 2),
                          ((("e1", 1), ("f1", 1), ("f2", 1)), 1))


def test_presentation_validation():
    with pytest.raises(BadExponent) as info:
        surface_presentation(0, (2, 1), 0)
    assert str(info.value) == "power relator exponent must be at least 2"
    assert info.value.witness == {"generator": "e2", "exponent": 1}
    with pytest.raises(BadExponent):
        Presentation(("a",), (((("a", 1),), 2), ((("a", 1),), 0)))
    with pytest.raises(MalformedInput):
        Presentation(("a", "a"), ())
    with pytest.raises(MalformedInput):
        Presentation(("a",), (((("b", 1),), 2),))
    with pytest.raises(MalformedInput):
        Presentation(("a",), (((("a", 1), ("a", 2)), 1),))
    with pytest.raises(MalformedInput):
        Presentation(("a",), (((), 1),))
    with pytest.raises(MalformedInput):
        # a * a^-1 is not reduced
        Presentation(("a",), (((("a", 1), ("a", -1)), 1),))


def test_parse_plain_sections():
    p = parse_presentation("gens: e1 e2\nrels: e1^2, e2^2, (e1*e2)^3\n")
    assert p.generators == ("e1", "e2")
    assert p.relators == (((("e1", 1),), 2), ((("e2", 1),), 2),
                          ((("e1", 1), ("e2", 1)), 3))
    # positive powers of single letters are scanned first
    p = parse_presentation("gens: a b\nrels: (a*b)^3, a^-2, b^4, a")
    assert p.relators == (((("b", 1),), 4), ((("a", 1), ("b", 1)), 3),
                          ((("a", -1),), 2), ((("a", 1),), 1))


def test_parse_accepts_comments_and_semicolons():
    p = parse_presentation("# cyclic\ngens: e1; rels: e1^6")
    assert p.relators == (((("e1", 1),), 6),)


def test_parse_bare_relator_product():
    bare = parse_presentation("gens: a b\nrels: a^3, b^3, a*b*a^-1*b^-1")
    paren = parse_presentation("gens: a b\nrels: a^3, b^3, (a*b*a^-1*b^-1)")
    assert bare == paren
    assert coset_enumerate(bare).order == coset_enumerate(paren).order == 9
    with pytest.raises(MalformedInput):
        parse_presentation("gens: a b\nrels: a*(b")


def test_parse_surface_shorthand():
    p = parse_presentation("surface(0, [2,3,4], 0)")
    assert p == surface_presentation(0, (2, 3, 4), 0)
    assert p.relators[:3] == (((("e1", 1),), 2), ((("e2", 1),), 3),
                              ((("e3", 1),), 4))


def test_parse_rejects_conflicts_and_noise():
    with pytest.raises(MalformedInput):
        parse_presentation("gens: a\nsurface(0, [2], 0)")
    with pytest.raises(MalformedInput):
        parse_presentation("rels: a^2")
    with pytest.raises(MalformedInput):
        parse_presentation("gens: a\nbogus line")
    with pytest.raises(BadExponent):
        parse_presentation("gens: a\nrels: a^0")
    with pytest.raises(MalformedInput):
        parse_presentation("surface(0, [2 3], x)")
    # two counts without a comma between them are one malformed entry
    with pytest.raises(MalformedInput, match="cannot parse surface"):
        parse_presentation("surface(0, [2 3], 0)")
    # a doubled or trailing comma leaves an empty cone-point entry
    for text in ("surface(1, [2,,3,], 0)", "surface(0, [2,3,], 0)",
                 "surface(0, [,], 0)", "surface(0, [ , 2], 0)"):
        with pytest.raises(MalformedInput, match="cannot parse surface"):
            parse_presentation(text)
    # no cone point at all, and entries spaced around their commas, are
    # still read
    assert parse_presentation("surface(1, [], 0)") \
        == parse_presentation("surface(1, [ ], 0)") \
        == surface_presentation(1, (), 0)
    assert parse_presentation("surface(0, [ 2 , 3,4 ], 0)") \
        == surface_presentation(0, (2, 3, 4), 0)


# ---------------------------------------------------------------------------
# coset enumeration


def test_enumerate_cyclic():
    tbl = coset_enumerate(read_pres("z6.pres"))
    assert tbl.order == 6
    assert tbl.identity == 0
    # e1 acts as a single 6-cycle
    g, seen = 0, []
    for _ in range(6):
        seen.append(g)
        g = tbl.perm(("e1", 1))[g]
    assert g == 0 and len(set(seen)) == 6


def test_enumerate_dihedral():
    tbl = coset_enumerate(read_pres("d3.pres"))
    assert tbl.order == 6


def test_enumerate_triangle_groups_match_permutation_models():
    for name, (m1, m2, m3) in (("vd233.pres", (2, 3, 3)),
                               ("vd234.pres", (2, 3, 4))):
        pr = read_pres(name)
        tbl = coset_enumerate(pr)
        elements, x, y = von_dyck_permutation_group(m1, m2, m3)
        assert tbl.order == len(elements)
        z = perm_inverse(perm_compose(x, y))
        assert verify_table_isomorphism(tbl, {"e1": x, "e2": y, "e3": z})


def test_enumeration_is_deterministic():
    pr = read_pres("vd233.pres")
    a = coset_enumerate(pr)
    b = coset_enumerate(pr)
    assert a.order == b.order
    assert a.images == b.images


def test_relators_trace_identity_from_every_element():
    pr = read_pres("vd234.pres")
    tbl = coset_enumerate(pr)
    for word in relator_words(pr):
        for g in range(tbl.order):
            h = g
            for letter in word:
                h = tbl.perm(letter)[h]
            assert h == g


def test_infinite_group_overflows():
    with pytest.raises(Overflow):
        coset_enumerate(read_pres("z2.pres"), limit=100)
    with pytest.raises(MalformedInput):
        coset_enumerate(read_pres("z6.pres"), limit=0)


def test_infinite_groups_stop_at_the_definition_cap():
    # the (2,3,7) triangle group with a redundant relator, and a finite
    # abelianisation: no certificate applies.  The cap is 2*limit + 32 =
    # 20,032 cosets
    with pytest.raises(Overflow) as info:
        coset_enumerate(parse_presentation(
            "gens: a b; rels: a^2, b^3, (a*b)^7, (a*b)^14"))
    assert info.value.witness == {"limit": 10000, "defined": 20032}


CERTIFIED_INFINITE = [
    ("surface(0, [2,3,7], 0)", "-1/42"),
    ("surface(1, [], 0)", "0"),
    # triangle presentations, read as the signature (0; l, m, n; 0)
    ("gens: a b; rels: a^2, b^3, (a*b)^7", "-1/42"),
    ("gens: a b; rels: a^2, b^4, (a*b)^4", "0"),
    ("gens: x y; rels: (y*x)^7, y^3, x^2", "-1/42"),
    # a and b^-1 generate the same (2,3,7) group
    ("gens: a b; rels: a^2, b^3, (a*b^-1)^7", "-1/42"),
]


@pytest.mark.parametrize("text, chi", CERTIFIED_INFINITE,
                         ids=[text for text, _ in CERTIFIED_INFINITE])
def test_surface_groups_are_certified_infinite(text, chi):
    with pytest.raises(Overflow) as info:
        coset_enumerate(parse_presentation(text), limit=3)
    assert str(info.value) == "group is infinite"
    assert info.value.witness == {"limit": 3, "euler_characteristic": chi}


def test_surface_certificate_reads_only_surface_presentations():
    # e1^2, e2^3, e3^7 with the relator e1*e2, not e1*e2*e3, reads like
    # surface(0, [2,3,7], 0) but is the finite group Z_7
    pr = Presentation(("e1", "e2", "e3"),
                      (((("e1", 1),), 2), ((("e2", 1),), 3), ((("e3", 1),), 7),
                       ((("e1", 1), ("e2", 1)), 1)))
    assert coset_enumerate(pr).order == 7


def test_triangle_certificate_reads_only_triangle_presentations():
    # a finite triangle group still enumerates
    assert coset_enumerate(parse_presentation(
        "gens: a b; rels: a^2, b^3, (a*b)^5")).order == 60
    # (a*b)^1 is no cone point: b = a^-1 makes the group trivial
    assert coset_enumerate(parse_presentation(
        "gens: a b; rels: a^2, b^3, a*b")).order == 1
    # an inverse letter reads the same way, and a finite group enumerates
    assert coset_enumerate(parse_presentation(
        "gens: a b; rels: a^2, b^3, (b^-1*a)^5")).order == 60


def _plain_spelling(pr):
    """pr with its surface word inverted and listed first, a spelling the
    surface certificate does not read."""
    if not pr.relators:
        return pr
    (word, _), rest = pr.relators[-1], pr.relators[:-1]
    return Presentation(pr.generators, ((invert_word(word), 1),) + rest)


@pytest.mark.parametrize("p, s", [(p, s) for p in (0, 1) for s in (0, 1, 2)])
def test_signatures_match_their_closed_forms(p, s):
    for k in range(5):
        for m in combinations_with_replacement(range(2, 8), k):
            pr = surface_presentation(p, m, s)
            plain = _plain_spelling(pr)
            assert surface_signature(plain) is None or not pr.relators, m
            chi = orbifold_euler_characteristic(p, m, s)
            order = spherical_order(p, m, s)
            assert (chi > 0) == (order is not None), m
            assert free_abelian_rank(pr) == free_abelian_rank(plain) == \
                len(pr.generators) - rational_rank(exponent_sums(pr)), m
            if chi > 0:
                tbl = coset_enumerate(pr)
                assert tbl.order == order, m
                assert coset_enumerate(plain) == tbl, m
                continue
            with pytest.raises(Overflow) as info:
                coset_enumerate(pr)
            assert info.value.witness == {"limit": 10000,
                                          "euler_characteristic": str(chi)}
            with pytest.raises(Overflow):
                coset_enumerate(plain, limit=200)


@st.composite
def _random_presentation(draw, gens=4, rels=(0, 5), letters=6, exponent=60):
    gens = ("a", "b", "c", "d")[:draw(st.integers(1, gens))]
    alphabet = [(g, p) for g in gens for p in (1, -1)]
    relators = []
    for _ in range(draw(st.integers(*rels))):
        word = []
        for _ in range(draw(st.integers(1, letters))):
            choices = [l for l in alphabet
                       if not word or l != (word[-1][0], -word[-1][1])]
            word.append(draw(st.sampled_from(choices)))
        relators.append((tuple(word), draw(st.integers(1, exponent))))
    return Presentation(gens, tuple(relators))


@settings(max_examples=200, deadline=None)
@given(_random_presentation())
def test_free_abelian_rank_matches_fraction_elimination(pr):
    assert free_abelian_rank(pr) == \
        len(pr.generators) - rational_rank(exponent_sums(pr))


def test_free_abelian_rank_certifies_a_free_part():
    # Z x Z_3: the surface test does not apply to a plain presentation
    with pytest.raises(Overflow) as info:
        coset_enumerate(parse_presentation(
            "gens: a b; rels: b^3, (a*b*a^-1*b^-1)"))
    assert info.value.witness == {"free_abelian_rank": 1, "limit": 10000}


def test_extra_relators_switch_off_the_euler_characteristic():
    # the torus group with a1^3 and b1^3 added is Z_3 x Z_3
    pr = parse_presentation("surface(1, [], 0)\nrels: a1^3, b1^3")
    assert coset_enumerate(pr).order == 9


def test_certified_overflow_ignores_the_limit(tmp_path):
    path = tmp_path / "vd237.pres"
    for text in ("surface(0, [2,3,7], 0)\n",
                 "gens: a b; rels: a^2, b^3, (a*b)^7\n"):
        path.write_text(text)
        t0 = time.monotonic()
        code, out = cli.run(["cayley", str(path), "--limit", "10000000"])
        elapsed = time.monotonic() - t0
        assert code == 1 and '"euler_characteristic": "-1/42"' in out
        assert elapsed < 0.5, elapsed


@pytest.mark.parametrize("text, order, least_limit", [
    ("surface(0, [2,3,5], 0)", 60, 83),
    ("surface(0, [2,2,250], 0)", 500, 980),
    # these skip scans along closed power-relator cycles
    ("gens: a b\nrels: a^50, b^2, (a*b)^2", 100, 100),
    ("gens: a b\nrels: a^12, b^9, (a*b*a^-1*b^-1)", 108, 118),
    ("gens: a\nrels: a^-30", 30, 30),
    # these skip scans along closed walks of a power of a longer word;
    # marking the cosets inside a w-step as well would move the second
    # to 174
    ("gens: a b\nrels: a^2, b^2, (a*b)^1000", 2000, 2000),
    ("gens: a b\nrels: b^3, (b^-1*a^-1*b^-1)^2, (a^-1*b^-1)^5", 60, 81),
    # the closed a-cycle of a^12 is broken by the coincidences of a^8
    ("gens: a; rels: a^12, a^8", 4, 4),
])
def test_least_sufficient_limit_pins_the_definition_order(text, order,
                                                          least_limit):
    # the table peaks at 2*least_limit + 31 or + 32 cosets; defining
    # cosets in another order (say, scanning the relators in another
    # order) moves the peak, and so does a skipped scan that would have
    # defined a coset.  A table that peaks above the cap stops at the
    # cap one limit lower; one that fits is refused there for its order.
    pr = parse_presentation(text)
    assert coset_enumerate(pr, limit=least_limit).order == order
    with pytest.raises(Overflow) as info:
        coset_enumerate(pr, limit=least_limit - 1)
    if least_limit > order:
        expected = {"defined": 2 * least_limit + 30}
    else:
        expected = {"order": order}
    assert info.value.witness == dict(expected, limit=least_limit - 1)


def _outcome(enumerate_cosets, pr, limit):
    try:
        return enumerate_cosets(pr, limit=limit)
    except Overflow as err:
        return str(err), err.witness


@settings(max_examples=300, deadline=None)
@given(_random_presentation(gens=3, rels=(1, 4), letters=5, exponent=8))
def test_enumeration_matches_the_reference_scan(pr):
    # the same definitions and coincidences in the same order give the
    # same table, and the same peak coset count the same Overflow
    for limit in (1, 3, 40, 300):
        assert _outcome(coset_enumerate, pr, limit) == \
            _outcome(reference_coset_enumerate, pr, limit), limit


def _cayley_in_bounded_memory(tmp_path, text):
    """(exit code, JSON output, seconds) of the `cayley` command on text,
    run in a fresh interpreter with 1.5 GB of address space."""
    import resource
    room = 1500 * 10 ** 6

    def bound():
        resource.setrlimit(resource.RLIMIT_AS, (room, room))
    path = tmp_path / "group.pres"
    path.write_text(text + "\n")
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "planarblocks", "cayley", str(path),
         "--format", "json"],
        capture_output=True, text=True, env=env, timeout=60,
        preexec_fn=bound)
    elapsed = time.monotonic() - t0
    assert proc.stderr == "", proc.stderr
    return proc.returncode, json.loads(proc.stdout), elapsed


@pytest.mark.parametrize("text", [
    "gens: a\nrels: a^300000000",
    "surface(0, [2,2,300000000], 0)",
    "gens: a b\nrels: b^2, (a*b^-1*a^-1*b)^1, a^300000000",
])
def test_huge_exponent_is_refused_at_the_cap(tmp_path, text):
    # the scan walks w^n copy by copy; spelling a^300000000 out would
    # take gigabytes
    code, out, elapsed = _cayley_in_bounded_memory(tmp_path, text)
    assert code == 1 and out["error"]["kind"] == "overflow"
    assert out["error"]["witness"] == {"defined": 20032, "limit": 10000}
    assert elapsed < 1.0, elapsed


@pytest.mark.parametrize("text", [
    "gens: a b\nrels: (b^300000000*a)^2",
    "gens: a b\nrels: a^300000000*b",
])
def test_huge_word_is_refused_before_it_is_spelled_out(tmp_path, text):
    # a power inside a word is spelled out letter by letter; 300,000,001
    # letters would take gigabytes, so the word's exponents are summed
    # and checked against the bound first
    code, out, elapsed = _cayley_in_bounded_memory(tmp_path, text)
    assert code == 1 and out["error"]["kind"] == "too-large"
    assert out["error"]["witness"] == {"letters": 300000001,
                                       "limit": MAX_WORD_LETTERS}
    assert elapsed < 1.0, elapsed


def test_word_at_the_letter_bound_is_spelled_out():
    pr = parse_presentation("gens: a b\nrels: (b^%d*a)^2"
                            % (MAX_WORD_LETTERS - 1))
    (word, exponent), = [r for r in pr.relators if r[1] == 2]
    assert len(word) == MAX_WORD_LETTERS and exponent == 2
    with pytest.raises(TooLarge):
        parse_presentation("gens: a b\nrels: (b^%d*a)^2" % MAX_WORD_LETTERS)


def test_huge_exponent_of_a_closed_cycle_is_skipped(tmp_path):
    # a^6 closes a 6-cycle, so a^300000000 goes round it once and skips
    # the rest, rather than walking every letter
    code, out, elapsed = _cayley_in_bounded_memory(
        tmp_path, "gens: a\nrels: a^6, a^300000000")
    assert code == 0 and out["order"] == 6
    assert elapsed < 1.0, elapsed


def test_long_power_relator_is_fast():
    pr = parse_presentation("gens: a\nrels: a^2000\n")
    t0 = time.monotonic()
    tbl = coset_enumerate(pr)
    elapsed = time.monotonic() - t0
    assert tbl.order == 2000
    assert elapsed < 1.0, elapsed


def test_word_power_relator_scanned_once_per_cycle():
    # D_2500: one scan of (a*b)^2500 per coset would read 5000^2 letters
    pr = parse_presentation("gens: a b\nrels: a^2, b^2, (a*b)^2500\n")
    t0 = time.monotonic()
    tbl = coset_enumerate(pr, limit=5000)
    elapsed = time.monotonic() - t0
    assert tbl.order == 5000
    assert elapsed < 0.75, elapsed


def test_power_relator_scanned_once_per_cycle():
    # one scan per coset would read 5000^2 letters, seconds of work
    pr = parse_presentation("gens: a\nrels: a^5000\n")
    t0 = time.monotonic()
    tbl = coset_enumerate(pr, limit=5000)
    elapsed = time.monotonic() - t0
    assert tbl.order == 5000
    assert elapsed < 1.0, elapsed


# ---------------------------------------------------------------------------
# the relator certificate


@st.composite
def _table_word_power(draw):
    pr = parse_presentation(draw(st.sampled_from((
        "gens: a\nrels: a^7",
        "gens: a b\nrels: a^5, b^2, (a*b)^2",
        "gens: a b\nrels: a^4, b^3, (a*b*a^-1*b^-1)",
        "surface(0, [2,3,4], 0)"))))
    tbl = coset_enumerate(pr)
    letters = [(s, p) for s in pr.generators for p in (1, -1)]
    word = []
    for _ in range(draw(st.integers(1, 8))):
        choices = [l for l in letters
                   if not word or l != (word[-1][0], -word[-1][1])]
        word.append(draw(st.sampled_from(choices)))
    return tbl, tuple(word), draw(st.integers(1, 70))


@settings(max_examples=60, deadline=None)
@given(_table_word_power())
def test_power_trace_by_squaring_matches_the_letter_trace(case):
    tbl, word, n = case
    assert tbl.trace_power(word, n) == tbl.trace_word(word * n)


def test_certificate_rejects_a_cycle_length_that_does_not_divide_m():
    # a acts as a 6-cycle, which a^4 does not close
    z6 = GroupTable(6, ("a",), {"a": [(g + 1) % 6 for g in range(6)]})
    check_relators(z6, parse_presentation("gens: a; rels: a^12"))
    with pytest.raises(InvariantViolated) as info:
        check_relators(z6, parse_presentation("gens: a; rels: a^12, a^4"))
    assert info.value.witness == {"relator": 1}


# closed-form families: presentation text, order, generator images as
# permutations of range(degree)


def _rotation(n, start=0, degree=None):
    """The cycle start -> start + 1 -> ... -> start + n - 1 -> start."""
    image = list(range(degree or n))
    for i in range(n):
        image[start + i] = start + (i + 1) % n
    return tuple(image)


def _reflection(n, c=0):
    return tuple((c - i) % n for i in range(n))


def _cyclic(n):
    return "gens: a\nrels: a^%d" % n, n, {"a": _rotation(n)}


def _dihedral(n):
    text = "gens: a b\nrels: a^%d, b^2, (a*b)^2" % n
    return text, 2 * n, {"a": _rotation(n), "b": _reflection(n)}


def _abelian(n, m):
    text = "gens: a b\nrels: a^%d, b^%d, (a*b*a^-1*b^-1)" % (n, m)
    return text, n * m, {"a": _rotation(n, degree=n + m),
                         "b": _rotation(m, start=n, degree=n + m)}


def _surface_22n(n):
    x, y = _reflection(n), _reflection(n, 1)
    z = perm_inverse(perm_compose(x, y))
    return ("surface(0, [2,2,%d], 0)" % n, 2 * n,
            {"e1": x, "e2": y, "e3": z})


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([_cyclic, _dihedral, _surface_22n]),
       st.integers(3, 40))
def test_one_parameter_families_match_closed_forms(family, n):
    text, order, images = family(n)
    tbl = coset_enumerate(parse_presentation(text))
    assert tbl.order == order
    assert verify_table_isomorphism(tbl, images)


@settings(max_examples=15, deadline=None)
@given(st.integers(2, 12), st.integers(2, 12))
def test_abelian_products_match_closed_forms(n, m):
    text, order, images = _abelian(n, m)
    tbl = coset_enumerate(parse_presentation(text))
    assert tbl.order == order
    assert verify_table_isomorphism(tbl, images)


# ---------------------------------------------------------------------------
# Cayley graphs


def test_cyclic_graph_is_a_cycle():
    pr = read_pres("z6.pres")
    tbl = coset_enumerate(pr)
    g = cayley_graph(tbl, pr)
    assert len(g.vertices) == 6
    assert sorted(g.degree(v) for v in g.vertices) == [2] * 6


def test_dihedral_graph_is_a_cycle():
    # two involutions: the graph is the 6-cycle of alternating colors
    pr = read_pres("d3.pres")
    g = cayley_graph(coset_enumerate(pr), pr)
    assert sorted(g.degree(v) for v in g.vertices) == [2] * 6


def test_triangle_group_graph_is_the_icosahedron():
    pr = read_pres("vd233.pres")
    tbl = coset_enumerate(pr)
    g = cayley_graph(tbl, pr)
    assert (len(g.vertices), len(g.edges)) == (12, 30)
    assert sorted(g.degree(v) for v in g.vertices) == [5] * 12
    res = planarity_test(g)
    assert res.planar and res.face_count == 20


def test_regular_action_is_free_transitive_automorphic():
    pr = read_pres("vd233.pres")
    tbl = coset_enumerate(pr)
    g = cayley_graph(tbl, pr)
    action = check_regular_action(tbl, g)
    assert len(action) == tbl.order
    assert action[0] == {v: v for v in g.vertices}


def test_regular_action_of_z500_is_fast():
    pr = parse_presentation("gens: a\nrels: a^500\n")
    tbl = coset_enumerate(pr)
    g = cayley_graph(tbl, pr)
    t0 = time.monotonic()
    action = check_regular_action(tbl, g)
    elapsed = time.monotonic() - t0
    assert [perm[tbl.identity] for perm in action] == list(range(500))
    assert elapsed < 5.0, elapsed


@pytest.mark.parametrize("text", [
    "gens: a b\nrels: a^6, b^2, (a*b)^2",                  # D_6
    "gens: a b\nrels: a^4, b^2, (a*b*a^-1*b^-1)",          # Z_4 x Z_2
    "surface(0, [2,3,4], 0)",
])
def test_planar_faces_match_the_all_rotations_oracle(text):
    pr = parse_presentation(text)
    res = planarity_test(cayley_graph(coset_enumerate(pr), pr))
    assert res.planar
    assert res.faces == tuple(sorted(brute_canonical_face(w)
                                     for w in res.walks))


def test_pipeline_spherical_groups_are_planar_and_conforming():
    for text, order in (("gens: e1\nrels: e1^12", 12),
                        ("gens: e1 e2\nrels: e1^2, e2^2, (e1*e2)^4", 8),
                        ("surface(0, [2,3,3], 0)", 12),
                        ("surface(0, [2,3,4], 0)", 24),
                        ("surface(0, [2,3,5], 0)", 60)):
        pr = parse_presentation(text)
        tbl = coset_enumerate(pr)
        assert tbl.order == order
        g = cayley_graph(tbl, pr)
        assert planarity_test(g).planar
        t = triblock_tree(g)
        assert set(t.kinds.values()) <= {KIND_THREE_CONNECTED, "Cycle"}


# ---------------------------------------------------------------------------
# the rotation the group carries


def _reflections(a, b):
    return ("gens: r s t\nrels: r^2, s^2, t^2, (r*s)^%d, (s*t)^%d, (r*t)^2"
            % (a, b))


PLANAR_GROUPS = [
    _cyclic(2)[0], _cyclic(7)[0], _cyclic(1000)[0],
    _dihedral(2)[0], _dihedral(5)[0], _dihedral(500)[0],
    _abelian(2, 2)[0], _abelian(4, 2)[0], _abelian(500, 2)[0],
    "surface(0, [2,3,3], 0)", "surface(0, [2,3,4], 0)",
    "surface(0, [2,3,5], 0)",
    "surface(0, [2,2,2], 0)", "surface(0, [2,2,7], 0)",
    "surface(0, [2,2,250], 0)",
    _reflections(3, 2), _reflections(3, 3), _reflections(3, 4),
    _reflections(3, 5),
    "gens: a b c\nrels: a^2, b^2, c^2, (a*b)^2, (a*c)^2, (b*c)^2",   # Z2^3
]
NONPLANAR_GROUPS = [
    _abelian(3, 3)[0], _abelian(4, 4)[0], _abelian(6, 6)[0],
    "gens: i j\nrels: i^4, i^2*j^-2, j^-1*i*j*i",                  # Q8
]
# the second generator equals the first, so their letters collapse
REDUNDANT = "gens: a b\nrels: a^5, b*a^-1"


def _check_rotation_route(text):
    """The CLI's route (the rotation the search finds, certified, else
    networkx) against networkx, and each candidate's face count against
    a dart trace; returns the rotation."""
    pr = parse_presentation(text)
    tbl = coset_enumerate(pr)
    g = cayley_graph(tbl, pr)
    rotation = equivariant_rotation(tbl)
    res = (planarity_test(g) if rotation is None
           else certify_embedding(g, rotation))
    want = planarity_test(g)
    assert (res.planar, res.face_count) == (want.planar, want.face_count)
    # a rotation the search accepts is a sphere embedding
    assert (rotation is not None) <= want.planar
    if tbl.order > 200:
        return rotation
    for faces, eps, ring in rotation_candidates(tbl):
        neighbours = {h: [tbl.perm(x)[h] for x in ring[::eps[h]]]
                      for h in g.vertices}
        walks = facial_walks(RotationSystem(g, neighbours))
        assert faces == len(walks), (ring, eps)
    return rotation


@pytest.mark.parametrize("text", PLANAR_GROUPS + NONPLANAR_GROUPS)
def test_rotation_route_agrees_with_networkx(text):
    rotation = _check_rotation_route(text)
    assert (rotation is not None) == (text in PLANAR_GROUPS)


def test_collapsed_letters_leave_the_graph_to_networkx():
    assert _check_rotation_route(REDUNDANT) is None
    tbl = coset_enumerate(parse_presentation(REDUNDANT))
    assert list(rotation_candidates(tbl)) == []
    assert planarity_test(cayley_graph(tbl, parse_presentation(
        REDUNDANT))).planar


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([_cyclic, _dihedral, _surface_22n]),
       st.integers(2, 60))
def test_rotation_route_on_one_parameter_families(family, n):
    assert _check_rotation_route(family(n)[0]) is not None


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 8), st.integers(2, 8))
def test_rotation_route_on_abelian_products(n, m):
    # Z_n x Z_m is planar exactly when one factor has order 2
    rotation = _check_rotation_route(_abelian(n, m)[0])
    assert (rotation is not None) == (2 in (n, m))


@pytest.mark.parametrize("text", PLANAR_GROUPS)
def test_planar_groups_embed_without_networkx(text, tmp_path, monkeypatch):
    def refuse(g):
        raise AssertionError("planarity_test ran")
    monkeypatch.setattr(planar, "planarity_test", refuse)
    path = tmp_path / "group.pres"
    path.write_text(text)
    code, out = cli.run(["cayley", str(path), "--format", "json"])
    assert code == 0 and '"planar": true' in out


def test_search_refuses_z10_cubed_quickly():
    tbl = coset_enumerate(parse_presentation(
        "gens: a b c\nrels: a^10, b^10, c^10, (a*b*a^-1*b^-1), "
        "(a*c*a^-1*c^-1), (b*c*b^-1*c^-1)"))
    t0 = time.monotonic()
    rotation = equivariant_rotation(tbl)
    elapsed = time.monotonic() - t0
    assert rotation is None
    assert elapsed < 0.25, elapsed
