import random
from collections import Counter

import pytest

from gottesman.errors import ArityError, IllFormedTypeError, ParseError
from gottesman.pauli import PauliString, string_mul
from gottesman.stabilizer import _echelon, _pivot, _single_qubit_members
from gottesman.typesys import QType, StabType, _merge, parse_qtype

from helpers import (
    brute_force_group,
    embed,
    random_stab_type,
    ref_factor_separable,
    ref_single_qubit_members,
)


def P(text):
    return PauliString.parse(text)


def _pad(g, support, n):
    """``g`` with its qubit j moved to qubit ``support[j - 1]`` of n."""
    atoms = ["I"] * n
    for letter, pos in zip(str(g).lstrip("-"), support):
        atoms[pos - 1] = letter
    return P(("-" if str(g).startswith("-") else "") + "".join(atoms))


class TestStabType:
    def test_rejects_anticommuting_pair(self):
        with pytest.raises(IllFormedTypeError, match="1 and 2 anticommute"):
            StabType.of("X", "Z")

    def test_rejects_minus_identity_in_group(self):
        with pytest.raises(IllFormedTypeError, match="identity"):
            StabType.of("X", "-X")

    def test_rejects_top_generator(self):
        with pytest.raises(IllFormedTypeError, match="Top"):
            StabType(2, (PauliString.top(2),))

    def test_rejects_mixed_arity(self):
        with pytest.raises(ArityError):
            StabType(2, (P("XX"), P("X")))

    def test_empty_type_allowed(self):
        s = StabType(3, ())
        assert str(s) == "III"

    def test_str(self):
        assert str(StabType.of("XX", "ZZ")) == "XX & ZZ"


class TestNormalize:
    """The canonical presentation of a type is its tableau's rows."""

    def test_drops_identity_generator(self):
        got = StabType.of("II", "ZZ").tableau
        assert got == (P("ZZ"),)

    def test_drops_dependent_generator(self):
        got = StabType.of("XX", "XI", "IX").tableau
        assert got == (P("XI"), P("IX"))
        assert StabType(2, got) == StabType.of("XX", "XI", "IX")

    def test_deterministic(self):
        a = StabType.of("XX", "ZZ").tableau
        b = StabType.of("ZZ", "XX").tableau
        assert a == b


class TestIntersect:
    """Intersection is the parsed ``&``."""

    def test_bell_type(self):
        got = parse_qtype("XX & ZZ").stab
        assert got == StabType.of("XX", "ZZ")

    def test_idempotent(self):
        a = StabType.of("XX", "ZZ")
        got = parse_qtype("(XX & ZZ) & (XX & ZZ)").stab
        assert got == a and got.tableau == a.tableau

    def test_contradiction_raises(self):
        with pytest.raises(IllFormedTypeError):
            parse_qtype("X & -X")

    def test_arity_mismatch(self):
        with pytest.raises(ParseError, match="mismatched arities"):
            parse_qtype("X & XX")


class TestTypeEqual:
    """A StabType's ``==`` and hash are those of the group it generates."""

    def test_presentation_independent(self):
        assert StabType.of("XX", "XI") == StabType.of("IX", "XI")

    def test_phases_matter(self):
        assert StabType.of("Z") != StabType.of("-Z")

    def test_rewritten_generator(self):
        assert StabType.of("XX", "ZZ") == StabType.of("-YY", "ZZ")
        # confirmed by full enumeration
        assert brute_force_group([P("XX"), P("ZZ")]) == brute_force_group(
            [P("-YY"), P("ZZ")]
        )

    def test_equivalence_relation(self):
        rng = random.Random(21)
        for _ in range(20):
            s = random_stab_type(4, rng)
            assert s == s
            t = StabType(4, s.tableau)
            assert s == t and t == s

    def test_invariant_under_generator_rewrite(self):
        rng = random.Random(22)
        for _ in range(30):
            s = random_stab_type(4, rng, rank=3)
            gens = list(s.generators)
            i, j = rng.sample(range(len(gens)), 2)
            gens[i] = string_mul(gens[i], gens[j])
            assert s == StabType(4, tuple(gens))

    def test_group_equality_and_hash(self):
        # Rewriting a generator as g_i * g_j and shuffling the generators
        # keeps the group; flipping one generator's sign changes it.
        rng = random.Random(23)
        rewritten = 0
        for _ in range(300):
            n = rng.randrange(1, 6)
            s = random_stab_type(n, rng)
            gens = list(s.generators)
            if len(gens) > 1:
                i, j = rng.sample(range(len(gens)), 2)
                gens[i] = string_mul(gens[i], gens[j])
                rewritten += 1
            rng.shuffle(gens)
            t = StabType(n, tuple(gens))
            assert t == s and hash(t) == hash(s)
            assert len({s, t}) == 1
            k = rng.randrange(len(gens))
            gens[k] = -gens[k]
            flipped = StabType(n, tuple(gens))
            assert flipped != s and s != flipped
            assert len({s, flipped}) == 2
        assert rewritten > 150


class TestFactorSeparable:
    def test_splits_cat_state_qubit_one(self):
        q = QType(3, StabType.of("IXX", "ZII", "IZZ"))
        assert q.factors == ((1, P("Z")),)
        assert q.remainder_support == (2, 3)
        assert q.remainder.generators == (P("XX"), P("ZZ"))
        assert str(q) == "Z x (XX & ZZ)"

    def test_full_product(self):
        q = QType(2, StabType.of("ZI", "IZ"))
        assert str(q) == "Z x Z"
        assert q.remainder is None

    def test_trailing_factor(self):
        q = QType(3, StabType.of("XXI", "ZZI", "ZZZ"))
        assert q.factors == ((3, P("Z")),)
        assert str(q) == "(XX & ZZ) x Z"

    def test_unfactorable_returned_as_is(self):
        q = QType(3, StabType.of("XXX", "ZZI", "IZZ"))
        assert q.factors == ()
        assert q.remainder_support == (1, 2, 3)

    def test_negative_factor(self):
        q = QType(3, StabType.of("-YII", "IXX"))
        assert q.factors == ((1, P("-Y")),)
        assert str(q) == "-Y x XX"

    def test_middle_qubit_peeled_prints_unambiguously(self):
        # Remainder lives on qubits 1 and 3; a positional product would
        # silently relabel them, so the padded form is used instead.
        q = QType(3, StabType.of("XIX", "ZIZ", "IZI"))
        assert q.factors == ((2, P("Z")),)
        assert q.remainder_support == (1, 3)
        assert str(q) == "IZI & XIX & ZIZ"
        assert q.stab == StabType.of("XIX", "ZIZ", "IZI")
        # Lone rows by qubit, though an X row pivots before a Z row.
        q = QType(4, StabType.of("IXIX", "IZIZ", "IIXI", "ZIII"))
        assert str(q) == "ZIII & IIXI & IXIX & IZIZ"

    def test_soundness_random(self):
        rng = random.Random(31)
        for _ in range(60):
            n = rng.randrange(2, 6)
            s = random_stab_type(n, rng)
            q = QType(s.arity, s)
            assert q.stab == s
            # The view's factors and remainder generate the group again.
            gens = [_pad(p, (k,), n) for k, p in q.factors]
            if q.remainder is not None:
                gens += [_pad(g, q.remainder_support, n) for g in q.remainder.generators]
            assert StabType(n, tuple(gens)) == s

    def test_completeness_against_enumeration(self):
        rng = random.Random(32)
        for _ in range(40):
            n = rng.randrange(2, 5)
            s = random_stab_type(n, rng)
            q = QType(s.arity, s)
            peeled = {k for k, _ in q.factors}
            table = brute_force_group(s.generators)
            expected = set()
            for (x, z), _phase in table.items():
                if (x | z).bit_count() == 1:
                    expected.add((x | z).bit_length())
            assert peeled == expected

    def test_matches_member_reference(self):
        # Signed types from shallow circuits (many factors, often beside an
        # empty or gapped remainder) and deep ones (few or none), on 1-70
        # qubits so that masks pass 64 bits.
        rng = random.Random(8)
        seen = Counter()
        for _ in range(400):
            n = rng.randint(1, 70)
            s = random_stab_type(n, rng, depth=rng.choice((0, rng.randint(1, n), 4 * n)))
            assert _single_qubit_members(s.tableau) == ref_single_qubit_members(s)
            got = QType(s.arity, s)
            factors, remainder, support = ref_factor_separable(s)
            assert got.factors == factors
            assert got.remainder_support == support
            for k, p in got.factors:
                seen[str(p)] += 1
            if remainder is None:
                assert got.remainder is None
                continue
            rest, ref_rest = got.remainder.tableau, remainder.tableau
            assert got.remainder.generators == rest == ref_rest
            assert list(map(_pivot, rest)) == list(map(_pivot, ref_rest))
            assert rest == _echelon(len(support), rest)
            if support[-1] - support[0] + 1 != len(support):
                seen["gapped"] += 1
            if support[-1] > 64:
                seen["past 64"] += 1
            if got.factors and rest:
                seen["factors beside a remainder"] += 1
        for factor in ("X", "Y", "Z", "-X", "-Y", "-Z"):
            assert seen[factor] >= 20, (factor, seen)
        assert seen["gapped"] >= 100, seen
        assert seen["past 64"] >= 10, seen
        assert seen["factors beside a remainder"] >= 50, seen

    @pytest.mark.parametrize("n", [65, 129, 300])
    @pytest.mark.parametrize("peel", ["even", "odd", "none"])
    def test_gather_on_alternating_gaps(self, n, peel):
        # A signed factor on every other qubit (or none), the remainder on the
        # rest: a GHZ group, then a random full-rank one. Its bits move right
        # by up to n / 2 places, across 64-bit words.
        rng = random.Random(n)
        start = {"even": 2, "odd": 1, "none": n + 1}[peel]
        peeled = set(range(start, n + 1, 2))
        support = tuple(o for o in range(1, n + 1) if o not in peeled)
        m = len(support)
        ghz = ["X" * m] + ["I" * j + "ZZ" + "I" * (m - j - 2) for j in range(m - 1)]
        signed = [P(rng.choice(("", "-")) + g) for g in ghz]
        deep = random_stab_type(m, rng, rank=m, depth=4 * m).generators
        for rest in (signed, deep):
            gens = [_pad(g, support, n) for g in rest]
            gens += [embed(rng.choice("XYZ"), rng.choice((0, 2)), k, n) for k in peeled]
            s = StabType(n, tuple(gens))
            got = QType(n, s)
            factors, remainder, ref_support = ref_factor_separable(s)
            assert got.factors == factors
            assert got.remainder_support == ref_support
            assert got.remainder.generators == remainder.tableau
            if rest is signed:
                assert [k for k, _ in factors] == sorted(peeled)
                assert ref_support == support


@pytest.mark.parametrize("n", range(1, 8))
def test_products_and_remainders_come_in_pivot_order(n):
    # ``_merge`` joins its components' rows unsorted (x-bit pivots, then the
    # others, each component after the last) and the view's remainder keeps
    # its rows' order; at every rank, each is its own canonical tableau.
    rng = random.Random(n)
    for rank in range(n + 1):
        for _ in range(6):
            q = QType(n, random_stab_type(n, rng, rank=rank, depth=rng.choice((0, 2, 20))))
            if q.remainder is not None:
                rows = q.remainder.tableau
                assert rows == _echelon(q.remainder.arity, rows)
            cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
            sizes = [b - a for a, b in zip([0, *cuts], [*cuts, n])]
            ranks = [0] * len(sizes)
            for _ in range(rank):
                ranks[rng.choice([i for i, m in enumerate(sizes) if ranks[i] < m])] += 1
            parts = [(m, random_stab_type(m, rng, rank=r)) for m, r in zip(sizes, ranks)]
            total, stab = _merge(parts)
            assert total == n and stab.tableau == _echelon(n, stab.tableau)
            assert len(stab.tableau) == rank
            placed, offset = [], 0
            for m, part in parts:
                placed += [_pad(g, range(offset + 1, offset + m + 1), n) for g in part.generators]
                offset += m
            assert stab == StabType(n, tuple(placed))


class TestQType:
    def test_partition_enforced(self):
        # The group covers every qubit, and the view's factors and
        # remainder support partition them.
        with pytest.raises(ArityError):
            QType(3, StabType.of("ZZ"))
        rng = random.Random(33)
        for _ in range(40):
            n = rng.randrange(1, 8)
            q = QType(n, random_stab_type(n, rng))
            qubits = [k for k, _ in q.factors] + list(q.remainder_support)
            assert sorted(qubits) == list(range(1, n + 1))
            assert all(p.arity == 1 for _, p in q.factors)

    def test_remainder_arity_enforced(self):
        with pytest.raises(ArityError):
            QType(0, None)
        q = QType(4, StabType.of("XIXI", "ZIZI", "IZII"))
        assert q.remainder.arity == len(q.remainder_support) == 3
        assert q.remainder.generators == (P("XXI"), P("ZZI"))

    def test_top_carries_nothing(self):
        q = QType.top_type(3)
        assert str(q) == "TTT"
        assert q.top and q.stab is None
        assert (q.factors, q.remainder, q.remainder_support) == ((), None, ())

    def test_flatten_of_split_type(self):
        q = parse_qtype("Z x (XX & ZZ)")
        assert q.stab == StabType.of("ZII", "IXX", "IZZ")

    def test_identity_print(self):
        assert str(QType(2, StabType(2, ()))) == "II"

    def test_equality_is_group_equality(self):
        a = QType(2, StabType.of("XX", "ZZ"))
        b = QType(2, StabType.of("-YY", "ZZ"))
        assert a == b and hash(a) == hash(b)
        assert a != QType(2, StabType.of("XX", "-ZZ"))
        assert a != QType.top_type(2) and QType.top_type(2) != QType.top_type(3)

    def test_remainder_is_built_only_when_read(self):
        # A gapped text prints the tableau's rows, and ``factors`` is all
        # that ``verify`` reads: neither gathers the remainder.
        q = QType(3, StabType.of("XIX", "ZIZ", "IZI"))
        assert str(q) == "IZI & XIX & ZIZ" and q.factors == ((2, P("Z")),)
        assert "remainder" not in q.__dict__
        assert q.remainder.generators == (P("XX"), P("ZZ"))
        q = QType(3, StabType.of("ZII", "IXX", "IZZ"))
        assert str(q) == "Z x (XX & ZZ)" and "remainder" in q.__dict__

    def test_view_is_read_once(self, monkeypatch):
        from gottesman import stabilizer

        calls = []

        def counting(rows, read=stabilizer._single_qubit_members):
            calls.append(rows)
            return read(rows)

        monkeypatch.setattr(stabilizer, "_single_qubit_members", counting)
        q = QType(3, StabType.of("ZII", "IXX", "IZZ"))
        assert str(q) == "Z x (XX & ZZ)" and q.factors and q.remainder_support
        assert len(calls) == 1


class TestParsePrint:
    @pytest.mark.parametrize(
        "text",
        [
            "Z",
            "-Y",
            "Z x Z",
            "Z x (XX & ZZ)",
            "(XX & ZZ) x Z",
            "XX & ZZ",
            "IIZI",
            "Z x II",
            "TT",
            "ZIZI",
            # Parsed types print as written, though their factored views
            # print IIZII & ZZIII & IIIXX, XXII & IIYY and Z x Z x (ZI & IZ).
            "ZZ x Z x XX",
            "XX x YY",
            "Z x (Z x (ZI & IZ))",
        ],
    )
    def test_roundtrip(self, text):
        q = parse_qtype(text)
        assert str(q) == text
        assert parse_qtype(str(q)) == q

    def test_unicode_aliases(self):
        assert parse_qtype("Z × (X⊗X ∩ Z⊗Z)") == parse_qtype("Z x (XX & ZZ)")
        assert parse_qtype("⊤⊤") == QType.top_type(2)

    def test_arity_assignment_left_to_right(self):
        q = parse_qtype("Z x XX x Z")
        assert q.arity == 4
        assert {k for k, _ in q.factors} == {1, 4}
        assert q.remainder_support == (2, 3)

    def test_two_blocks_merge(self):
        q = parse_qtype("(XX & ZZ) x (XX & ZZ)")
        assert q.arity == 4
        assert q.remainder_support == (1, 2, 3, 4)
        assert q.stab == StabType.of("XXII", "ZZII", "IIXX", "IIZZ")
        assert q.stab.generators == (P("XXII"), P("ZZII"), P("IIXX"), P("IIZZ"))

    def test_ill_formed_inputs_raise_type_errors(self):
        with pytest.raises(IllFormedTypeError):
            parse_qtype("X & Z")
        with pytest.raises(IllFormedTypeError):
            parse_qtype("iX")

    def test_syntax_errors(self):
        for bad in ("", "Z x", "Z &", "(Z", "Z)", "Q", "Z ** Z"):
            with pytest.raises(ParseError):
                parse_qtype(bad)

    def test_nested_product(self):
        q = parse_qtype("Z x (Z x (ZI & IZ))")
        assert str(q) == "Z x (Z x (ZI & IZ))"
        # The view is read off the group: ZI & IZ separates too.
        assert {k for k, _ in q.factors} == {1, 2, 3, 4}

    def test_error_columns_count_tensor_signs(self):
        # A tensor sign folds to nothing, but it takes a column as written;
        # it may sit inside a sign prefix or an arrow, and a message quotes
        # a character in its ASCII form.
        cases = (
            ("Z ⊗ Q", 5, "unexpected character 'Q'"),
            ("X⊗X & ⊗ )", 9, "expected a Pauli literal, got ')'"),
            ("Z⊗⊗Z x )", 8, "expected a Pauli literal, got ')'"),
            ("Z x ⊗", 6, "unexpected end of type expression"),
            ("−⊗ Z", 1, "unexpected character '-'"),
            ("-⊗i⊗Z x ⊗ Q", 11, "unexpected character 'Q'"),
            ("Z ⊗-⊗> Z", 4, "unexpected '->'"),
        )
        for text, col, message in cases:
            with pytest.raises(ParseError) as err:
                parse_qtype(text)
            assert (err.value.message, err.value.col) == (message, col), text

    @pytest.mark.parametrize(
        "body, message",
        [
            ("Z & XX", "mismatched arities in intersection"),
            ("T & Z", "Top cannot appear inside an intersection"),
            ("X & Z", "generators 1 and 2 anticommute: X vs Z"),
            ("Z Z", "expected ')', got 'Z'"),
            ("Z x", "expected a Pauli literal, got ')'"),
            ("Z & Q", "unexpected character 'Q'"),
            ("(Z", "unexpected end of type expression"),
        ],
    )
    def test_faults_inside_deep_nesting(self, body, message):
        # A fault 5000 parentheses deep reads as it does one deep: at the
        # same place in the body, or, at the end of the text, just past it.
        def fault(depth):
            text = "(" * depth + body + ")" * depth
            with pytest.raises((ParseError, IllFormedTypeError)) as err:
                parse_qtype(text)
            col = getattr(err.value, "col", None)
            return str(err.value), "end" if col == len(text) + 1 else col and col - depth

        assert fault(5000) == fault(1)
        assert fault(1)[0] == message

    def test_one_row_reduction_per_parsed_type(self, monkeypatch):
        # Literals are checked by their phase and products of checked
        # components need no check: only the intersection is row-reduced.
        from gottesman import stabilizer

        wide = random_stab_type(64, random.Random(16), rank=16)
        calls = []

        def counting(arity, rows, echelon=stabilizer._echelon):
            calls.append(arity)
            return echelon(arity, rows)

        monkeypatch.setattr(stabilizer, "_echelon", counting)
        for text in ("XX & ZZ", "Z x (XX & ZZ)", " & ".join(map(str, wide.generators))):
            calls.clear()
            q = parse_qtype(text)
            assert len(calls) == 1, text
            assert q.stab.tableau == StabType(q.arity, q.stab.generators).tableau


def test_prop2_purity_link_for_peeled_qubits():
    # A peeled factor +-U at qubit k fixes every eigenstate of the type, so
    # each is |u> x (the rest) with |u> U's +1 eigenvector: qubit k is pure.
    from helpers import ref_verify_separability, verify_separability

    rng = random.Random(41)
    cases = 0
    while cases < 12:
        n = rng.randrange(2, 6)
        s = random_stab_type(n, rng)
        q = QType(s.arity, s)
        if not q.factors:
            continue
        cases += 1
        for k, u in q.factors:
            assert verify_separability(q.stab, k, u, samples=8, seed=cases)
            assert ref_verify_separability(q.stab, k, 8, cases)
