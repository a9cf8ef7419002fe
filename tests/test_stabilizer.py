import itertools
import random
import re
from collections import Counter

import pytest
from hypothesis import given

from gottesman.errors import IllFormedTypeError, TopOperandError
from gottesman.pauli import PauliString, from_bits, string_mul
from gottesman.stabilizer import (
    _echelon,
    _pivot,
    member,
    _single_qubit_members,
)
from gottesman.typesys import StabType, measure, parse_qtype

from helpers import (
    brute_force_group,
    embed,
    letters,
    measure_row_ops,
    pauli,
    random_stab_type,
    ref_string_mul,
    string_pairs,
)


def P(text):
    return PauliString.parse(text)


class TestRows:
    """Packed (x, z, k) rows against the atom-by-atom reference product."""

    def test_string_roundtrip(self):
        for text in ("XX", "-iXZ", "IYZI", "-Z"):
            p = P(text)
            assert from_bits(p.arity, p.x, p.z, p.k) == p
            assert PauliString(p.arity, p.x, p.z, p.k) == p
            assert pauli(p.k, letters(p)) == p

    def test_top_rejected(self):
        with pytest.raises(TopOperandError):
            member(StabType.of("XX"), PauliString.top(2))
        with pytest.raises(IllFormedTypeError, match="generator 2 is Top"):
            StabType(2, (P("XX"), PauliString.top(2)))

    @given(string_pairs)
    def test_packed_mul_matches_reference(self, pq):
        p, q = pq
        assert string_mul(p, q) == ref_string_mul(p, q)

    def test_packed_mul_exhaustive_three_qubits(self):
        import itertools

        from helpers import ALL_ATOMS

        universe = [
            pauli(k, atoms)
            for k in range(4)
            for atoms in itertools.product(ALL_ATOMS, repeat=3)
        ]
        for p in universe:
            for q in universe:
                assert string_mul(p, q) == ref_string_mul(p, q)

    def test_packed_mul_random_eight_qubits(self):
        from helpers import ALL_ATOMS

        rng = random.Random(11)
        for _ in range(300):
            p = pauli(rng.randrange(4), [rng.choice(ALL_ATOMS) for _ in range(8)])
            q = pauli(rng.randrange(4), [rng.choice(ALL_ATOMS) for _ in range(8)])
            assert string_mul(p, q) == ref_string_mul(p, q)


class TestCanonicalize:
    def test_rewrites_to_pivot_form(self):
        tab = StabType.of("XX", "XI").tableau
        assert tab == (P("XI"), P("IX"))

    def test_single_z(self):
        tab = StabType.of("Z").tableau
        assert tab == (P("Z"),)
        assert tuple(map(_pivot, tab)) == (1,)

    def test_ghz_codomain_rank(self):
        tab = StabType.of("XXX", "ZZI", "IZZ").tableau
        assert len(tab) == 3

    def test_drops_dependent_generators(self):
        tab = StabType.of("XX", "XI", "IX").tableau
        assert len(tab) == 2

    def test_detects_minus_identity(self):
        with pytest.raises(IllFormedTypeError, match="generators 1, 2"):
            StabType(1, (P("X"), P("-X")))

    def test_detects_i_phased_identity(self):
        # An input row of phase +-i squares to -I; it is named alone.
        for literals, row, phase in (
            (("iX", "X"), 1, "i"),
            (("iI",), 1, "i"),
            (("X", "-iX"), 2, "-i"),
        ):
            with pytest.raises(IllFormedTypeError) as caught:
                StabType.of(*literals)
            assert str(caught.value) == (
                f"group contains -identity: element built from generators {row}"
                f" has phase {phase} and squares to -I"
            )

    def test_odd_phase_names_the_rows_of_the_reduced_element(self):
        # An input row of phase +-i squares to -I on its own, so it is named
        # alone, before any reduction mixes XX into it.
        with pytest.raises(IllFormedTypeError) as caught:
            StabType.of("XX", "iIX")
        assert str(caught.value) == (
            "group contains -identity: element built from generators 2"
            " has phase i and squares to -I"
        )

    def test_odd_phase_row_is_not_mistaken_for_a_cancelled_pair(self):
        # (-iZZ)**2 = -I; ZI * ZI = +I, and must not be named as the -I.
        with pytest.raises(IllFormedTypeError) as caught:
            StabType.of("-iZZ", "ZI", "ZI", "ZI", "IZ")
        assert str(caught.value) == (
            "group contains -identity: element built from generators 1"
            " has phase -i and squares to -I"
        )

    def test_errors_name_generators_with_the_stated_phase(self):
        # Commuting generators and products of them, one row re-phased: each
        # error's named generators, multiplied out, give the phase it states.
        rng = random.Random(2505)
        identity_message = re.compile(
            r"group contains (\S+) \* identity \(product of generators ([\d, ]+)\)\Z"
        )
        odd_message = re.compile(
            r"group contains -identity: element built from generators (\d+)"
            r" has phase (\S+) and squares to -I\Z"
        )
        phase_text = {"+1": 0, "i": 1, "-1": 2, "-i": 3}
        seen = Counter()
        for _ in range(5000):
            n = rng.randint(1, 6)
            gens = list(random_stab_type(n, rng, depth=rng.randint(0, 12)).generators)
            for _ in range(rng.randint(0, 3)):
                product = PauliString.identity(n)
                for g in rng.sample(gens, rng.randint(1, len(gens))):
                    product = string_mul(product, g)
                gens.append(product)
            rng.shuffle(gens)
            i = rng.randrange(len(gens))
            g = gens[i]
            gens[i] = from_bits(n, g.x, g.z, g.k + rng.randint(1, 3))
            try:
                StabType(n, tuple(gens))
            except IllFormedTypeError as err:
                text = str(err)
            else:
                seen["well formed"] += 1
                continue
            if m := identity_message.match(text):
                product = PauliString.identity(n)
                for j in m.group(2).split(", "):
                    product = string_mul(product, gens[int(j) - 1])
                assert (product.x, product.z) == (0, 0), text
                assert product.k == phase_text[m.group(1)] == 2, text
                seen["-I"] += 1
            else:
                m = odd_message.match(text)
                assert m, text
                g = gens[int(m.group(1)) - 1]
                assert g.k == phase_text[m.group(2)] in (1, 3), text
                assert string_mul(g, g) == from_bits(n, 0, 0, 2), text
                seen["+-i"] += 1
        assert min(seen["well formed"], seen["-I"], seen["+-i"]) >= 300, seen

    def test_minus_identity_names_the_first_row_to_vanish(self):
        # Rows 2 and 3 both depend on row 1. The error names the first input
        # row that reduces to a phased identity, with the kept rows it met.
        with pytest.raises(IllFormedTypeError) as caught:
            StabType.of("ZI", "ZI", "-ZI", "IX")
        assert str(caught.value) == (
            "group contains -1 * identity (product of generators 1, 3)"
        )

    def test_stab_type_keeps_its_tableau(self):
        s = StabType.of("XX", "XI")
        assert s.tableau == _echelon(2, [P("XX"), P("XI")])
        assert s.tableau == (P("XI"), P("IX"))
        # Equality and hashing are of the group; the tableau is not in the repr.
        same = StabType(2, (P("XX"), P("XI")))
        assert s == same and hash(s) == hash(same)
        assert repr(s) == f"StabType(arity=2, generators={s.generators!r})"

    def test_idempotent(self):
        rng = random.Random(5)
        for _ in range(30):
            s = random_stab_type(4, rng)
            tab = s.tableau
            again = StabType(4, tab).tableau
            assert tab == again

    def test_group_preserving_on_random_probes(self):
        rng = random.Random(7)
        for _ in range(10):
            s = random_stab_type(4, rng)
            before = s
            after = StabType(4, s.tableau)
            for _ in range(100):
                probe = pauli(0, [rng.choice("IXYZ") for _ in range(4)])
                assert member(before, probe) == member(after, probe)


class TestMember:
    def test_identity_always_member(self):
        s = StabType.of("XX", "ZZ")
        assert member(s, PauliString.identity(2)) == 0

    def test_yy_in_bell_group_with_sign(self):
        s = StabType.of("XX", "ZZ")
        assert member(s, P("YY")) == 2

    def test_rewired_cat_state_has_local_z(self):
        s = StabType.of("XXI", "ZZI", "ZZZ")
        assert member(s, P("IIZ")) == 0

    def test_phased_probes(self):
        # i**q * p is the group element, with q reduced to 0..3.
        s = StabType.of("XX", "ZZ")
        assert member(s, P("-XX")) == 2
        assert member(s, P("iYY")) == 1
        assert member(s, P("-iXX")) == 1
        table = brute_force_group([P("XX"), P("ZZ")])
        for atoms in itertools.product("IXYZ", repeat=2):
            for k in range(4):
                probe = pauli(k, atoms)
                key = (probe.x, probe.z)
                want = (table[key] - k) % 4 if key in table else None
                assert member(s, probe) == want

    def test_non_member(self):
        s = StabType.of("XX", "ZZ")
        assert member(s, P("XI")) is None

    def test_matches_brute_force(self):
        rng = random.Random(13)
        for _ in range(20):
            s = random_stab_type(3, rng)
            table = brute_force_group(s.generators)
            from helpers import ALL_ATOMS
            import itertools

            for atoms in itertools.product(ALL_ATOMS, repeat=3):
                probe = pauli(0, atoms)
                got = member(s, probe)
                key = (probe.x, probe.z)
                if key in table:
                    assert got == table[key]
                else:
                    assert got is None


class TestSingleQubitMembers:
    def test_plain_product_state(self):
        tab = StabType.of("ZI", "IZ").tableau
        got = _single_qubit_members(tab)
        assert got == ((1, P("Z")), (2, P("Z")))

    def test_split_cat_state(self):
        tab = StabType.of("IXX", "ZII", "IZZ").tableau
        assert _single_qubit_members(tab) == ((1, P("Z")),)

    def test_cat_state_has_none(self):
        tab = StabType.of("XXX", "ZZI", "IZZ").tableau
        assert _single_qubit_members(tab) == ()
        # brute force agrees: no group element is single-qubit
        table = brute_force_group([P("XXX"), P("ZZI"), P("IZZ")])
        for (x, z) in table:
            assert (x | z).bit_count() != 1

    def test_negative_phases_reported(self):
        tab = StabType.of("-Y").tableau
        assert _single_qubit_members(tab) == ((1, P("-Y")),)


class TestMeasure:
    def test_cat_state_collapses(self):
        got = measure(StabType.of("XXX", "ZZI", "IZZ"), 1)
        assert got == parse_qtype("Z x Z x Z").stab

    def test_idempotent_on_z(self):
        got = measure(StabType.of("ZI"), 1)
        assert got.generators == (P("ZI"),)

    def test_x_becomes_z(self):
        got = measure(StabType.of("X"), 1)
        assert got.generators == (P("Z"),)

    def test_y_generator_is_removed(self):
        # Y at the measured position anticommutes with Z and must go.
        got = measure(StabType.of("YX"), 1)
        assert got == StabType.of("ZI")

    def test_measure_other_qubit(self):
        got = measure(StabType.of("XXX", "ZZI", "IZZ"), 3)
        assert got == parse_qtype("Z x Z x Z").stab

    def test_output_contains_z_k(self):
        # +-Z_k: +Z_k unless the input state fixed the outcome at -1.
        rng = random.Random(3)
        fixed_minus = 0
        for _ in range(40):
            n = rng.randrange(2, 6)
            s = random_stab_type(n, rng)
            k = rng.randrange(1, n + 1)
            z_k = embed("Z", 0, k, n)
            before = member(s, z_k)
            got = measure(s, k)
            want = 2 if before == 2 else 0
            assert member(got, z_k) == want
            fixed_minus += want == 2
        assert fixed_minus > 0

    @pytest.mark.parametrize(
        "gens, want",
        [
            (("-Z",), ("-Z",)),
            (("-ZI", "IZ"), ("-ZI", "IZ")),
            (("ZZ",), ("ZI", "IZ")),
        ],
    )
    def test_determined_outcomes_keep_the_state(self, gens, want):
        got = measure(StabType.of(*gens), 1)
        assert got == StabType.of(*want)

    def test_output_well_formed(self):
        # measure builds its result unchecked; validating it again must
        # succeed and reach the same canonical tableau.
        rng = random.Random(4)
        for _ in range(40):
            n = rng.randrange(2, 6)
            s = random_stab_type(n, rng)
            got = measure(s, rng.randrange(1, n + 1))
            assert StabType(n, got.generators).tableau == got.tableau

    def test_row_operations_quadratic(self):
        rng = random.Random(9)
        bound_c = 4
        for n in (4, 8, 16, 32):
            for _ in range(5):
                s = random_stab_type(n, rng, rank=n)
                _, ops = measure_row_ops(s, rng.randrange(1, n + 1))
                assert ops <= bound_c * n * n

    def test_determined_outcome_reads_the_validated_tableau(self):
        # A validated type holds its reduced rows, so a determined outcome
        # costs no row operation.
        got, ops = measure_row_ops(StabType.of("ZZ", "IZ"), 1)
        assert got.generators == (P("ZI"), P("IZ"))
        assert ops == 0

    def test_phase_of_adjoined_z_is_plus_one(self):
        got = measure(StabType.of("-X"), 1)
        assert got.generators == (P("Z"),)
