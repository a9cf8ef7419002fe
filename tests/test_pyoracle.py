"""The dense check's one entry point, and its two kernels.

``pyoracle.verify_claims`` validates its arguments once and runs the
state-vector kernel ``pyoracle._verify`` while the work is within
``WORK_BUDGET``, else the exact propagation kernel ``pyoracle._exact``. On
seeded random circuits up to four qubits (a ``def`` gate, T/Tdg/TOFFOLI, a
reversed ``CNOT n 1``) with random input types, both kernels must return
the same conjugation verdicts, and residuals on the same side of
TOLERANCE: for the checker's own claims, and with one claim negated, one
transported generator negated, and a one-qubit string claimed as a factor
at a qubit that the checker did not factor. The same holds on 5-8 qubits
for circuits of diagonal gates only and for real and complex
non-monomial defs. The exact residual is the supremum over eigenstates
that a dense eigenvalue gives. Both kernels read a string through
``pyoracle._decode``, which is pinned to a letter-level reading of it.
"""

import copy
import importlib.util
import pathlib
import pickle
import random

import pytest

from gottesman import cli, pyoracle
from gottesman.checker import Circuit, Measure, check, infer_tableau
from gottesman.errors import (
    ArityError,
    EmptyEigenspaceError,
    MeasurementError,
    OracleError,
    OracleUnavailableError,
    TopOperandError,
)
from gottesman.gates import GateApp, GateSpec, derive_gate, standard_gates
from gottesman.pauli import PauliString
from gottesman.typesys import QType, StabType, _unchecked, parse_qtype

from helpers import (
    embed,
    fresh_run,
    lift,
    letters,
    mutations,
    pauli,
    random_circuit,
    random_clifford_circuit,
    random_stab_type,
    ref_decode,
    ref_supremum_residual,
)

GATES = standard_gates()
TOLERANCE = pyoracle.TOLERANCE
CIRCUITS = pathlib.Path(__file__).resolve().parent.parent / "circuits"


# Work budgets under which ``verify_claims`` runs each kernel.
KERNEL_BUDGETS = {"plain": 2**62, "exact": -1}


def P(text):
    return PauliString.parse(text)


def claims(circuit):
    n, tab = circuit.n_qubits, infer_tableau(circuit)
    return [
        (embed(atom, 0, k, n), img)
        for atom, images in (("X", tab.x_images), ("Z", tab.z_images))
        for k, img in enumerate(images, start=1)
        if not img.is_top
    ]



def assert_kernels_agree(circuit, input_type, samples, seed, rng, seen):
    """Both kernels on the checker's claims for ``circuit`` from ``input_type``
    (its output generators, then its factors lifted to the register), then
    with one claim negated, one transported generator swapped for a
    mutation, and a one-qubit string claimed at an unfactored qubit: the
    same verdicts, and each string's residual on the same side of
    TOLERANCE. Tallies each case in ``seen``."""
    n = circuit.n_qubits
    pairs = claims(circuit)
    out = check(circuit, QType(n, input_type))
    gens = () if out.top else out.stab.generators
    factors = () if out.top else tuple(lift(k, u, n) for k, u in out.factors)
    seen["top output"] += out.top
    cases = [(pairs, gens, factors)]
    if pairs:
        j = rng.randrange(len(pairs))
        negated = pairs[:j] + [(pairs[j][0], -pairs[j][1])] + pairs[j + 1 :]
        cases.append((negated, gens, factors))
    if gens:
        j = rng.randrange(len(gens))
        wrong = gens[:j] + (mutations(gens[j], rng)[0],) + gens[j + 1 :]
        cases.append((pairs, wrong, factors))
    free = [k for k in range(1, n + 1) if k not in dict(out.factors)]
    if not out.top and free:
        u = PauliString.parse(rng.choice(("", "-")) + rng.choice("XYZ"))
        cases.append((pairs, gens, factors + (lift(rng.choice(free), u, n),)))
    for case, (claimed, transported, lifted) in enumerate(cases):
        args = (circuit, claimed, input_type, transported + lifted, samples, seed)
        want = pyoracle._exact(*args)
        got = pyoracle._verify(*args)
        assert got[0] == want[0], (seed, case)
        holds = [[r < TOLERANCE for r in kernel[1]] for kernel in (got, want)]
        assert holds[0] == holds[1], (seed, case)
        if case == 0:
            assert all(got[0]) and all(holds[0])
            seen["held factor"] += len(lifted)
        elif claimed is not pairs:
            seen["negated"] += got[0].count(False) == 1
        elif transported is not gens:
            seen["wrong transport"] += max(got[1]) > 1e-3
        else:
            seen["refuted factor"] += not holds[0][-1]


CASES = ("negated", "wrong transport", "refuted factor", "held factor", "top output")


def test_verdicts_match_the_exact_kernel():
    rng = random.Random(1919)
    seen = dict.fromkeys(CASES, 0)
    for trial in range(320):
        n = 1 + trial % 4
        circuit = random_circuit(n, rng.randrange(1, 12), rng)
        assert_kernels_agree(circuit, random_stab_type(n, rng), 4, trial, rng, seen)
    assert min(seen.values()) > 20, seen


def test_verdicts_match_the_exact_kernel_on_five_to_eight_qubits():
    """On 5-8 qubits, in turn: circuits of diagonal gates only, whose rows
    the state-vector kernel never moves; and random circuits with a real
    and with a complex def whose unitary has rows of two entries. Inputs are
    mixed, 9 samples each."""
    gates = standard_gates()
    h, s = GateApp(gates["H"], (1,)), GateApp(gates["S"], (1,))
    cnot = GateApp(gates["CNOT"], (1, 2))
    defs = (derive_gate("RE", 2, [h, cnot]), derive_gate("CX", 2, [h, s, cnot]))
    for spec, real in zip(defs, (True, False)):
        rows = pyoracle._sparse_unitary(spec)
        assert all(len(row) == 2 for row in rows)
        assert all(complex(e).imag == 0 for row in rows for _, e in row) == real
    diagonal = [gates[name] for name in ("S", "Sdg", "Z", "CZ", "T", "Tdg")]
    rng = random.Random(2029)
    seen = dict.fromkeys(CASES, 0)
    for trial in range(48):
        n, kind = 5 + trial % 4, trial % 3
        pool = diagonal if kind == 0 else [*gates.values(), defs[kind - 1]]
        specs = [rng.choice(pool) for _ in range(rng.randrange(4, 10))]
        if kind:
            specs.insert(rng.randrange(len(specs) + 1), defs[kind - 1])
        apps = tuple(GateApp(g, tuple(rng.sample(range(1, n + 1), g.arity))) for g in specs)
        input_type = random_stab_type(n, rng, rank=rng.randrange(1, n))
        assert_kernels_agree(Circuit(n, apps), input_type, 9, trial, rng, seen)
    assert min(seen[case] for case in CASES[:-1]) > 10, seen


def test_decode_reads_the_letters():
    """``_decode`` reads the masks and ``.k``; it must give what the
    letters say, qubit 1 the top bit and each Y worth i^3, on strings of
    every phase and many Ys, 1 to 14 qubits."""
    rng = random.Random(3407)
    for trial in range(3000):
        n = 1 + trial % 14
        weights = (1, 1, 4, 1) if trial % 2 else (1, 1, 1, 1)
        atoms = rng.choices("IXYZ", weights, k=n)
        p = pauli(rng.randrange(4), atoms)
        assert pyoracle._decode(p) == ref_decode(p), p


# A gate's form as each kernel builds it: its sparse unitary, and its
# action on the Pauli strings over its wires.
KERNEL_FORMS = (pyoracle._sparse_unitary, pyoracle._conjugation)
KERNELS = (pyoracle._verify, pyoracle._exact)


def test_toffoli_decomposition_is_checked():
    """A wrong 3-wire TOFFOLI, and a 2-wire one whose matrix cannot be the
    8x8 reference, are refused alike by both kernels."""
    h, t, cnot = GATES["H"], GATES["T"], GATES["CNOT"]
    steps = [GateApp(h, (3,)), GateApp(cnot, (1, 3)), GateApp(t, (3,))]
    for wrong in (
        derive_gate("TOFFOLI", 3, steps),
        derive_gate("TOFFOLI", 2, [GateApp(cnot, (1, 2))]),
    ):
        for form in KERNEL_FORMS:
            with pytest.raises(OracleError) as info:
                form(wrong)
            assert str(info.value) == "TOFFOLI decomposition disagrees with its matrix"
    assert pyoracle._sparse_unitary(GATES["TOFFOLI"])[6] == ((7, 1),)
    # Local bit b is wire 3 - b. TOFFOLI fixes X on its target (wire 3)
    # and Z on its controls; X on a control and Z on the target go to sums
    # of Pauli strings.
    xs, zs, _ = pyoracle._conjugation(GATES["TOFFOLI"])
    assert xs == ((1, 0, 0), None, None) and zs == (None, (0, 2, 0), (0, 4, 0))


def test_gate_without_unitary_rejected():
    opaque = GateSpec("OPAQUE", 1, (P("Z"),), (P("X"),))
    for form in KERNEL_FORMS:
        with pytest.raises(OracleError) as info:
            form(opaque)
        assert str(info.value) == "no unitary known for gate OPAQUE"
    circuit = Circuit(1, (GateApp(opaque, (1,)),))
    for kernel in KERNELS:
        with pytest.raises(OracleError, match="no unitary known"):
            kernel(circuit, [(P("Z"), P("X"))], None, (), 1, 0)


def test_faults_raise_as_in_the_numpy_oracle(monkeypatch):
    """Each fault raises as it did when large work ran on numpy, on either
    kernel."""
    for budget in KERNEL_BUDGETS.values():
        monkeypatch.setattr(pyoracle, "WORK_BUDGET", budget)
        with pytest.raises(MeasurementError):
            pyoracle.verify_claims(Circuit(1, (Measure(1),)), [(P("Z"), P("Z"))])
        with pytest.raises(TopOperandError):
            pyoracle.verify_claims(Circuit(1), [(P("Z"), PauliString.top(1))])
        with pytest.raises(ArityError):
            pyoracle.verify_claims(Circuit(2), [(P("Z"), P("Z"))])
    # +Z and -Z on one qubit project every draw to zero.
    with pytest.raises(EmptyEigenspaceError):
        pyoracle._sample_states(2, [P("ZI"), P("-ZI")], 1, random.Random(0))


def test_samples_are_unit_eigenvectors():
    rng = random.Random(7)
    for n in (1, 2, 3, 4):
        s = random_stab_type(n, rng)
        for v in pyoracle._sample_states(n, s.tableau, 3, random.Random(n)):
            assert abs(sum(abs(a) ** 2 for a in v) - 1) < 1e-12
            for g in s.tableau:
                g_v = pyoracle._act(pyoracle._pauli(g), v)
                assert max(abs(a - b) for a, b in zip(g_v, v)) < 1e-12


def test_numpy_oracle_has_no_entry_of_its_own():
    """There is no numpy kernel, and ``verify_claims`` is the one public
    callable of the dense check."""
    assert importlib.util.find_spec("gottesman.oracle") is None
    public = {
        name
        for name, value in vars(pyoracle).items()
        if callable(value)
        and getattr(value, "__module__", None) == pyoracle.__name__
        and not name.startswith("_")
    }
    assert public == {"verify_claims"}


@pytest.fixture
def ran(monkeypatch):
    """The kernels ``verify_claims`` ran, in order; each returns no verdicts."""
    calls = []

    def recorder(name):
        def kernel(circuit, pairs, input_type, transported, samples, seed):
            calls.append(name)
            return [], [0.0] * len(transported)

        return kernel

    monkeypatch.setattr(pyoracle, "_verify", recorder("plain"))
    monkeypatch.setattr(pyoracle, "_exact", recorder("exact"))
    return calls


def test_work_budget_chooses_the_kernel(ran):
    # One qubit, no gates: W = 2 amplitudes x (2 probes + samples) x 1 pass,
    # on the mixed one-qubit type, whose samples are all drawn.
    mixed = StabType(1)
    pyoracle.verify_claims(Circuit(1), (), mixed, (), samples=8190)  # W = 2^14
    assert ran == ["plain"]
    pyoracle.verify_claims(Circuit(1), (), mixed, (), samples=8191)
    assert ran == ["plain", "exact"]
    # Without an input type no sample is drawn, so none is counted.
    pyoracle.verify_claims(Circuit(1), (), None, (), samples=8191)
    assert ran == ["plain", "exact", "plain"]
    # The pure Z is drawn once, whatever is asked: W = 2 x 3 x 1.
    pyoracle.verify_claims(Circuit(1), (), StabType.of("Z"), (), samples=8191)
    assert ran == ["plain", "exact", "plain", "plain"]


def test_round_trips_keep_standard_gates_at_one_pass(ran, monkeypatch):
    """A standard gate counts one pass and a def 2^arity, so superdense.qc's
    six instructions of standard gates make 7 passes (W = 2^4 x 2 probes x
    7), 21 if they were counted as defs: after pickle and deepcopy too."""
    circuit, _ = cli.parse((CIRCUITS / "superdense.qc").read_text())
    monkeypatch.setattr(pyoracle, "WORK_BUDGET", 16 * 2 * 7)
    for twin in (circuit, pickle.loads(pickle.dumps(circuit)), copy.deepcopy(circuit)):
        pyoracle.verify_claims(twin, ())
    monkeypatch.setattr(pyoracle, "WORK_BUDGET", 16 * 2 * 7 - 1)
    pyoracle.verify_claims(circuit, ())
    assert ran == ["plain"] * 3 + ["exact"]


@pytest.mark.parametrize("kernel", KERNEL_BUDGETS)
def test_a_pure_input_type_is_drawn_once(kernel, monkeypatch):
    """The state-vector kernel draws one eigenstate of a type whose rows'
    bits have rank n, and every sample asked for of any other, a type that
    lies about its rank included: the rank is read from the rows, not their
    number. The exact kernel draws none."""
    monkeypatch.setattr(pyoracle, "WORK_BUDGET", KERNEL_BUDGETS[kernel])
    drawn, sample = [], pyoracle._sample_states

    def spy(n, gens, count, rng):
        drawn.append(count)
        return sample(n, gens, count, rng)

    monkeypatch.setattr(pyoracle, "_sample_states", spy)
    rng = random.Random(33)
    lying = (P("ZZI"), P("IZZ"), P("ZIZ"))  # three rows, rank 2
    cases = [(random_stab_type(n, rng, rank=n), 1) for n in range(1, 9)]
    cases += [
        (parse_qtype("Z x Z x Z").stab, 1),
        (random_stab_type(4, rng, rank=3), 5),
        (StabType(3), 5),
        (StabType.of("IIZI"), 5),
        (_unchecked(3, lying, tableau=lying), 5),
    ]
    for input_type, want in cases:
        drawn.clear()
        pyoracle.verify_claims(Circuit(input_type.arity), (), input_type, (), samples=5)
        assert drawn == ([want] if kernel == "plain" else []), input_type


@pytest.mark.parametrize("kernel", KERNEL_BUDGETS)
def test_one_draw_of_a_pure_type_reads_as_every_sample(kernel, monkeypatch):
    """On random pure inputs through random Clifford circuits, half of them
    with one transported generator negated or an atom of it swapped, the one
    draw gives the verdicts and residuals of all 16 samples: for the
    generators, and for +Z claimed as a factor at every qubit."""
    monkeypatch.setattr(pyoracle, "WORK_BUDGET", KERNEL_BUDGETS[kernel])
    run = pyoracle._verify if kernel == "plain" else pyoracle._exact
    rng = random.Random(4242)
    wrong = refuted = 0
    for trial in range(200):
        n = 1 + trial % 5
        circuit = random_clifford_circuit(n, rng.randrange(1, 12), rng)
        input_type = random_stab_type(n, rng, rank=n)
        gens = check(circuit, QType(n, input_type)).stab.generators
        if trial % 2:
            j = rng.randrange(len(gens))
            bad = mutations(gens[j], rng)[rng.randrange(2)]
            gens = gens[:j] + (bad,) + gens[j + 1 :]
        zs = tuple(lift(k, P("Z"), n) for k in range(1, n + 1))
        args = (circuit, claims(circuit), input_type, gens + zs, 16, trial)
        got, want = pyoracle.verify_claims(*args), run(*args)
        assert got[0] == want[0], trial
        assert len(got[1]) == len(want[1]) == len(gens) + n, trial
        assert all(abs(g - w) < 1e-9 for g, w in zip(got[1], want[1])), trial
        wrong += max(got[1][: len(gens)]) > 1e-3
        refuted += sum(r > 1e-3 for r in got[1][len(gens) :])
    assert wrong > 50 and refuted > 100


@pytest.fixture
def refused(monkeypatch):
    """Both kernels and the eigenstate draw, each raising if reached."""

    def refuse(*args):
        raise AssertionError("operands must be checked before any kernel or draw")

    for name in ("_verify", "_exact", "_sample_states"):
        monkeypatch.setattr(pyoracle, name, refuse)


@pytest.mark.parametrize("samples", [1, 4000])  # the plain and the exact kernel's work
def test_every_operand_is_checked_before_either_kernel(refused, samples):
    h1 = Circuit(2, (GateApp(GATES["H"], (1,)),))
    bell = Circuit(2, h1.instructions + (GateApp(GATES["CNOT"], (1, 2)),))
    mixed = StabType.of("ZI")  # 4000 samples of it: W = 4 x 4002 x 2, past the budget
    cases = [
        (ArityError, h1, StabType.of("ZZZ"), ()),
        (ArityError, h1, mixed, (P("ZZZ"),)),
        (ArityError, h1, mixed, (P("X"),)),
        (OracleError, bell, None, (P("ZI"),)),
    ]
    for error, circuit, input_type, transported in cases:
        with pytest.raises(error):
            pyoracle.verify_claims(circuit, (), input_type, transported, samples, 7)


def test_valid_operands_reach_the_kernel_the_size_chooses(ran):
    h1 = Circuit(2, (GateApp(GATES["H"], (1,)),))
    for samples in (1, 4000):
        pyoracle.verify_claims(h1, (), StabType.of("ZI"), (P("XI"), P("IZ")), samples, 7)
    assert ran == ["plain", "exact"]


def test_measured_circuit_refused_before_either_kernel(ran):
    measured = Circuit(2, (GateApp(GATES["H"], (1,)), Measure(1)))
    with pytest.raises(MeasurementError):
        pyoracle.verify_claims(measured, [(P("ZI"), P("XI"))], StabType.of("ZI", "IZ"))
    assert ran == []


def test_small_work_leaves_numpy_unloaded():
    code = (
        "import json, sys\n"
        "from gottesman import Circuit, GateApp, PauliString, StabType, standard_gates\n"
        "from gottesman.pyoracle import verify_claims\n"
        "g = standard_gates()\n"
        "bell = Circuit(2, (GateApp(g['H'], (1,)), GateApp(g['CNOT'], (1, 2))))\n"
        "pairs = [(PauliString.parse('ZI'), PauliString.parse('XX'))]\n"
        "out = StabType.of('XX', 'ZZ').generators\n"
        "got = verify_claims(bell, pairs, StabType.of('ZI', 'IZ'), out, 4, 1)\n"
        "print(json.dumps([got, 'numpy' in sys.modules]))\n"
    )
    (verdicts, residuals), numpy_loaded = fresh_run(code)
    assert verdicts == [True] and len(residuals) == 2 and max(residuals) < TOLERANCE
    assert not numpy_loaded


def test_exact_residual_is_the_dense_supremum():
    """On random types through random Clifford circuits, each claimed string's
    exact residual is sup |M(q) U v - U v| over the unit eigenvectors v,
    from a dense eigenvalue, within 1e-9: for the output's generators (0),
    their negations (2), the first with its phase off by i (sqrt 2), and
    random strings of every phase. All three values are reached."""
    rng = random.Random(5501)
    seen = set()
    for trial in range(120):
        n = 1 + trial % 4
        circuit = random_clifford_circuit(n, rng.randrange(12), rng)
        input_type = random_stab_type(n, rng)
        gens = check(circuit, QType(n, input_type)).stab.generators
        claimed = [*gens, *(-g for g in gens), pauli(gens[0].k + 1, letters(gens[0]))]
        claimed += [pauli(rng.randrange(4), rng.choices("IXYZ", k=n)) for _ in range(3)]
        _, residuals = pyoracle._exact(circuit, (), input_type, claimed, 1, trial)
        for q, got in zip(claimed, residuals, strict=True):
            assert abs(got - ref_supremum_residual(circuit, input_type, q)) < 1e-9, (trial, q)
            seen.add(round(got * got))
    assert seen == {0, 2, 4}


def test_a_sum_of_pauli_terms_is_unavailable_not_refuted(monkeypatch):
    """T T = S takes X to Y, but T alone takes X to (X + Y)/sqrt 2: the exact
    kernel cannot follow the true pair (X, Y) through it, and says so, naming
    the gate, rather than refute it. The state-vector kernel confirms it."""
    t = GateApp(GATES["T"], (1,))
    circuit = Circuit(1, (t, t))
    monkeypatch.setattr(pyoracle, "WORK_BUDGET", -1)
    with pytest.raises(OracleUnavailableError, match="^T 1 takes a claimed string"):
        pyoracle.verify_claims(circuit, [(P("X"), P("Y"))])
    assert pyoracle._verify(circuit, [(P("X"), P("Y"))], None, (), 1, 0)[0] == [True]
    # Z is fixed by T, so it is followed exactly, with its sign.
    verdicts, _ = pyoracle.verify_claims(circuit, [(P("Z"), P("Z")), (P("Z"), P("-Z"))])
    assert verdicts == [True, False]
