"""Every one-instruction transition at n <= 3, checked exactly.

At a fixed small n the checker is a finite transition system: its states
are the signed stabilizer groups and Top, and its steps are the standard
gates on every choice of wires and ``MEAS``. A breadth-first search from
the rank-0 group reaches every group (Aaronson & Gottesman,
arXiv:quant-ph/0406196, count the pure ones), and each transition is
checked against dense evolution: the input group's projector is
conjugated by the gate's unitary, or projected onto the +1 outcome of a
measurement (the -1 outcome when +1 has probability 0), and the
expectation of every Pauli is read off. A group the checker outputs must
hold exactly the Paulis of expectation +-1, with that sign.

The dense side uses matrices from ``tests/helpers.py`` only: no product
of the package's. The counts are pinned; a change to any of them is a
deliberate change to the checker's judgments. A Top result "loses" a
group when the true output still fixes a non-identity Pauli.
"""

import itertools

import numpy as np
import pytest

from gottesman.checker import Circuit, Measure, check
from gottesman.gates import GateApp, standard_gates
from gottesman.typesys import QType, StabType

from helpers import pauli, ref_embed_unitary, ref_gate_unitary, string_matrix

# n: (groups, transitions, Top results, Top results that lose a group)
COUNTS = {
    1: (7, 63, 8, 0),
    2: (91, 2366, 256, 192),
    3: (2467, 140619, 26400, 16896),
}


def _instructions(n):
    """MEAS on every qubit, then every standard gate on every choice of wires."""
    found = [Measure(k) for k in range(1, n + 1)]
    for spec in standard_gates().values():
        for wires in itertools.permutations(range(1, n + 1), spec.arity):
            found.append(GateApp(spec, wires))
    return found


def transition_table(n):
    """Check every transition from every reachable group; return the counts."""
    dim = 2**n
    eye = np.eye(dim, dtype=complex)
    matrices = {}

    def matrix(p):
        if p not in matrices:
            matrices[p] = string_matrix(p)
        return matrices[p]

    # tr(rho P) is the dot product of rho's entries with those of P^T.
    paulis = [pauli(0, atoms) for atoms in itertools.product("IXYZ", repeat=n)]
    basis = np.array([string_matrix(p).T.reshape(-1) for p in paulis])

    def expectations(rho):
        """Each Pauli's expectation in each state of the batch ``rho``."""
        e = rho.reshape(-1, dim * dim) @ basis.T
        return e / e[:, :1]  # the identity comes first: the trace

    def projector(s):
        proj = eye
        for g in s.tableau:
            proj = proj @ (eye + matrix(g)) / 2
        return proj

    held = {}  # a group -> the expectation of each Pauli in its state

    def group_vector(s):
        if s not in held:
            held[s] = expectations(projector(s)).real[0]
        return held[s]

    steps = []
    for ins in _instructions(n):
        if isinstance(ins, Measure):
            z = matrix(pauli(0, ["Z" if q == ins.qubit else "I" for q in range(1, n + 1)]))
            op = ((eye + z) / 2, (eye - z) / 2)
        else:
            op = ref_embed_unitary(ref_gate_unitary(ins.gate), ins.wires, n)
        steps.append((Circuit(n, (ins,)), op))

    start = StabType(n)
    seen, frontier = {start}, [start]
    transitions = tops = losses = 0
    while frontier:
        inputs = [QType(n, s) for s in frontier]
        rhos = np.array([projector(s) for s in frontier])
        reached = []
        for circuit, op in steps:
            if isinstance(op, tuple):
                plus, minus = op
                kept = plus @ rhos @ plus
                possible = np.trace(kept, axis1=1, axis2=2).real > 1e-9
                rho = np.where(possible[:, None, None], kept, minus @ rhos @ minus)
            else:
                rho = op @ rhos @ op.conj().T
            true = expectations(rho)
            fixed = np.abs(np.abs(true) - 1) < 1e-9
            want = np.where(fixed, np.round(true.real), 0)
            outs = [check(circuit, q) for q in inputs]
            typed = [i for i, out in enumerate(outs) if not out.top]
            transitions += len(outs)
            tops += len(outs) - len(typed)
            losses += sum(fixed[i, 1:].any() for i, out in enumerate(outs) if out.top)
            got = np.array([group_vector(outs[i].stab) for i in typed]).reshape(-1, dim * dim)
            bad = np.flatnonzero((got != want[typed]).any(axis=1))
            assert not len(bad), (str(inputs[typed[bad[0]]]), str(circuit.instructions[0]))
            for i in typed:
                if outs[i].stab not in seen:
                    seen.add(outs[i].stab)
                    reached.append(outs[i].stab)
        frontier = reached
    return len(seen), transitions, tops, losses


@pytest.mark.parametrize("n", sorted(COUNTS))
def test_every_transition_matches_dense_evolution(n):
    assert transition_table(n) == COUNTS[n]
