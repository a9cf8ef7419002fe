"""Check the reference's gate and product rules against dense matrices.

Run from the repository root: ``python3 perfbench/check_reference.py``.
It uses numpy only, never the package under test, and exits non-zero
on the first disagreement.
"""

import itertools
import sys

import numpy as np

import reference as ref

I2 = np.eye(2, dtype=complex)
PAULI = {
    "I": I2,
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
S = np.diag([1, 1j])
# Qubit 1 is the most significant tensor factor; CNOT controls on wire 1.
CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
UNITARIES = {
    "H": np.kron(H, I2),
    "S": np.kron(S, I2),
    "Sdg": np.kron(S.conj().T, I2),
    "X": np.kron(PAULI["X"], I2),
    "Y": np.kron(PAULI["Y"], I2),
    "Z": np.kron(PAULI["Z"], I2),
    "CNOT": CNOT,
    "NOTC": SWAP @ CNOT @ SWAP,
    "CZ": np.diag([1, 1, 1, -1]).astype(complex),
    "SWAP": SWAP,
}


def matrix(text):
    neg = text.startswith("-")
    m = np.array([[-1.0 if neg else 1.0]], dtype=complex)
    for ch in text.lstrip("-"):
        m = np.kron(m, PAULI[ch])
    return m


def main() -> int:
    literals = ["".join(p) for p in itertools.product("IXYZ", repeat=2)]
    for name, u in UNITARIES.items():
        arity = ref.PRIMITIVES[name][0]
        wires = (1, 2)[:arity]
        for lit in literals:
            for sign in ("", "-"):
                _, row = ref.parse_row(sign + lit)
                (image,) = ref.propagate(2, [row], [(name, wires)])
                want = u @ matrix(sign + lit) @ u.conj().T
                if not np.allclose(matrix(ref.row_text(image, 2)), want):
                    print(f"{name}: {sign}{lit} -> {ref.row_text(image, 2)} is wrong")
                    return 1
    for a, b in itertools.product(literals, repeat=2):
        ra, rb = ref.parse_row(a)[1], ref.parse_row(b)[1]
        if not ref.commute(ra, rb):
            continue
        got = ref.row_text(ref.row_mul(ra, rb), 2)
        if not np.allclose(matrix(got), matrix(a) @ matrix(b)):
            print(f"{a} * {b} -> {got} is wrong")
            return 1
    print("reference rules agree with dense matrices")
    return 0


if __name__ == "__main__":
    sys.exit(main())
