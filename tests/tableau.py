"""Aaronson–Gottesman stabilizer tableau of a graph state: an independent
oracle for the sign of a Pauli product on states of any size.

S. Aaronson and D. Gottesman, "Improved simulation of stabilizer circuits",
Phys. Rev. A 70, 052328 (2004).  The tableau starts at |0>^n (destabilizers
X_j, stabilizers Z_j) and applies H to every qubit, then CZ = H_b CNOT_ab H_b
across every edge, with the paper's update rules.  It is stored column-major:
x[j] and z[j] are qubit j's bits of every row as one int, bit i for row i
(destabilizers 0..n-1, stabilizers n..2n-1), and bit i of r is row i's sign.
A product of rows takes its sign from the paper's g function.

Nothing here comes from the package's Pauli, paradox, GF(2) or classical
model code, so it checks them rather than repeating them.
"""

# (x, z) bits of each letter; (1, 1) is Y itself, as in the paper.
BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}


def _ones(bits: int):
    """The indices of the set bits of a nonnegative int, ascending."""
    while bits:
        yield (bits & -bits).bit_length() - 1
        bits &= bits - 1


def g_sum(x1: int, z1: int, x2: int, z2: int) -> int:
    """Sum over qubits of g(x1, z1, x2, z2), the power of i that the Pauli
    (x1, z1) times the Pauli (x2, z2) picks up, for rows given as ints over
    the qubits.  Per qubit, g is 0 for I; z2 - x2 for Y; z2 (2 x2 - 1) for
    X; and x2 (1 - 2 z2) for Z."""
    x, y, z = x1 & ~z1, x1 & z1, z1 & ~x1
    plus = (x & x2 & z2) | (y & z2 & ~x2) | (z & x2 & ~z2)
    minus = (x & z2 & ~x2) | (y & x2 & ~z2) | (z & x2 & z2)
    return plus.bit_count() - minus.bit_count()


class GraphTableau:
    """The graph state of the given vertices and edges as a tableau."""

    def __init__(self, vertices, edges) -> None:
        self.index = {v: j for j, v in enumerate(vertices)}
        n = self.n = len(self.index)
        self.x = [1 << j for j in range(n)]
        self.z = [1 << (n + j) for j in range(n)]
        self.r = 0
        for j in range(n):
            self._hadamard(j)
        for u, v in edges:
            a, b = self.index[u], self.index[v]
            self._hadamard(b)
            self._cnot(a, b)
            self._hadamard(b)
        # The stabilizer rows, row-major: the bits of each over the qubits.
        self.rows = [[0, 0] for _ in range(n)]
        for j in range(n):
            for k, column in enumerate((self.x[j], self.z[j])):
                for i in _ones(column >> n):
                    self.rows[i][k] |= 1 << j

    def _hadamard(self, a: int) -> None:
        x, z = self.x, self.z
        self.r ^= x[a] & z[a]
        x[a], z[a] = z[a], x[a]

    def _cnot(self, a: int, b: int) -> None:
        x, z = self.x, self.z
        self.r ^= x[a] & z[b] & ~(x[b] ^ z[a])
        x[b] ^= x[a]
        z[a] ^= z[b]

    def expectation(self, letters) -> int:
        """<P> for the product P of the letters (a mapping vertex -> I, X,
        Y or Z): +1 or -1 when P is plus or minus a stabilizer element, 0
        when it anticommutes with one.  An unknown vertex raises KeyError.

        Row i anticommutes with P iff its x bits meet P's z bits, XOR its z
        bits meet P's x bits, an odd number of times: the XOR of qubit j's
        x column over P's Z and Y letters and of its z column over P's X
        and Y letters gives every row's bit at once.  When every stabilizer
        commutes with P, P is plus or minus the product of the stabilizers
        whose destabilizers anticommute with it (the paper's deterministic
        measurement)."""
        n = self.n
        xp = zp = anti = 0
        for v, letter in letters.items():
            j = self.index[v]
            bx, bz = BITS[letter]
            if bx:
                xp |= 1 << j
                anti ^= self.z[j]
            if bz:
                zp |= 1 << j
                anti ^= self.x[j]
        if anti >> n:
            return 0
        x = z = phase = 0  # the product so far is i**phase times Pauli (x, z)
        for i in _ones(anti):
            sx, sz = self.rows[i]
            phase += 2 * (self.r >> (n + i) & 1) + g_sum(sx, sz, x, z)
            x ^= sx
            z ^= sz
        assert (x, z) == (xp, zp) and phase % 2 == 0, "tableau is corrupt"
        return -1 if phase % 4 else 1
