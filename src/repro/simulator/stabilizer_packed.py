"""Bit-packed word-parallel stabilizer tableau for 1000+ qubit sampling.

The uint8 :class:`~repro.simulator.stabilizer.Tableau` stores one bit per
byte, so every conjugation, ``rowsum`` phase walk, and
:class:`~repro.simulator.stabilizer.CosetSupport` elimination moves 8×
more memory than the information content and does byte-wise boolean
algebra.  :class:`PackedTableau` is the same Aaronson–Gottesman state in
two bit-packed views, each chosen for the operations that dominate it:

**Column words (gate axis).**  Each tableau *column* (one qubit's X or Z
bits across all ``2n`` rows) is a single arbitrary-precision integer —
bit *i* of ``_xc[q]`` is ``x[i, q]``.  A gate conjugation touches one or
two columns, so H/S/SDG/X/Y/Z/CX/CZ/SWAP each collapse to a handful of
word-wise XOR/AND/shift operations on ``2n``-bit words (CPython big-int
bitwise ops run as tight C loops over 30-bit limbs), with none of the
per-call dispatch overhead a ``(2n,)`` numpy column op pays.  This is
what makes trajectory *replay* — the grouped sampler's dominant cost —
word-parallel.

**Row words (algebra axis).**  Row-wise machinery (the ``rowsum`` phase
walk, measurement reduction, Pauli expectations, and the coset
factorization) views the same state as ``(2n, W)`` ``np.uint64`` arrays
with ``W = ceil(n/64)`` words per row.  Phase accumulation — the mod-4
sum of Aaronson–Gottesman ``g`` exponents — is evaluated with a
vectorized popcount (:func:`g4_words`, via ``np.bitwise_count``, with a
byte-LUT fallback on NumPy < 2.0) instead
of per-qubit integer arithmetic, and :class:`PackedCosetSupport` runs
the Gaussian elimination with word-wide row XORs, turning the ``O(n³)``
bit-matrix factorization into ``O(n³/64)`` word ops.  The row view is
derived from the column words on demand (one ``O(n²/8)``-byte
transpose, consumed once per factorization or measurement reduction —
deliberately not cached, so gate conjugations never pay an invalidation
store).

Equivalence contract
--------------------
``PackedTableau`` is *bit-identical* in behaviour to the uint8 tableau:
identical row phases after any gate/injection sequence, identical
measurement outcomes and RNG consumption, and an identical coset
factorization (same pivot choices, same basis order), so seeded sampling
produces the same bits from either representation —
``tests/test_packed_tableau.py`` pins this property.  Conversion runs
through :func:`pack_tableau` / :meth:`PackedTableau.unpack`; the
exponential-cost conversions (:meth:`coset_amplitudes`,
:meth:`to_statevector`, :meth:`probabilities`) delegate to the unpacked
form, which is exact and only legal at widths where the uint8 cost is
irrelevant anyway.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.circuit import Instruction
from repro.circuits.gates import UNITARY_NOOPS as _UNITARY_NOOPS
from repro.errors import SimulationError
from repro.simulator.stabilizer import _EXACT_COSET_BITS, Tableau
from repro.utils.rng import RandomState, as_rng

#: Explicit little-endian 64-bit word dtype: byte *b* of a word holds
#: bits ``8b..8b+7``, so ``packbits(bitorder="little")`` output viewed as
#: this dtype gives "bit *j* of word *w* ⇔ column ``64w + j``".
_U64 = np.dtype("<u8")

if hasattr(np, "bitwise_count"):

    def _popcount_last_axis(words: np.ndarray) -> np.ndarray:
        """Per-row popcount sum over the trailing word axis
        (``np.bitwise_count`` fast path, NumPy ≥ 2.0)."""
        return np.bitwise_count(words).sum(axis=-1, dtype=np.int64)

else:  # pragma: no cover - exercised via the explicit LUT test
    _POPCOUNT_LUT = np.array(
        [bin(i).count("1") for i in range(256)], dtype=np.uint8
    )

    def _popcount_last_axis(words: np.ndarray) -> np.ndarray:
        """Byte-LUT fallback for NumPy builds without ``bitwise_count``
        (< 2.0): same trailing-axis popcount sums, ~3× slower — the
        packed tableau stays available rather than failing deep inside
        sampling."""
        as_bytes = (
            np.ascontiguousarray(words)
            .view(np.uint8)
            .reshape(words.shape[:-1] + (-1,))
        )
        return _POPCOUNT_LUT[as_bytes].sum(axis=-1, dtype=np.int64)


def _popcount_last_axis_lut(words: np.ndarray) -> np.ndarray:
    """The LUT fallback, always available (the fast-path parity test
    compares it against ``np.bitwise_count`` on NumPy ≥ 2.0)."""
    lut = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)
    as_bytes = (
        np.ascontiguousarray(words).view(np.uint8).reshape(words.shape[:-1] + (-1,))
    )
    return lut[as_bytes].sum(axis=-1, dtype=np.int64)


def words_for(num_bits: int) -> int:
    """Number of 64-bit words needed to hold *num_bits* bits."""
    return (int(num_bits) + 63) >> 6


def pack_bit_matrix(bits: np.ndarray) -> np.ndarray:
    """Pack an ``(m, k)`` 0/1 matrix into ``(m, ceil(k/64))`` uint64 words
    (little-endian within each word: bit *j* of word *w* is column
    ``64w + j``)."""
    bits = np.ascontiguousarray(bits, dtype=np.uint8)
    m, k = bits.shape
    w = words_for(k)
    if k != w * 64:
        padded = np.zeros((m, w * 64), dtype=np.uint8)
        padded[:, :k] = bits
        bits = padded
    packed = np.packbits(bits, axis=1, bitorder="little")
    return np.ascontiguousarray(packed).view(_U64)


def unpack_bit_matrix(words: np.ndarray, num_bits: int) -> np.ndarray:
    """Inverse of :func:`pack_bit_matrix`: ``(m, W)`` words → ``(m, num_bits)``
    0/1 uint8 matrix."""
    words = np.ascontiguousarray(words, dtype=_U64)
    m = words.shape[0]
    as_bytes = words.view(np.uint8).reshape(m, -1)
    bits = np.unpackbits(as_bytes, axis=1, bitorder="little")
    return bits[:, :num_bits]


def _int_from_bits(bits: np.ndarray) -> int:
    """0/1 vector → arbitrary-precision integer (bit *i* ⇔ ``bits[i]``)."""
    data = np.packbits(np.ascontiguousarray(bits, dtype=np.uint8), bitorder="little")
    return int.from_bytes(data.tobytes(), "little")


def _bits_of_int(value: int, num_bits: int) -> np.ndarray:
    """Arbitrary-precision integer → ``(num_bits,)`` 0/1 uint8 vector."""
    raw = value.to_bytes((num_bits + 7) // 8, "little")
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")[
        :num_bits
    ]


def g4_words(
    x1: np.ndarray, z1: np.ndarray, x2: np.ndarray, z2: np.ndarray
) -> np.ndarray:
    """Mod-4 sum of Aaronson–Gottesman ``g`` exponents over packed words.

    The word-parallel counterpart of summing
    :func:`repro.simulator.stabilizer._g4` along the qubit axis: inputs
    are uint64 bit-plane arrays broadcast against each other on their
    leading axes (last axis = words), and the result is the summed
    exponent of ``i`` reduced mod 4.  Positions contribute ``+1`` for
    the products XY, ZX, YZ and ``−1`` for XZ, ZY, YX; both masks are
    tallied with a vectorized popcount (``np.bitwise_count``).
    """
    not_x1, not_z1 = ~x1, ~z1
    not_x2, not_z2 = ~x2, ~z2
    plus = (
        (x1 & not_z1 & x2 & z2)
        | (not_x1 & z1 & x2 & not_z2)
        | (x1 & z1 & not_x2 & z2)
    )
    minus = (
        (x1 & not_z1 & not_x2 & z2)
        | (not_x1 & z1 & x2 & z2)
        | (x1 & z1 & x2 & not_z2)
    )
    return (_popcount_last_axis(plus) - _popcount_last_axis(minus)) % 4


def _NOOP_PROGRAM(tab: "PackedTableau") -> None:
    """Compiled program of a unitary no-op (barrier/delay/measure/id)."""


class PackedTableau:
    """A bit-packed n-qubit stabilizer state, behaviourally identical to
    :class:`~repro.simulator.stabilizer.Tableau`.

    Same public surface as the uint8 tableau (``apply`` /
    ``apply_instruction`` / ``apply_pauli`` / ``measure`` / ``reset`` /
    ``collapse`` / ``sample`` / ``expectation_pauli`` / conversion
    methods); the representation difference is invisible to every
    caller, including the RNG streams seeded runs consume.
    """

    def __init__(self, num_qubits: int) -> None:
        if num_qubits < 1:
            raise SimulationError("tableau needs at least one qubit")
        self.num_qubits = int(num_qubits)
        n = self.num_qubits
        # Column words: bit i of _xc[q] is x[i, q]; destabilizers X_i,
        # stabilizers Z_i, exactly the |0…0⟩ layout of the uint8 tableau.
        self._xc: List[int] = [1 << q for q in range(n)]
        self._zc: List[int] = [1 << (n + q) for q in range(n)]
        self._r: int = 0
        self._mask: int = (1 << (2 * n)) - 1

    def copy(self) -> "PackedTableau":
        """An independent deep copy — two list copies plus one integer
        (the packed fork is ~8× lighter than the uint8 one)."""
        dup = PackedTableau.__new__(PackedTableau)
        dup.num_qubits = self.num_qubits
        dup._xc = list(self._xc)
        dup._zc = list(self._zc)
        dup._r = self._r
        dup._mask = self._mask
        return dup

    def _check_qubit(self, qubit: int) -> int:
        if not 0 <= qubit < self.num_qubits:
            raise SimulationError(
                f"qubit {qubit} out of range for {self.num_qubits}-qubit tableau"
            )
        return int(qubit)

    # -- gate conjugations (whole-column big-int word ops) ---------------------

    def _h(self, q: int) -> None:
        xq = self._xc[q]
        zq = self._zc[q]
        self._r ^= xq & zq
        self._xc[q] = zq
        self._zc[q] = xq

    def _s(self, q: int) -> None:
        xq = self._xc[q]
        self._r ^= xq & self._zc[q]
        self._zc[q] ^= xq

    def _sdg(self, q: int) -> None:
        xq = self._xc[q]
        self._r ^= xq & (self._zc[q] ^ self._mask)
        self._zc[q] ^= xq

    def _x(self, q: int) -> None:
        self._r ^= self._zc[q]

    def _y(self, q: int) -> None:
        self._r ^= self._xc[q] ^ self._zc[q]

    def _z(self, q: int) -> None:
        self._r ^= self._xc[q]

    def _cx(self, control: int, target: int) -> None:
        xc = self._xc
        zc = self._zc
        xcc, xt = xc[control], xc[target]
        zcc, zt = zc[control], zc[target]
        self._r ^= xcc & zt & (xt ^ zcc ^ self._mask)
        xc[target] = xt ^ xcc
        zc[control] = zcc ^ zt

    def _cz(self, a: int, b: int) -> None:
        xc = self._xc
        zc = self._zc
        xa, xb = xc[a], xc[b]
        self._r ^= xa & xb & (zc[a] ^ zc[b])
        zc[a] ^= xb
        zc[b] ^= xa

    def _swap(self, a: int, b: int) -> None:
        xc = self._xc
        zc = self._zc
        xc[a], xc[b] = xc[b], xc[a]
        zc[a], zc[b] = zc[b], zc[a]

    _PRIMITIVES = {
        "h": _h,
        "s": _s,
        "sdg": _sdg,
        "x": _x,
        "y": _y,
        "z": _z,
        "cx": _cx,
        "cz": _cz,
        "swap": _swap,
    }

    def apply(
        self, name: str, qubits: Sequence[int], params: Sequence[float] = ()
    ) -> "PackedTableau":
        """Apply a library gate by mnemonic (must be Clifford; rotation
        gates qualify at multiples of π/2)."""
        from repro.circuits import gates as gate_lib

        prims = gate_lib.clifford_primitives(name, params)
        if prims is None:
            raise SimulationError(
                f"gate {name!r} with params {tuple(params)} is not Clifford; "
                "the tableau engine cannot apply it"
            )
        qs = [self._check_qubit(q) for q in qubits]
        for prim, slots in prims:
            PackedTableau._PRIMITIVES[prim](self, *(qs[i] for i in slots))
        return self

    @staticmethod
    def _compile_step(name: str, args):
        """One primitive as a direct closure ``step(tableau)`` — the
        conjugation body inlined over fixed operands, so replay pays a
        single call frame per primitive (no dispatch, no argument
        unpacking)."""
        if name == "cx":
            control, target = args

            def step(tab: "PackedTableau") -> None:
                xc = tab._xc
                zc = tab._zc
                xcc, xt = xc[control], xc[target]
                zcc, zt = zc[control], zc[target]
                tab._r ^= xcc & zt & (xt ^ zcc ^ tab._mask)
                xc[target] = xt ^ xcc
                zc[control] = zcc ^ zt

            return step
        if name == "cz":
            a, b = args

            def step(tab: "PackedTableau") -> None:
                xc = tab._xc
                zc = tab._zc
                xa, xb = xc[a], xc[b]
                tab._r ^= xa & xb & (zc[a] ^ zc[b])
                zc[a] ^= xb
                zc[b] ^= xa

            return step
        if name == "h":
            (q,) = args

            def step(tab: "PackedTableau") -> None:
                xq = tab._xc[q]
                zq = tab._zc[q]
                tab._r ^= xq & zq
                tab._xc[q] = zq
                tab._zc[q] = xq

            return step
        if name == "s":
            (q,) = args

            def step(tab: "PackedTableau") -> None:
                xq = tab._xc[q]
                tab._r ^= xq & tab._zc[q]
                tab._zc[q] ^= xq

            return step
        fn = PackedTableau._PRIMITIVES[name]
        if len(args) == 1:
            (a0,) = args
            return lambda tab: fn(tab, a0)
        a0, a1 = args
        return lambda tab: fn(tab, a0, a1)

    @staticmethod
    def _compile_program(prims, qs):
        """Compile a primitive decomposition into a single callable
        ``program(tableau)``.

        Nearly every Clifford library gate decomposes to one primitive,
        so the common case *is* the compiled step; composite gates chain
        their steps in a tuple loop.
        """
        steps = tuple(
            PackedTableau._compile_step(name, tuple(qs[i] for i in slots))
            for name, slots in prims
        )
        if len(steps) == 1:
            return steps[0]

        def run(tab: "PackedTableau") -> None:
            for step in steps:
                step(tab)

        return run

    def _compiled(self, instruction: Instruction):
        """The instruction's compiled primitive program.

        Memoized on the (immutable) instruction alongside its Clifford
        decomposition, so trajectory replays pay one dict lookup and one
        call per gate — the packed engine's hot path.
        """
        cached = instruction.__dict__.get("_packed_prims")
        if cached is None:
            if instruction.name in _UNITARY_NOOPS:
                # No-op-ness is folded into the compiled program so the
                # bulk replay loop never re-tests instruction names.
                cached = _NOOP_PROGRAM
            else:
                prims = instruction.clifford_primitives()
                if prims is None:
                    raise SimulationError(
                        f"instruction {instruction!r} is not Clifford; "
                        "route this circuit through the state-vector engine"
                    )
                qs = [self._check_qubit(q) for q in instruction.qubits]
                cached = PackedTableau._compile_program(prims, qs)
            object.__setattr__(instruction, "_packed_prims", cached)
        return cached

    def apply_instruction(self, instruction: Instruction) -> "PackedTableau":
        """Apply one circuit instruction (unitary Clifford gates only)."""
        self._compiled(instruction)(self)
        return self

    def apply_instructions(self, instructions: Sequence[Instruction]) -> "PackedTableau":
        """Apply a window of instructions (unitary no-ops skipped) — the
        bulk form :class:`~repro.simulator.engines.tableau.TableauEngine`
        drives replay through.

        This is the packed engine's hottest loop (trajectory replay in
        the grouped sampler): one attribute load and one call per
        instruction — no-op skipping and operand resolution are folded
        into the memoized compiled program.
        """
        compiled = self._compiled
        for inst in instructions:
            try:
                prog = inst._packed_prims
            except AttributeError:
                prog = compiled(inst)
            prog(self)
        return self

    def apply_pauli(self, pauli: str, qubits: Sequence[int]) -> "PackedTableau":
        """Inject a Pauli string — phase-only (one word XOR per letter),
        so error trajectories keep sharing one coset factorization.
        This is the grouped sampler's injection hot path, hence the
        direct branches instead of primitive dispatch."""
        if len(pauli) != len(qubits):
            raise SimulationError("pauli string and qubit list lengths differ")
        r = self._r
        for label, q in zip(pauli.upper(), qubits):
            if label == "I":
                continue
            q = self._check_qubit(q)
            if label == "X":
                r ^= self._zc[q]
            elif label == "Z":
                r ^= self._xc[q]
            elif label == "Y":
                r ^= self._xc[q] ^ self._zc[q]
            else:
                raise SimulationError(f"unknown Pauli label {label!r}")
        self._r = r
        return self

    # -- packed row view -------------------------------------------------------

    def _packed_rows(self) -> Tuple[np.ndarray, np.ndarray]:
        """The ``(2n, W)`` uint64 row view of the X and Z blocks.

        Derived fresh from the column words by one byte-level transpose
        (``O(n²/8)`` bytes).  Not cached: the row view is consumed once
        per coset factorization / measurement reduction, whereas caching
        it would put an invalidation store into every gate conjugation —
        the hottest loop in the engine.  Callers fetch it once and pass
        it through the phase-walk helpers.
        """
        n = self.num_qubits
        rbytes = (2 * n + 7) // 8
        xbuf = b"".join(c.to_bytes(rbytes, "little") for c in self._xc)
        zbuf = b"".join(c.to_bytes(rbytes, "little") for c in self._zc)
        cols = np.unpackbits(
            np.frombuffer(xbuf + zbuf, dtype=np.uint8).reshape(2 * n, rbytes),
            axis=1,
            bitorder="little",
        )[:, : 2 * n]
        xr = pack_bit_matrix(cols[:n].T)
        zr = pack_bit_matrix(cols[n:].T)
        return xr, zr

    def _set_from_rows(self, xr: np.ndarray, zr: np.ndarray) -> None:
        """Re-derive the column words after a row-domain mutation."""
        n = self.num_qubits
        xcols = np.packbits(
            np.ascontiguousarray(unpack_bit_matrix(xr, n).T), axis=1, bitorder="little"
        )
        zcols = np.packbits(
            np.ascontiguousarray(unpack_bit_matrix(zr, n).T), axis=1, bitorder="little"
        )
        self._xc = [int.from_bytes(xcols[q].tobytes(), "little") for q in range(n)]
        self._zc = [int.from_bytes(zcols[q].tobytes(), "little") for q in range(n)]

    def _signs_words(self) -> np.ndarray:
        """Stabilizer sign bits as ``(W,)`` uint64 words (read-only)."""
        n = self.num_qubits
        raw = (self._r >> n).to_bytes(words_for(n) * 8, "little")
        return np.frombuffer(raw, dtype=_U64)

    # -- row products (vectorized popcount phase walk) -------------------------

    def _rowsum_many_words(
        self,
        xr: np.ndarray,
        zr: np.ndarray,
        r_bits: np.ndarray,
        rows: np.ndarray,
        src: int,
    ) -> None:
        """``row_h ← row_src · row_h`` on the packed row view, phases via
        :func:`g4_words` — the word-parallel ``_rowsum_many``."""
        g = g4_words(xr[src][None, :], zr[src][None, :], xr[rows], zr[rows])
        phase = (2 * r_bits[rows].astype(np.int64) + 2 * int(r_bits[src]) + g) % 4
        r_bits[rows] = (phase >> 1).astype(np.uint8)
        xr[rows] ^= xr[src]
        zr[rows] ^= zr[src]

    def _accumulate_words(
        self,
        rows: Tuple[np.ndarray, np.ndarray],
        sx: np.ndarray,
        sz: np.ndarray,
        phase4: int,
        src: int,
    ) -> int:
        """Multiply scratch row ``(sx, sz, i^phase4)`` by tableau row
        *src* of the row view *rows* (packed counterpart of
        ``Tableau._accumulate``)."""
        xr, zr = rows
        g = int(g4_words(xr[src], zr[src], sx, sz))
        phase4 = (phase4 + 2 * ((self._r >> src) & 1) + g) % 4
        sx ^= xr[src]
        sz ^= zr[src]
        return phase4

    # -- measurement -----------------------------------------------------------

    def _deterministic_outcome(self, qubit: int) -> int:
        n = self.num_qubits
        w = words_for(n)
        sx = np.zeros(w, dtype=_U64)
        sz = np.zeros(w, dtype=_U64)
        phase4 = 0
        destab = _bits_of_int(self._xc[qubit] & ((1 << n) - 1), n)
        hits = np.nonzero(destab)[0]
        if hits.size:
            rows = self._packed_rows()
            for i in hits:
                phase4 = self._accumulate_words(rows, sx, sz, phase4, n + int(i))
        if phase4 not in (0, 2):
            raise SimulationError("tableau corrupted: non-Hermitian Z product")
        return phase4 >> 1

    def marginal_probability_one(self, qubit: int) -> float:
        """``P(qubit = 1)`` — a single word test on the column int."""
        q = self._check_qubit(qubit)
        if self._xc[q] >> self.num_qubits:
            return 0.5
        return float(self._deterministic_outcome(q))

    def _collapse_random(self, qubit: int, outcome: int) -> None:
        n = self.num_qubits
        # _packed_rows returns freshly derived arrays, safe to mutate.
        xr, zr = self._packed_rows()
        r_bits = _bits_of_int(self._r, 2 * n)
        col = _bits_of_int(self._xc[qubit], 2 * n)
        p = n + int(np.nonzero(col[n:])[0][0])
        others = np.nonzero(col)[0]
        others = others[others != p]
        if others.size:
            self._rowsum_many_words(xr, zr, r_bits, others, p)
        xr[p - n] = xr[p]
        zr[p - n] = zr[p]
        r_bits[p - n] = r_bits[p]
        xr[p] = 0
        zr[p] = 0
        zr[p, qubit >> 6] = np.uint64(1 << (qubit & 63))
        r_bits[p] = np.uint8(outcome)
        self._set_from_rows(xr, zr)
        self._r = _int_from_bits(r_bits)

    def collapse(self, qubit: int, outcome: int) -> float:
        """Project *qubit* onto *outcome*; returns the pre-collapse
        probability of that outcome (raises if it is zero)."""
        q = self._check_qubit(qubit)
        if self._xc[q] >> self.num_qubits:
            self._collapse_random(q, int(outcome))
            return 0.5
        det = self._deterministic_outcome(q)
        if det != int(outcome):
            raise SimulationError(
                f"cannot collapse qubit {qubit} onto impossible outcome {outcome}"
            )
        return 1.0

    def measure(self, qubit: int, rng: RandomState = None) -> int:
        """Projectively measure one qubit — one uniform draw always, the
        same RNG contract as the uint8 tableau and the dense engine."""
        q = self._check_qubit(qubit)
        u = as_rng(rng).random()
        if self._xc[q] >> self.num_qubits:
            outcome = 1 if u < 0.5 else 0
            self._collapse_random(q, outcome)
            return outcome
        return self._deterministic_outcome(q)

    def reset(self, qubit: int, rng: RandomState = None) -> "PackedTableau":
        """Measure-and-flip reset of one qubit to ``|0⟩``."""
        if self.measure(qubit, rng):
            self._x(self._check_qubit(qubit))
        return self

    # -- observables -----------------------------------------------------------

    def expectation_pauli(self, pauli: str, qubits: Sequence[int]) -> float:
        """``⟨ψ| P |ψ⟩`` — anticommutation tests and the destabilizer
        phase walk all run on packed words with vectorized popcounts."""
        if len(pauli) != len(qubits):
            raise SimulationError("pauli string and qubit list lengths differ")
        n = self.num_qubits
        w = words_for(n)
        px = np.zeros(w, dtype=_U64)
        pz = np.zeros(w, dtype=_U64)
        for label, q in zip(pauli.upper(), qubits):
            qi = self._check_qubit(q)
            bit = np.uint64(1 << (qi & 63))
            if label == "I":
                continue
            if label == "X":
                px[qi >> 6] ^= bit
            elif label == "Y":
                px[qi >> 6] ^= bit
                pz[qi >> 6] ^= bit
            elif label == "Z":
                pz[qi >> 6] ^= bit
            else:
                raise SimulationError(f"unknown Pauli label {label!r}")
        if not (px.any() or pz.any()):
            return 1.0
        xr, zr = self._packed_rows()
        anti_stab = _popcount_last_axis((xr[n:] & pz) ^ (zr[n:] & px)) & 1
        if anti_stab.any():
            return 0.0
        anti_destab = _popcount_last_axis((xr[:n] & pz) ^ (zr[:n] & px)) & 1
        sx = np.zeros(w, dtype=_U64)
        sz = np.zeros(w, dtype=_U64)
        phase4 = 0
        rows = (xr, zr)
        for i in np.nonzero(anti_destab)[0]:
            phase4 = self._accumulate_words(rows, sx, sz, phase4, n + int(i))
        if not (np.array_equal(sx, px) and np.array_equal(sz, pz)):
            raise SimulationError("tableau corrupted: Pauli reconstruction failed")
        if phase4 not in (0, 2):
            raise SimulationError("tableau corrupted: non-Hermitian stabilizer")
        return 1.0 if phase4 == 0 else -1.0

    def expectation_z(self, qubits: Sequence[int]) -> float:
        """Expectation of ``Z⊗…⊗Z`` on the listed qubits."""
        return self.expectation_pauli("Z" * len(qubits), qubits)

    # -- sampling --------------------------------------------------------------

    def coset_support(self) -> "PackedCosetSupport":
        """The coset factorization of this tableau's X/Z structure, in
        packed form (the polymorphic hook the engine layer shares with
        the uint8 tableau)."""
        return PackedCosetSupport(self)

    def sample(
        self,
        shots: int,
        rng: RandomState = None,
        qubits: Optional[Sequence[int]] = None,
        *,
        support: Optional["PackedCosetSupport"] = None,
    ) -> np.ndarray:
        """Draw *shots* computational-basis samples without collapsing.

        Identical contract, RNG consumption, and output bits as
        :meth:`Tableau.sample`: the coset walk happens on packed words
        (offset XOR basis-row XORs), and the final word rows unpack to
        the ``(shots, k)`` uint8 bit array in one vectorized pass.
        """
        r = as_rng(rng)
        n = self.num_qubits
        if support is None:
            support = PackedCosetSupport(self)
        c = support.offset_words(self._signs_words())
        k = support.dimension
        shots = int(shots)
        if k == 0:
            # Deterministic outcome — still consume one draw per shot to
            # stay stream-aligned with the dense engine's CDF inversion.
            r.random(shots)
            rows = np.broadcast_to(c, (shots, c.shape[0])).copy()
        else:
            if k <= _EXACT_COSET_BITS:
                # Same index arithmetic as the uint8 path; the explicit
                # clamp it carries is a no-op for u < 1 and k ≤ 48, so
                # outputs are identical without it.
                u = r.random(shots)
                j = (u * float(1 << k)).astype(np.int64)
                lam = ((j[:, None] >> support._lam_shifts[None, :]) & 1).astype(
                    np.uint8
                )
            else:
                lam = (r.random((shots, k)) < 0.5).astype(np.uint8)
            rows = np.broadcast_to(c, (shots, c.shape[0])).copy()
            basis = support.basis_words
            for i in range(k):
                on = lam[:, i].astype(bool)
                if on.any():
                    rows[on] ^= basis[i]
        bits = unpack_bit_matrix(rows, n)
        if qubits is None:
            return bits
        return bits[:, np.asarray(qubits, dtype=np.int64)]

    # -- conversion ------------------------------------------------------------

    def unpack(self) -> Tableau:
        """This state as a uint8 :class:`Tableau` (bit-for-bit equal)."""
        n = self.num_qubits
        xr, zr = self._packed_rows()
        tab = Tableau.__new__(Tableau)
        tab.num_qubits = n
        tab.x = unpack_bit_matrix(xr, n)
        tab.z = unpack_bit_matrix(zr, n)
        tab.r = _bits_of_int(self._r, 2 * n)
        return tab

    def coset_amplitudes(self, support=None) -> Tuple[np.ndarray, np.ndarray]:
        """Sparse amplitude map ``(indices, amplitudes)`` of this state.

        Delegates to the unpacked enumeration (a packed *support* cannot
        seed it and is ignored): the ``O(2^k)`` amplitude walk dwarfs the
        one-off ``O(n²)`` unpack at any width where enumeration is legal
        (≤ 62 qubits), so the adapter keeps hybrid segment execution
        representation-agnostic without a second phase-walk codepath.
        """
        return self.unpack().coset_amplitudes()

    def to_statevector(self):
        """Dense conversion via the unpack adapter (≤ dense limit)."""
        return self.unpack().to_statevector()

    def probabilities(self) -> np.ndarray:
        """Dense ``2^n`` probability vector (validation only, n ≤ 16)."""
        return self.unpack().probabilities()

    def __repr__(self) -> str:
        return f"<PackedTableau {self.num_qubits} qubits>"


class PackedCosetSupport:
    """Word-parallel coset factorization of a packed tableau.

    The same two-stage Gaussian elimination as
    :class:`~repro.simulator.stabilizer.CosetSupport` — X-block reduction
    isolating the Z-only stabilizer subgroup, then the F₂ constraint
    solve — with every row a ``W = ceil(n/64)`` uint64 word vector:
    pivots are found by single-word bit tests, row eliminations are
    word-wide XORs, and the symbolic ``g``-phase bookkeeping runs through
    the popcount kernel (:func:`g4_words`).  Pivot choices follow the
    identical candidate order, so the factorization (and therefore every
    sampled bit) matches the uint8 implementation exactly.

    :meth:`offset_words` resolves the coset representative for a
    concrete packed sign vector in ``O(n²/64)`` word ops — shared, as in
    the unpacked form, by every trajectory that differs only by Pauli
    injections.
    """

    def __init__(self, tableau: PackedTableau) -> None:
        n = tableau.num_qubits
        self.num_qubits = n
        w = words_for(n)
        xr, zr = tableau._packed_rows()
        sx = xr[n:].copy()
        sz = zr[n:].copy()
        hist = pack_bit_matrix(np.eye(n, dtype=np.uint8))
        g4 = np.zeros(n, dtype=np.int64)
        used = np.zeros(n, dtype=bool)
        for col in range(n):
            shift = np.uint64(col & 63)
            colbits = ((sx[:, col >> 6] >> shift) & np.uint64(1)).astype(bool)
            cand = np.nonzero(colbits & ~used)[0]
            if cand.size == 0:
                continue
            p = int(cand[0])
            used[p] = True
            rows = cand[1:]
            if rows.size:
                g = g4_words(sx[p][None, :], sz[p][None, :], sx[rows], sz[rows])
                g4[rows] = (g4[rows] + g4[p] + g) % 4
                hist[rows] ^= hist[p]
                sx[rows] ^= sx[p]
                sz[rows] ^= sz[p]
        zonly = np.nonzero(~used)[0]
        if (g4[zonly] % 2).any():
            raise SimulationError("tableau corrupted: odd phase on Z-only row")
        A = sz[zonly].copy()
        b0 = ((g4[zonly] >> 1) % 2).astype(np.uint8)
        H = hist[zonly].copy()
        m = A.shape[0]
        pivots: List[int] = []
        row = 0
        for col in range(n):
            if row == m:
                break
            shift = np.uint64(col & 63)
            word = col >> 6
            sub = np.nonzero((A[row:, word] >> shift) & np.uint64(1))[0]
            if sub.size == 0:
                continue
            pr = row + int(sub[0])
            if pr != row:
                A[[row, pr]] = A[[pr, row]]
                b0[[row, pr]] = b0[[pr, row]]
                H[[row, pr]] = H[[pr, row]]
            others = np.nonzero((A[:, word] >> shift) & np.uint64(1))[0]
            others = others[others != row]
            if others.size:
                A[others] ^= A[row]
                b0[others] ^= b0[row]
                H[others] ^= H[row]
            pivots.append(col)
            row += 1
        if row != m:
            raise SimulationError("tableau corrupted: dependent stabilizers")
        self._pivot_cols = np.asarray(pivots, dtype=np.int64)
        # One-hot packed row per pivot column: offset() ORs the selected
        # rows in a single ufunc reduce (pivot columns are distinct, so
        # OR and XOR coincide).
        pivot_onehot = np.zeros((m, n), dtype=np.uint8)
        if m:
            pivot_onehot[np.arange(m), self._pivot_cols] = 1
        self._pivot_rows = pack_bit_matrix(pivot_onehot) if m else np.zeros(
            (0, w), dtype=_U64
        )
        self._b0 = b0
        self._b0_bool = b0.astype(bool)
        self._H = H
        free_cols = sorted(set(range(n)) - set(pivots))
        k = len(free_cols)
        # Same reduced descending-pivot basis as the unpacked support:
        # built bit-wise (O(k·n) bytes, once) and packed for the sampler.
        basis_bits = np.zeros((k, n), dtype=np.uint8)
        for j, f in enumerate(reversed(free_cols)):
            basis_bits[j, f] = 1
            if m:
                col_f = (
                    (A[:, f >> 6] >> np.uint64(f & 63)) & np.uint64(1)
                ).astype(np.uint8)
                basis_bits[j, self._pivot_cols] = col_f
        self.basis_words = pack_bit_matrix(basis_bits) if k else np.zeros(
            (0, w), dtype=_U64
        )
        self._basis_pivots = np.asarray(free_cols[::-1], dtype=np.int64)
        self.dimension = k
        # Shift table for the exact-coset index → λ-bit expansion,
        # precomputed once so per-group sampling skips the arange.
        self._lam_shifts = np.arange(k - 1, -1, -1, dtype=np.int64)

    def offset_words(self, signs: np.ndarray) -> np.ndarray:
        """Reduced coset representative for packed stabilizer sign bits
        *signs*, as ``(W,)`` uint64 words (cf. ``CosetSupport.offset``)."""
        if not self._pivot_cols.size:
            return np.zeros(words_for(self.num_qubits), dtype=_U64)
        odd = (_popcount_last_axis(self._H & signs[None, :]) & 1).astype(bool)
        return np.bitwise_or.reduce(
            self._pivot_rows[self._b0_bool ^ odd],
            axis=0,
            initial=np.uint64(0),
        )


def pack_tableau(tableau: Tableau) -> PackedTableau:
    """A :class:`PackedTableau` bit-for-bit equal to the uint8 *tableau*."""
    n = tableau.num_qubits
    packed = PackedTableau.__new__(PackedTableau)
    packed.num_qubits = n
    xcols = np.packbits(
        np.ascontiguousarray(tableau.x.T), axis=1, bitorder="little"
    )
    zcols = np.packbits(
        np.ascontiguousarray(tableau.z.T), axis=1, bitorder="little"
    )
    packed._xc = [int.from_bytes(xcols[q].tobytes(), "little") for q in range(n)]
    packed._zc = [int.from_bytes(zcols[q].tobytes(), "little") for q in range(n)]
    packed._r = _int_from_bits(tableau.r)
    packed._mask = (1 << (2 * n)) - 1
    return packed


__all__ = [
    "PackedTableau",
    "PackedCosetSupport",
    "pack_tableau",
    "g4_words",
    "pack_bit_matrix",
    "unpack_bit_matrix",
    "words_for",
]
