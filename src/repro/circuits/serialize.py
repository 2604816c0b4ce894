"""JSON-dict circuit serialization.

The REST access path (Section 2.6's asynchronous mode) ships circuits
over the wire; this module defines the canonical payload format.  Only
fully-bound circuits serialize — the remote queue executes concrete jobs,
parameter sweeps are a client-side concern.

The format is versioned so stored job histories (Section 4's dashboards
with "large job histories") survive library upgrades.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict

from repro.circuits.circuit import Instruction, QuantumCircuit
from repro.circuits.parameters import parameter_slots, parameters_of
from repro.errors import CircuitError, SerializationError

FORMAT_VERSION = 1

#: Version tag mixed into :func:`structural_hash` — bump when the
#: encoding changes so stale cross-request plan-cache keys can never
#: alias entries produced by an older layout.
STRUCTURAL_HASH_VERSION = 1


def circuit_to_dict(circuit: QuantumCircuit) -> Dict[str, Any]:
    """Serialize *circuit* to a JSON-compatible dict.

    Raises :class:`SerializationError` when symbolic parameters remain
    unbound.
    """
    ops = []
    for inst in circuit:
        if inst.free_parameters:
            names = sorted(p.name for p in inst.free_parameters)
            raise SerializationError(
                f"cannot serialize unbound parameters {names} in {inst!r}; "
                "bind the circuit first"
            )
        ops.append(
            {
                "name": inst.name,
                "qubits": list(inst.qubits),
                "params": [float(p) for p in inst.params],  # type: ignore[arg-type]
                "clbits": list(inst.clbits),
            }
        )
    return {
        "version": FORMAT_VERSION,
        "name": circuit.name,
        "num_qubits": circuit.num_qubits,
        "num_clbits": circuit.num_clbits,
        "instructions": ops,
        "metadata": dict(circuit.metadata),
    }


def circuit_from_dict(payload: Dict[str, Any]) -> QuantumCircuit:
    """Inverse of :func:`circuit_to_dict`; validates structure and version."""
    try:
        version = payload["version"]
        if version != FORMAT_VERSION:
            raise SerializationError(
                f"unsupported circuit format version {version!r} "
                f"(this build reads version {FORMAT_VERSION})"
            )
        qc = QuantumCircuit(
            int(payload["num_qubits"]),
            int(payload["num_clbits"]),
            str(payload.get("name", "circuit")),
        )
        qc.metadata = dict(payload.get("metadata", {}))
        for op in payload["instructions"]:
            if op["name"] == "barrier":
                qc.barrier(*op["qubits"])
            else:
                qc.append(
                    str(op["name"]),
                    [int(q) for q in op["qubits"]],
                    [float(p) for p in op.get("params", [])],
                    [int(c) for c in op.get("clbits", [])],
                )
        return qc
    except SerializationError:
        raise
    except (KeyError, TypeError, ValueError, IndexError, CircuitError) as exc:
        raise SerializationError(f"malformed circuit payload: {exc}") from exc


def structural_hash(circuit: QuantumCircuit) -> str:
    """SHA-256 hex digest of *circuit*'s structure, parameter values excluded.

    Two circuits share a hash exactly when they have the same qubit/clbit
    counts and the same instruction sequence up to parameter *values*:
    gate names, operand wires, parameter arity, and the wiring of symbolic
    parameters to their slots all participate, but concrete angles do not.
    This is the cross-request plan-cache key (`repro.compiler.plans`): all
    numeric bindings of one parameterized ansatz collapse onto one entry.

    Symbolic parameters are canonicalized to slot ids by first appearance,
    so the hash is independent of `Parameter` identity — rebuilding the
    same ansatz with fresh `Parameter` objects still hits the cache.
    Expressions hash the slots they touch (wiring), not their numeric
    coefficients.

    Each instruction additionally contributes a diagonality bit (from the
    same memoized `Instruction.is_diagonal()` the dense engine's fusion
    scan uses).  Numeric values are masked from the hash, but fusion
    partitions depend on value-edge diagonality (e.g. ``ry(0)`` *is*
    diagonal), so the bit keeps "same hash" implying "same partition":
    value-edge variants simply hash to their own cache entry.

    Unlike :func:`circuit_to_dict` this accepts unbound circuits.
    """
    # Accumulate one string and hash it once: this runs per sampling
    # request (it is the cache key), so per-instruction digest updates
    # would dominate the very cost the plan cache amortizes.
    slots = parameter_slots(inst.params for inst in circuit)
    parts = [
        f"repro.structural/{STRUCTURAL_HASH_VERSION}|"
        f"{circuit.num_qubits}|{circuit.num_clbits}|"
    ]
    append = parts.append
    for inst in circuit:
        # A parameterless instruction's part depends on nothing else, so
        # it is memoized on the (immutable) instruction, which binding
        # shares across every bound circuit of an ansatz.
        part = inst.__dict__.get("_structure")
        if part is None:
            tokens = [inst.name, str(inst.qubits)]
            if inst.clbits:
                tokens.append(f"c{inst.clbits}")
            for value in inst.params:
                free = parameters_of(value)
                if not free:
                    tokens.append("#;")  # numeric value: masked
                else:
                    ids = sorted(slots[p] for p in free)
                    tokens.append("$" + ".".join(map(str, ids)) + ";")
            tokens.append("D|" if inst.is_diagonal() else "-|")
            part = "".join(tokens)
            if not inst.params:
                object.__setattr__(inst, "_structure", part)
        append(part)
    return hashlib.sha256("".join(parts).encode()).hexdigest()


def circuit_to_json(circuit: QuantumCircuit, **json_kwargs: Any) -> str:
    """Serialize to a JSON string (the REST wire format)."""
    return json.dumps(circuit_to_dict(circuit), **json_kwargs)


def circuit_from_json(text: str) -> QuantumCircuit:
    """Parse a circuit from its JSON wire format."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise SerializationError("circuit payload must be a JSON object")
    return circuit_from_dict(payload)


__all__ = [
    "FORMAT_VERSION",
    "STRUCTURAL_HASH_VERSION",
    "circuit_to_dict",
    "circuit_from_dict",
    "circuit_to_json",
    "circuit_from_json",
    "structural_hash",
]
