"""Output checks that gate every benchmark run.

Each check returns ``None`` when the output is acceptable and a one-line
reason otherwise, so the run can count the failing job in
``failed`` and print why.  The bounds are stated here once:

* GHZ health check: counts sum to the shots requested, the population
  of ``0…0`` plus ``1…1`` clears :func:`ghz_population_bound` for the
  job's width, and once the two hold :data:`GHZ_BALANCE_SHOTS` shots
  neither of them is missing.
* Distribution check (random Clifford user jobs): the total variation
  distance (TVD) to ``ideal_probabilities`` of the logical circuit stays
  under the TVD that finite sampling of the ideal distribution alone
  gives at the same shots, plus a device-noise allowance.
* QAOA: the same test, taken over the histogram of cut values (at most
  ``|E| + 1`` bins) instead of over 2**n bitstrings, which a few hundred
  shots cannot resolve.
* VQE: every estimate lies in the Hamiltonian's spectral range widened
  by :data:`VQE_SHOT_SIGMAS` shot-noise standard errors, and a chain's
  final estimate lies within :data:`VQE_FINAL_TOLERANCE` Hartree of
  ``VQE.energy_exact`` at the same parameters.
"""

from __future__ import annotations

import math
from typing import Mapping, Optional, Sequence

import networkx as nx
import numpy as np

from repro.hybrid.qaoa import cut_value

#: Standard errors of shot noise by which a VQE estimate may leave the
#: spectral range before it counts as wrong.
VQE_SHOT_SIGMAS = 6.0
#: Hartree; covers device noise (readout confusion, depolarizing and
#: relaxation errors pull ⟨H⟩ toward the identity offset) plus shot
#: noise.  Over 25 SPSA chains the final estimate sat 0.038 ± 0.030 Ha
#: above the exact value (largest 0.097).
VQE_FINAL_TOLERANCE = 0.25
#: TVD the device's gate, idle and readout noise may add to the
#: cut-value histogram of a routed 10–12-node QAOA job at 384 shots, on
#: top of its sampling TVD: over 54 jobs (6 seeds, 3 rounds each) the
#: excess averaged 0.12 with standard deviation 0.057 (largest 0.26),
#: so this sits five standard deviations above the mean.  The noise
#: pulls the histogram toward that of random assignments, so this
#: bound rejects outputs whose cut histogram is far from the ideal one
#: (a collapsed state, a sign-flipped γ) but cannot tell near-random
#: output from a healthy job at sweep points where the ideal histogram
#: itself is close to random.
QAOA_NOISE_TVD = 0.40
#: Shots in ``0…0`` plus ``1…1`` from which a GHZ job must show both.
#: The share of ``1…1`` between the two was measured at 0.43–0.56 up to
#: 8 qubits and 0.38 at 10–12 (relaxation favours ``0…0``), so a
#: healthy job misses one with probability at most 0.62**24 ≈ 1e-5.
GHZ_BALANCE_SHOTS = 24
#: Multinomial draws of the ideal distribution that set the sampling TVD.
_SAMPLING_DRAWS = 4


def clifford_noise_tvd(width: int) -> float:
    """TVD the device's noise may add for a *width*-qubit, 4-layer random
    Clifford job: ``0.2 + 0.045 * width``.  Over 180 such jobs at 512
    shots the excess over the sampling TVD averaged 0.055 (3q) to 0.16
    (8q) with standard deviations 0.04–0.07; the bound sits about five
    standard deviations above the mean at every width."""
    return 0.2 + 0.045 * width


def _shots_ok(counts: Mapping[str, int], shots: int) -> Optional[str]:
    total = sum(int(v) for v in counts.values())
    if total != shots:
        return f"counts sum to {total}, expected {shots} shots"
    return None


def ghz_population_bound(width: int, shots: int) -> float:
    """Lowest acceptable ``p(0…0) + p(1…1)`` for a *width*-qubit GHZ job:
    the share a uniformly random histogram keeps there (``2 / 2**width``)
    plus one binomial standard error at *shots*.

    The device's own population moves a lot between 32-shot health
    checks (0.25–0.69 at 11 qubits, 0.22–0.44 at 20 within one run,
    with calibration drift), so a bound tied to its typical value would
    fail healthy runs.  Only at two qubits does chance level (0.5) come
    near the device's population (mean 0.90, lowest seen 0.75): one
    standard error keeps a healthy 2-qubit job failing with probability
    about 1e-4 even if its mean drifts to 0.85, where three (bound
    0.765) failed healthy runs.  A uniformly random histogram then
    passes one 2–4-qubit job in five, but each run holds about ten such
    jobs, and from five qubits on the bound rejects it outright.
    """
    chance = 2.0 / 2**width
    return chance + math.sqrt(chance * (1.0 - chance) / shots)


def check_ghz(counts: Mapping[str, int], width: int, shots: int) -> Optional[str]:
    """GHZ health check: shot total, two-outcome population and balance.

    The balance condition rejects a GHZ state that was prepared wrongly
    but still lands on ``0…0``, such as a lost Hadamard (every shot in
    ``0…0``).
    """
    bad = _shots_ok(counts, shots)
    if bad:
        return bad
    if any(len(k) != width for k in counts):
        return f"bitstrings are not {width} bits wide"
    zeros, ones = counts.get("0" * width, 0), counts.get("1" * width, 0)
    population = (zeros + ones) / shots
    bound = ghz_population_bound(width, shots)
    if population < bound:
        return f"GHZ-{width} population {population:.3f} < bound {bound:.3f}"
    if zeros + ones >= GHZ_BALANCE_SHOTS and min(zeros, ones) == 0:
        return f"GHZ-{width} outcomes unbalanced: {zeros} × 0…0, {ones} × 1…1"
    return None


def tvd(counts: Mapping[str, int], ideal: Mapping[str, float]) -> float:
    """Total variation distance between a histogram and a distribution."""
    shots = sum(counts.values())
    keys = set(counts) | set(ideal)
    return 0.5 * sum(abs(counts.get(k, 0) / shots - ideal.get(k, 0.0)) for k in keys)


def sampling_tvd(ideal: Mapping[str, float], shots: int, seed: Sequence[int]) -> float:
    """Mean TVD of ``shots``-shot multinomial samples of *ideal* itself:
    the distance finite sampling alone produces, with no device error."""
    return _sampling_tvd(np.array(list(ideal.values()), dtype=float), shots, seed)


def _sampling_tvd(probs: np.ndarray, shots: int, seed: Sequence[int]) -> float:
    probs = probs / probs.sum()
    rng = np.random.default_rng(list(seed))
    draws = rng.multinomial(shots, probs, size=_SAMPLING_DRAWS) / shots
    return float(0.5 * np.abs(draws - probs).sum(axis=1).mean())


def check_distribution(
    counts: Mapping[str, int],
    ideal: Mapping[str, float],
    shots: int,
    allowance: float,
    seed: Sequence[int],
) -> Optional[str]:
    """Shot total, then TVD to the ideal distribution under its bound."""
    bad = _shots_ok(counts, shots)
    if bad:
        return bad
    width = len(next(iter(ideal)))
    if any(len(k) != width for k in counts):
        return f"bitstrings are not {width} bits wide"
    distance = tvd(counts, ideal)
    bound = sampling_tvd(ideal, shots, seed) + allowance
    if distance > bound:
        return f"TVD {distance:.3f} to ideal > bound {bound:.3f}"
    return None


def cut_histogram(graph: nx.Graph, weights: Mapping[str, float]) -> np.ndarray:
    """Share of *weights* (counts or probabilities over bitstrings) at
    each cut value ``0 … |E|`` of *graph*."""
    hist = np.zeros(graph.number_of_edges() + 1)
    for bits, weight in weights.items():
        hist[cut_value(graph, bits)] += weight
    return hist / hist.sum()


def check_qaoa(
    counts: Mapping[str, int],
    ideal: Mapping[str, float],
    graph: nx.Graph,
    shots: int,
    seed: Sequence[int],
) -> Optional[str]:
    """Shot total, then the TVD between the cut-value histograms of the
    counts and of the ideal distribution under its sampling TVD plus
    :data:`QAOA_NOISE_TVD`."""
    bad = _shots_ok(counts, shots)
    if bad:
        return bad
    width = graph.number_of_nodes()
    if any(len(k) != width for k in counts):
        return f"bitstrings are not {width} bits wide"
    expected = cut_histogram(graph, ideal)
    distance = 0.5 * float(np.abs(cut_histogram(graph, counts) - expected).sum())
    bound = _sampling_tvd(expected, shots, seed) + QAOA_NOISE_TVD
    if distance > bound:
        return f"cut-value TVD {distance:.3f} to ideal > bound {bound:.3f}"
    return None


def vqe_estimate_range(
    spectrum_min: float, spectrum_max: float, coefficients: Sequence[float], shots: int
) -> tuple:
    """Spectral range widened by :data:`VQE_SHOT_SIGMAS` standard errors.

    Each non-identity term is estimated from ``shots`` ±1 outcomes, so
    its standard error is at most ``1/sqrt(shots)``; the terms'
    errors add in quadrature at worst with their coefficients.
    """
    sigma = math.sqrt(sum(c * c for c in coefficients)) / math.sqrt(shots)
    margin = VQE_SHOT_SIGMAS * sigma
    return spectrum_min - margin, spectrum_max + margin


def check_vqe_estimate(value: float, bounds: tuple) -> Optional[str]:
    lo, hi = bounds
    if not (lo <= value <= hi) or math.isnan(value):
        return f"VQE estimate {value:.4f} outside [{lo:.4f}, {hi:.4f}]"
    return None


def check_vqe_final(sampled: float, exact: float) -> Optional[str]:
    if not abs(sampled - exact) <= VQE_FINAL_TOLERANCE:
        return (
            f"final VQE estimate {sampled:.4f} is more than "
            f"{VQE_FINAL_TOLERANCE} Ha from the exact {exact:.4f}"
        )
    return None
