"""Seeded inputs of the benchmark: the n = 4 coupled-oscillator systems and
the perturbed initial conditions of the `trajectories` flows.

Everything here is a pure function of the seed, so the same seed gives the
same problem files and the same initial conditions in every pass.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

N = 4
PERTURBATION = 0.01      # half-width of the uniform initial-condition shift

# Flows of the `trajectories` workload: name, problem file, base initial
# condition ((q..., p...) for hamiltonian kind, (q..., dq...) for lagrangian
# kind; None draws one), horizon, step, and how many perturbed initial
# conditions each pass integrates.  Example 5 leaves the safety box near
# t = 1.5, so every horizon stays at 1.0.  Example 2 is the cheapest flow and
# runs six times, the others three: with 21 operations the median latency
# falls inside one flow's block of latencies, not on the border between two
# flows' blocks, where it would jump from run to run.
FLOWS = (
    ("example2", "example2.json", (0.4, 0.3, 0.2, 0.1), 1.0, 1e-3, 6),
    ("example5", "example5.json", (0.8, 0.4, 0.3, 0.2), 1.0, 1e-3, 3),
    ("example6", "example6.json", (1.1, 0.8, 0.2, 0.1), 1.0, 1e-3, 3),
    ("example7", "example7.json", (0.5, 0.1), 1.0, 1e-3, 3),
    ("hamiltonian4", "hamiltonian4.json", None, 1.0, 1e-3, 3),
    ("lagrangian4", "lagrangian4.json", None, 1.0, 1e-3, 3),
)


def _frac(rng: random.Random, choices) -> Fraction:
    return Fraction(rng.choice(choices))


def _text(c: Fraction) -> str:
    return f"({c.numerator}/{c.denominator})"


def _potential(rng: random.Random) -> str:
    """sum k_i q_i^2/2 + g_i q_i^4/4 + sum_{i<j} c_ij q_i q_j with k_i >= 1 and
    |c_ij| <= 1/8, so the quadratic part is diagonally dominant, hence
    positive definite, and the quartic part keeps the flow bounded."""
    terms = []
    for i in range(1, N + 1):
        k = _frac(rng, ("1", "5/4", "3/2", "2", "5/2"))
        g = _frac(rng, ("1/10", "1/5", "3/10"))
        terms.append(f"{_text(k)}*q{i}^2/2 + {_text(g)}*q{i}^4/4")
    for i in range(1, N + 1):
        for j in range(i + 1, N + 1):
            c = _frac(rng, ("1/16", "-1/16", "1/8", "-1/8"))
            terms.append(f"{_text(c)}*q{i}*q{j}")
    return " + ".join(terms)


def hamiltonian_problem(rng: random.Random) -> dict:
    """H = sum p_i^2/(2 m_i) + sum_{i<j} b_ij p_i p_j + V(q): the kinetic
    matrix has diagonal 1/m_i >= 1/2 and |b_ij| <= 1/16, so it is positive
    definite."""
    kinetic = []
    for i in range(1, N + 1):
        m = _frac(rng, ("1", "5/4", "3/2", "7/4", "2"))
        kinetic.append(f"p{i}^2/(2*{_text(m)})")
    for i in range(1, N + 1):
        for j in range(i + 1, N + 1):
            b = _frac(rng, ("1/32", "-1/32", "1/16", "-1/16"))
            kinetic.append(f"{_text(b)}*p{i}*p{j}")
    zeros = ["0"] * N
    return {"name": "generated-hamiltonian-n4", "kind": "hamiltonian", "n": N,
            "hamiltonian": " + ".join(kinetic) + " + " + _potential(rng),
            "vector_field": {"phi": zeros, "psi": zeros}}


def lagrangian_problem(rng: random.Random) -> dict:
    """L = sum m_i (1 + a_i q_i^2) dq_i^2/2 + sum_{i<j} b_ij dq_i dq_j - V(q):
    the velocity Hessian has diagonal >= m_i >= 1 and |b_ij| <= 1/8, so it is
    positive definite everywhere."""
    kinetic = []
    for i in range(1, N + 1):
        m = _frac(rng, ("1", "5/4", "3/2", "2"))
        a = _frac(rng, ("1/4", "1/2", "3/4"))
        kinetic.append(f"{_text(m)}*(1 + {_text(a)}*q{i}^2)*dq{i}^2/2")
    for i in range(1, N + 1):
        for j in range(i + 1, N + 1):
            b = _frac(rng, ("1/16", "-1/16", "1/8", "-1/8"))
            kinetic.append(f"{_text(b)}*dq{i}*dq{j}")
    return {"name": "generated-lagrangian-n4", "kind": "lagrangian", "n": N,
            "lagrangian": " + ".join(kinetic) + " - (" + _potential(rng) + ")",
            "vector_field": {"phi": ["0"] * N}}


def _initial(rng: random.Random, base, size: int) -> list:
    if base is None:
        return [round(rng.uniform(-0.5, 0.5), 6) for _ in range(size)]
    return [round(v + rng.uniform(-PERTURBATION, PERTURBATION), 9) for v in base]


def write_inputs(seed: int, directory: str) -> None:
    """Write the generated problem files and flows.json into `directory`."""
    rng = random.Random(seed)
    generated = {"hamiltonian4.json": hamiltonian_problem(rng),
                 "lagrangian4.json": lagrangian_problem(rng)}
    for fname, doc in generated.items():
        with open(os.path.join(directory, fname), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
    flows = []
    for name, fname, base, t1, h, copies in FLOWS:
        size = len(base) if base is not None else 2 * N
        for copy in range(copies):
            flows.append({"flow": name, "file": fname, "copy": copy,
                          "initial": _initial(rng, base, size), "t1": t1, "h": h})
    with open(os.path.join(directory, "flows.json"), "w", encoding="utf-8") as fh:
        json.dump({"seed": seed, "flows": flows}, fh, indent=1)
