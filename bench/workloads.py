"""The benchmark's three sweep workloads and the problem each one solves.

A workload is a fixed sweep plan; the seed only picks the cross-section
forcing, so the dofs, the matrix and the reference decay rate are the same
for every seed.  Seed 0 runs the builtin forcings exactly.  For the Poisson
problems any other seed draws the forcing from the first few odd
cross-sectional sine modes, with the first-mode amplitude kept in [0.5, 1.5];
odd modes are symmetric about the middle of the cross-section, like the
builtin forcings.  For the biharmonic strip a seed only scales the builtin
forcing: see `forcing_text`.
"""

import cmath
import math
import random
from dataclasses import dataclass

# cylasym is imported lazily: the parent benchmark process never needs it,
# and a child times its own import as part of set-up.


def papkovich_fadle_rate() -> float:
    """Real part of the first root of sin(z) + z = 0 in the right half-plane.

    That root is twice the first Papkovich-Fadle root of sin(2w) + 2w = 0; it
    is the decay rate of symmetric biharmonic disturbances in a strip of
    width 1 with clamped edges.
    """
    z = complex(4.2, 2.25)
    for _ in range(50):
        step = (cmath.sin(z) + z) / (cmath.cos(z) + 1.0)
        z -= step
        if abs(step) < 1e-15:
            break
    return z.real


@dataclass(frozen=True)
class Workload:
    name: str  # BENCHMARK.json and bench/README.md say why each was chosen
    problem: str  # builtin name, or "box3d" for the 3-D Poisson box
    resolution: int  # cells per unit length
    ells: tuple
    workers: int
    ref_rate: float  # exact decay rate of err_Hm in ell


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="strip-fine",
            problem="poisson_strip",
            resolution=128,
            ells=(2.0, 4.0, 8.0),
            workers=1,
            ref_rate=math.pi,
        ),
        Workload(
            name="biharmonic-pool",
            problem="biharmonic_strip",
            resolution=32,
            ells=(2.0, 4.0, 8.0, 16.0),
            workers=2,
            ref_rate=papkovich_fadle_rate(),
        ),
        Workload(
            name="box3d",
            problem="box3d",
            resolution=12,
            ells=(2.0, 4.0, 8.0),
            workers=1,
            ref_rate=math.pi * math.sqrt(2.0),
        ),
    )
}

# Runnable, but not listed in BENCHMARK.json: kept for the ROADMAP item-1
# reference point.  Its 15-23 s sweeps make ten runs span several minutes,
# and on the 2-vCPU VM it was tuned on the machine's speed drifted by 40%
# over minutes, so its spread over ten seeds went past the 0.25 bound.
BY_HAND = ("strip-fine",)

_PI = repr(math.pi)
_STRIP_MODES = (1, 3, 5)
_BOX_MODES = ((1, 1), (1, 3), (3, 1), (3, 3))


def _amplitudes(seed: int, count: int) -> list:
    rng = random.Random(seed)
    first = round(rng.uniform(0.5, 1.5), 4)
    return [first] + [round(rng.uniform(-0.5, 0.5), 4) for _ in range(count - 1)]


def forcing_text(problem: str, seed: int) -> str | None:
    """Forcing expression for a seed; None keeps the builtin forcing (seed 0)."""
    if problem == "box3d":
        if seed == 0:
            return f"sin({_PI} * x2) * sin({_PI} * x3)"
        amps = _amplitudes(seed, len(_BOX_MODES))
        return " + ".join(
            f"{a!r} * sin({j} * {_PI} * x2) * sin({k} * {_PI} * x3)"
            for a, (j, k) in zip(amps, _BOX_MODES)
        )
    if seed == 0:
        return None
    if problem == "biharmonic_strip":
        # The clamped cross-section's modes are not sines, so any change in
        # the forcing's shape re-weights the Papkovich-Fadle modes, and at
        # l = 2 the second one still moves the l = 2..4 slope: the rate gap
        # is 1.9e-4 for f = 1 and 5.1e-4 for f = sin(pi x2), and odd-mode
        # draws spread it by more than 50% across seeds.  Scaling keeps it.
        return repr(_amplitudes(seed, 1)[0])
    amps = _amplitudes(seed, len(_STRIP_MODES))
    return " + ".join(f"{a!r} * sin({k} * {_PI} * x2)" for a, k in zip(amps, _STRIP_MODES))


def problem_spec(problem: str, seed: int):
    """The ProblemSpec a workload solves for a seed."""
    import dataclasses

    from cylasym.problem import ProblemSpec, ScalarField, builtin_problem

    f = forcing_text(problem, seed)
    if problem == "box3d":
        one = ScalarField.parse("1", 3)
        axes = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        return ProblemSpec(
            m=1, n=3, p=1, omega=((0.0, 1.0), (0.0, 1.0)),
            coefficients={(a, a): one for a in axes},
            forcing=ScalarField.parse(f, 3),
            lambda_hint=1.0,
            name="box3d",
        )
    spec = builtin_problem(problem)
    if f is None:
        return spec
    return dataclasses.replace(spec, forcing=ScalarField.parse(f, spec.n))
