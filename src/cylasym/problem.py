"""Problem data model: coefficients, forcing, structural hypotheses.

A problem of order 2m lives on the cylinder (-l, l)^p x omega in R^n, with
the bilinear form

    a(u, v) = integral of sum_{|alpha|,|beta| <= m}
              a_{alpha beta}(x) D^alpha u D^beta v dx

and homogeneous Dirichlet data of order m.  The limit problem on the
cross-section omega keeps only the coefficient pairs whose indices both
differentiate cross-sectional coordinates.

The structural hypotheses behind the cylinder-to-cross-section convergence
are checked in validate_hypotheses: the forcing and every coefficient
a_{alpha beta} with alpha cross-sectional must not read the axial
coordinates (decided exactly from the expression), and the principal symbol,
sampled at seeded points, must be positive on the unit sphere.  The symbol's
minimum is taken over one chunk of samples at a time, so the check runs in
bounded memory whatever the sample count.
"""

import configparser
import hashlib
import io
import math
import random
from dataclasses import dataclass, field

import numpy as np

from . import multiindex as mi
from .expr import (
    ExpressionError,
    evaluate,
    format_number,
    free_variables,
    parse_expression,
    to_string,
)

# axial coordinates are probed in this box when sampling for validation
_AXIAL_PROBE_HALFWIDTH = 16.0
# the principal symbol is minimized over at most this many bytes of samples
# x directions at a time (one sample at least)
_SYMBOL_CHUNK_BYTES = 128 * 2**10


class ProblemConfigError(ValueError):
    """Malformed problem definition (config text or constructor arguments)."""


@dataclass(frozen=True)
class ScalarField:
    """An expression of the coordinates x1..xn, evaluated with numpy."""

    expr: object
    n: int

    def __post_init__(self):
        bad = [k for k in free_variables(self.expr) if k > self.n]
        if bad:
            raise ProblemConfigError(
                f"expression reads x{max(bad)} but only {self.n} coordinates exist"
            )

    @classmethod
    def parse(cls, text: str, n: int) -> "ScalarField":
        return cls(parse_expression(text), n)

    def __call__(self, coords):
        """coords: sequence of n arrays/scalars of a common broadcast shape.

        Constant expressions return a scalar; callers broadcast as needed.
        """
        if len(coords) != self.n:
            raise ValueError(f"expected {self.n} coordinate arrays, got {len(coords)}")
        return np.asarray(evaluate(self.expr, coords), dtype=np.float64)

    def text(self) -> str:
        return to_string(self.expr)

    def reads_axial(self, p: int) -> bool:
        return any(k <= p for k in free_variables(self.expr))

    def reads(self, k: int) -> bool:
        """True when the expression reads x_k (k counted from 1)."""
        return k in free_variables(self.expr)


@dataclass(frozen=True, eq=True)
class ProblemSpec:
    """Immutable description of one cylinder problem family."""

    m: int
    n: int
    p: int
    omega: tuple  # one (lo, hi) pair per cross-sectional axis
    coefficients: dict  # (alpha, beta) -> ScalarField
    forcing: ScalarField
    lambda_hint: float | None = None
    name: str | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.m < 1:
            raise ProblemConfigError(f"m must be >= 1, got {self.m}")
        if self.p < 1 or self.n - self.p < 1:
            raise ProblemConfigError(
                f"need 1 <= p < n for a cylinder, got p={self.p}, n={self.n}"
            )
        if len(self.omega) != self.n - self.p:
            raise ProblemConfigError(
                f"omega needs {self.n - self.p} extent pairs, got {len(self.omega)}"
            )
        for lo, hi in self.omega:
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ProblemConfigError(f"bad omega extent ({lo}, {hi})")
        if self.lambda_hint is not None and not 0.0 < self.lambda_hint < math.inf:
            raise ProblemConfigError(
                f"lambda_hint must be finite and positive, got {self.lambda_hint}"
            )
        if not self.coefficients:
            raise ProblemConfigError("coefficient map is empty")
        for alpha, beta in self.coefficients:
            for idx in (alpha, beta):
                if len(idx) != self.n or any(a < 0 for a in idx):
                    raise ProblemConfigError(f"bad multi-index {idx} for n={self.n}")
                if mi.order(idx) > self.m:
                    raise ProblemConfigError(
                        f"index {idx} has order {mi.order(idx)} > m={self.m}"
                    )
        if not self.principal_pairs():
            raise ProblemConfigError("no principal coefficients (|alpha| = |beta| = m)")

    # ---- structure queries ------------------------------------------------

    def principal_pairs(self) -> list:
        return [
            key
            for key in sorted(self.coefficients)
            if mi.order(key[0]) == self.m and mi.order(key[1]) == self.m
        ]

    def limit_pairs(self) -> list:
        """Coefficient pairs that survive on the cross-section."""
        return [
            (alpha, beta)
            for alpha, beta in sorted(self.coefficients)
            if mi.in_N2(alpha, self.p) and mi.in_N2(beta, self.p)
        ]

    @property
    def symmetric(self) -> bool:
        """Structural symmetry: a_{alpha beta} and a_{beta alpha} share one AST."""
        for (alpha, beta), f in self.coefficients.items():
            g = self.coefficients.get((beta, alpha))
            if g is None or g.expr != f.expr:
                return False
        return True

    def config_hash(self) -> str:
        return hashlib.sha256(to_config_text(self).encode()).hexdigest()


# --------------------------------------------------------------- builtins


def _parse_coeffs(n, table):
    return {key: ScalarField.parse(text, n) for key, text in table.items()}


def builtin_problem(name: str) -> ProblemSpec:
    """Construct one of the stock strip problems by name."""
    pi_text = repr(math.pi)
    if name == "poisson_strip":
        return ProblemSpec(
            m=1, n=2, p=1, omega=((0.0, 1.0),),
            coefficients=_parse_coeffs(2, {
                ((1, 0), (1, 0)): "1",
                ((0, 1), (0, 1)): "1",
            }),
            forcing=ScalarField.parse("1", 2),
            lambda_hint=1.0,
            name=name,
        )
    if name == "biharmonic_strip":
        return ProblemSpec(
            m=2, n=2, p=1, omega=((0.0, 1.0),),
            coefficients=_parse_coeffs(2, {
                ((2, 0), (2, 0)): "1",
                ((0, 2), (0, 2)): "1",
                ((2, 0), (0, 2)): "1",
                ((0, 2), (2, 0)): "1",
            }),
            forcing=ScalarField.parse("1", 2),
            lambda_hint=1.0,
            name=name,
        )
    if name == "varcoef_strip":
        return ProblemSpec(
            m=1, n=2, p=1, omega=((0.0, 1.0),),
            coefficients=_parse_coeffs(2, {
                ((1, 0), (1, 0)): "1 + x2^2 / 2",
                ((0, 1), (0, 1)): "1 + x2^2 / 2",
            }),
            forcing=ScalarField.parse(f"sin({pi_text} * x2)", 2),
            lambda_hint=1.0,
            name=name,
        )
    raise ProblemConfigError(
        f"unknown builtin {name!r}; available: {', '.join(builtin_names())}"
    )


def builtin_names() -> tuple:
    return ("poisson_strip", "biharmonic_strip", "varcoef_strip")


def analytic_limit(name: str):
    """Closed-form cross-section solution for builtins that have one.

    Returns f(t, order) vectorized over t, or None.  Both stock strips have
    polynomial limit solutions: -u'' = 1 and u'''' = 1 on (0, 1) with
    Dirichlet data of order m.
    """
    if name == "poisson_strip":
        def u(t, order=0):
            t = np.asarray(t, dtype=np.float64)
            if order == 0:
                return t * (1.0 - t) / 2.0
            if order == 1:
                return (1.0 - 2.0 * t) / 2.0
            if order == 2:
                return np.full_like(t, -1.0)
            return np.zeros_like(t)
        return u
    if name == "biharmonic_strip":
        def u(t, order=0):
            t = np.asarray(t, dtype=np.float64)
            if order == 0:
                return t**2 * (1.0 - t) ** 2 / 24.0
            if order == 1:
                return (t - 3.0 * t**2 + 2.0 * t**3) / 12.0
            if order == 2:
                return (1.0 - 6.0 * t + 6.0 * t**2) / 12.0
            if order == 3:
                return (12.0 * t - 6.0) / 12.0
            if order == 4:
                return np.ones_like(t)
            return np.zeros_like(t)
        return u
    return None


# ------------------------------------------------------------ config text


_PROBLEM_KEYS = {"m", "n", "p", "omega", "lambda_hint"}


def parse_problem_config(text: str, name: str | None = None) -> ProblemSpec:
    cp = configparser.ConfigParser(
        delimiters=("=",), strict=True, interpolation=None
    )
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as e:
        raise ProblemConfigError(f"config parse failure: {e}") from None

    for section in cp.sections():
        if section not in ("problem", "coef", "forcing"):
            raise ProblemConfigError(f"unknown section [{section}]")
    for section in ("problem", "coef", "forcing"):
        if not cp.has_section(section):
            raise ProblemConfigError(f"missing section [{section}]")

    prob = dict(cp.items("problem"))
    for key in prob:
        if key not in _PROBLEM_KEYS:
            raise ProblemConfigError(f"unknown key {key!r} in [problem]")
    try:
        m = int(prob["m"])
        n = int(prob["n"])
        p = int(prob["p"])
    except KeyError as e:
        raise ProblemConfigError(f"missing key {e.args[0]!r} in [problem]") from None
    except ValueError as e:
        raise ProblemConfigError(f"bad integer in [problem]: {e}") from None

    omega = _parse_omega(prob.get("omega"), n - p)
    lam = None
    if "lambda_hint" in prob:
        try:
            lam = float(prob["lambda_hint"])
        except ValueError:
            raise ProblemConfigError("lambda_hint must be a float") from None

    coefficients = {}
    for key, value in cp.items("coef"):
        if not key.startswith("a_"):
            raise ProblemConfigError(f"unknown key {key!r} in [coef]")
        digits = key[2:]
        try:
            both = mi.decode(digits, n=2 * n)
        except ValueError:
            raise ProblemConfigError(
                f"coefficient key {key!r} must encode 2n={2 * n} indices"
            ) from None
        alpha, beta = both[:n], both[n:]
        try:
            coefficients[(alpha, beta)] = ScalarField.parse(value, n)
        except ExpressionError as e:
            raise ProblemConfigError(f"in [coef] {key}: {e}") from None

    forcing_items = dict(cp.items("forcing"))
    for key in forcing_items:
        if key != "f":
            raise ProblemConfigError(f"unknown key {key!r} in [forcing]")
    if "f" not in forcing_items:
        raise ProblemConfigError("missing key 'f' in [forcing]")
    try:
        forcing = ScalarField.parse(forcing_items["f"], n)
    except ExpressionError as e:
        raise ProblemConfigError(f"in [forcing] f: {e}") from None

    return ProblemSpec(
        m=m, n=n, p=p, omega=omega, coefficients=coefficients,
        forcing=forcing, lambda_hint=lam, name=name,
    )


def load_problem(path) -> ProblemSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_problem_config(fh.read(), name=str(path))


def _parse_omega(text, n_cross):
    if text is None:
        raise ProblemConfigError("missing key 'omega' in [problem]")
    pairs = []
    for chunk in text.split(";"):
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ProblemConfigError(f"omega chunk {chunk!r} is not 'lo,hi'")
        try:
            lo, hi = float(parts[0]), float(parts[1])
        except ValueError:
            raise ProblemConfigError(f"bad float in omega chunk {chunk!r}") from None
        pairs.append((lo, hi))
    if len(pairs) != n_cross:
        raise ProblemConfigError(
            f"omega has {len(pairs)} extent pairs, cross-section needs {n_cross}"
        )
    return tuple(pairs)


def to_config_text(spec: ProblemSpec) -> str:
    """Canonical round-trippable serialization (also the hash preimage)."""
    out = io.StringIO()
    out.write("[problem]\n")
    out.write(f"m = {spec.m}\nn = {spec.n}\np = {spec.p}\n")
    omega = "; ".join(f"{format_number(lo)},{format_number(hi)}" for lo, hi in spec.omega)
    out.write(f"omega = {omega}\n")
    if spec.lambda_hint is not None:
        out.write(f"lambda_hint = {format_number(spec.lambda_hint)}\n")
    out.write("\n[coef]\n")
    for alpha, beta in sorted(spec.coefficients):
        key = "a_" + mi.encode(alpha + beta)
        out.write(f"{key} = {spec.coefficients[(alpha, beta)].text()}\n")
    out.write("\n[forcing]\n")
    out.write(f"f = {spec.forcing.text()}\n")
    return out.getvalue()


# ------------------------------------------------------- hypothesis checks


@dataclass
class HypothesisReport:
    """Outcome of the structural checks."""

    x1_independent: dict  # field label -> bool
    lambda_hat: float
    ellipticity_ok: bool
    sup_norms: dict  # field label -> float
    sample_count: int
    seed: int
    warnings: list

    @property
    def passed(self) -> bool:
        return self.ellipticity_ok and all(self.x1_independent.values())

    def summary_lines(self) -> list:
        lines = []
        for label, ok in sorted(self.x1_independent.items()):
            lines.append(f"x1-independence {label}: {'ok' if ok else 'FAIL'}")
        lines.append(
            f"ellipticity lambda_hat = {self.lambda_hat:.6g}: "
            f"{'ok' if self.ellipticity_ok else 'FAIL'}"
        )
        for label, s in sorted(self.sup_norms.items()):
            lines.append(f"sup |{label}| ~ {s:.6g}")
        lines.extend(self.warnings)
        return lines


def _unit_directions(rng, n, dense=720):
    """Probe directions on the unit sphere: dense circle for n = 2, else mixed,
    drawn from rng, a random.Random."""
    if n == 2:
        theta = np.linspace(0.0, 2.0 * np.pi, dense, endpoint=False)
        return np.column_stack([np.cos(theta), np.sin(theta)])
    pts = np.array([[rng.gauss(0.0, 1.0) for _ in range(n)] for _ in range(dense)])
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    axes = np.eye(n)
    return np.vstack([pts, axes, -axes])


def _check_finite(label, values):
    if not np.all(np.isfinite(values)):
        raise ProblemConfigError(f"field {label} evaluated to a non-finite value")


def validate_hypotheses(spec: ProblemSpec, sample_count: int = 256, seed: int = 0) -> HypothesisReport:
    """Check the structural hypotheses.

    (a) the forcing and every coefficient a_{alpha beta} with alpha
        cross-sectional read none of the axial variables x1..xp, decided
        exactly from the expression (ScalarField.reads_axial), the same
        test assembly uses to split the cylinder matrix;
    (b) the principal symbol sum a_{alpha beta}(x) xi^{alpha+beta} over
        |alpha| = |beta| = m is positive, minimized over sampled x and a
        dense set of unit directions xi, in bounded memory: one chunk of
        samples (at most _SYMBOL_CHUNK_BYTES of symbol values) at a time,
        never the whole (samples x directions) array;
    (c) every field stays finite on the samples (violations raise).

    Failures of (a) or (b) are reported, not raised, so the caller can map
    them to a dedicated exit code.
    """
    if sample_count < 2:
        raise ValueError("sample_count must be at least 2")
    # the stdlib generator, so that validation loads no numpy.random; the
    # draw order (cross-section, then axial) fixes the seeded samples
    rng = random.Random(seed)

    def draws(lo, hi):
        return np.array([rng.uniform(lo, hi) for _ in range(sample_count)])

    cross = [draws(lo, hi) for lo, hi in spec.omega]
    axial = [draws(-_AXIAL_PROBE_HALFWIDTH, _AXIAL_PROBE_HALFWIDTH) for _ in range(spec.p)]
    coords = tuple(axial + cross)

    x1_flags = {"f": not spec.forcing.reads_axial(spec.p)}
    sup_norms = {}
    for (alpha, beta), fld in sorted(spec.coefficients.items()):
        label = "a_" + mi.encode(alpha + beta)
        vals = fld(coords)
        _check_finite(label, vals)
        sup_norms[label] = float(np.max(np.abs(vals)))
        if mi.in_N2(alpha, spec.p):
            x1_flags[label] = not fld.reads_axial(spec.p)

    fvals = spec.forcing(coords)
    _check_finite("f", fvals)
    sup_norms["f"] = float(np.max(np.abs(fvals)))

    # principal symbol on sampled x and unit directions, summed pair by pair
    # on one chunk of samples at a time; min is exact, so the chunks' least
    # minimum is that of the whole (samples x directions) array
    xi = _unit_directions(rng, spec.n)
    terms = []
    for alpha, beta in spec.principal_pairs():
        vals = np.broadcast_to(
            np.asarray(spec.coefficients[(alpha, beta)](coords)), (sample_count,)
        )
        gamma = mi.add(alpha, beta)
        terms.append((vals, np.prod(xi ** np.asarray(gamma, dtype=np.float64), axis=1)))
    rows = max(1, _SYMBOL_CHUNK_BYTES // (8 * xi.shape[0]))
    lambda_hat = math.inf
    for lo in range(0, sample_count, rows):
        chunk = np.zeros((min(rows, sample_count - lo), xi.shape[0]))
        for vals, xipow in terms:
            chunk += np.outer(vals[lo : lo + rows], xipow)
        lambda_hat = min(lambda_hat, float(chunk.min()))
    ellipticity_ok = lambda_hat > 0.0

    warnings = []
    if spec.lambda_hint is not None and ellipticity_ok and lambda_hat < 0.5 * spec.lambda_hint:
        warnings.append(
            f"lambda_hat {lambda_hat:.3g} is well below the declared hint {spec.lambda_hint:.3g}"
        )

    return HypothesisReport(
        x1_independent=x1_flags,
        lambda_hat=lambda_hat,
        ellipticity_ok=ellipticity_ok,
        sup_norms=sup_norms,
        sample_count=sample_count,
        seed=seed,
        warnings=warnings,
    )
