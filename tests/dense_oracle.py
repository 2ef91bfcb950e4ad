"""Dense and evaluator views of the package's objects, built only by the tests.

assemble_cylinder and assemble_limit take a CrossSection, which a sweep
builds once; assembled_cylinder and assembled_limit here build a new one
for a test that assembles a single system.

The package evaluates fields cell by cell and never forms a (points x dim)
basis matrix; the oracles here do, from the same local de Boor values, so a
test can compare a contraction against a plain matrix product.  Likewise
the package integrates the H^m norms of spline fields as Kronecker
quadratic forms, and represents u_l - ext(u_inf) once, as one spline field
(analysis.difference_field).  The evaluators here build the same functions
the other way, from values on a grid: ExtensionEvaluator extends a
cross-section field constantly along the axial axes, DifferenceEvaluator
subtracts two evaluators, and ProductEvaluator gives the grid integrator
analysis.norm_Hm the Leibniz product of a field and a cutoff.  A test
compares the two representations.

The package writes its CSR matrix from the same slot walk
(assembly._band_entries) that writes its LAPACK bands.  oracle_csr here
builds it without that walk: the full band summed from the system's pieces,
then _to_csr.  Either is the matrix the kernel assembled, for a symmetric
problem too, which is symmetric only up to rounding.

Every band the package builds is zero outside its space, so
assembly.band_apply reads it as it is.  band_apply_per_call here masks the
band, or forms its transpose (transposed_band), on every call, and pads X
with numpy.pad; kron_parts_per_alpha applies every band of every alpha,
where the package shares the applications of a common prefix.

The package solves a cylinder system that commutes with reflections on its
parity blocks (AssembledSystem.parity_blocks): the axial bands folded once
along every axial axis of an even section, the cross-section bands along
each parity axis, in band layout.  even_extension and odd_extension here
are the dense P of one axis's fold and parity_extension that of a block, so
a test can form P^T A P by matrix products; full_path_solve solves the whole
system by the structure's own kernel, as the package did before any fold,
fold_path_solve by the two folds chained, as it did before they became one
(the whole system folded on its axial axes first, then that half split
into parity blocks), and inverse_inf_norm gives |A^-1|_inf for a
forward-error bound.

A cylinder system of a section with an eigenbasis is solved by fast
diagonalization of the pencil CrossSection.pencil gives for its even half,
its one parity block.  kronecker_pencil gives a two-part system's axial
blocks and dense cross-section blocks, so a test can rebuild the matrix
from them, and unfolded_pencil the pencil of the whole system, folded
along no axis, which full_path_solve reads.

problem.validate_hypotheses minimizes the principal symbol one chunk of
samples at a time, and draws the n >= 3 directions' normals in one flat
comprehension; principal_symbol_min here builds the whole (samples x
directions) array from the same seeded draws, the normals drawn row by row,
and takes its minimum, as the package did before the chunks.

analysis.CutoffRho builds its bridge on plain coefficient arrays and
evaluates it with np.polyval; polynomial_cutoff_profile here builds the
same bridge with numpy.polynomial.Polynomial, so a test can compare them.
cutoff_derivative_bound samples a derivative's largest magnitude, and
CutoffEvaluator is the evaluator of a product of such bumps, one window
per axis.

The sweep reports interior convergence by lattice differences
(fdcalc.interior_derivative_error).  galerkin_interior_residual here is the
other interior measure the acceptance tests read: how far the discrete pair
is from the continuous interior identity, tested against CutoffEvaluator
bumps, which lie outside the trial space.
"""

import itertools
import random
from dataclasses import replace
from unittest import mock

import numpy as np
import scipy.sparse as sp
from numpy.lib.stride_tricks import sliding_window_view
from numpy.polynomial import Polynomial

from cylasym import assembly, linalg
from cylasym.analysis import _EPS, CutoffRho, _gauss_grid, difference_field
from cylasym.assembly import (
    CrossSection,
    _dense,
    _folded_band,
    _lower_of_band,
    _top_first,
    _folded_rows,
    _unfolded_rows,
    _where,
    assemble_cylinder,
    assemble_limit,
)
from cylasym.multiindex import add, enumerate_upto
from cylasym.problem import _AXIAL_PROBE_HALFWIDTH, _unit_directions
from cylasym.splines import NORM_POINTS_PER_CELL, axis_grams

from lattice_identities import multi_binom, sub, sub_indices


def assembled_cylinder(spec, ell, resolution: int, degree=None):
    """assemble_cylinder at ell on a new CrossSection of (spec, resolution,
    degree), for a test that assembles one system."""
    return assemble_cylinder(CrossSection(spec, resolution, degree), ell=ell)


def assembled_limit(spec, resolution: int, degree=None):
    """assemble_limit on a new CrossSection of (spec, resolution, degree)."""
    return assemble_limit(CrossSection(spec, resolution, degree))


def full_band(system):
    """The band of an AssembledSystem, every slot tuple in every row summed
    from its Kronecker parts in the package's order: zero, then each part,
    split where its leading band's axes end."""
    n, band = len(system._dims), 0.0
    for A, C in system.kron_parts:
        k = A.ndim // 2
        # (leading rows, leading slots, trailing rows, trailing slots) to band layout
        product = np.multiply.outer(A, C)
        band = band + np.moveaxis(product, range(k, 2 * k), range(n, n + k))
    return band


def principal_symbol_min(spec, sample_count: int = 256, seed: int = 0) -> float:
    """The least principal symbol sum a_{alpha beta}(x) xi^{alpha+beta} over
    validate_hypotheses' seeded samples x and unit directions xi, from the
    one (samples x directions) array: zero, plus each principal pair's outer
    product in pair order."""
    rng = random.Random(seed)

    def draws(lo, hi):
        return np.array([rng.uniform(lo, hi) for _ in range(sample_count)])

    cross = [draws(lo, hi) for lo, hi in spec.omega]
    axial = [draws(-_AXIAL_PROBE_HALFWIDTH, _AXIAL_PROBE_HALFWIDTH) for _ in range(spec.p)]
    coords = tuple(axial + cross)
    if spec.n == 2:
        xi = _unit_directions(rng, 2)
    else:  # one normal vector per direction, drawn row by row
        pts = np.array([[rng.gauss(0.0, 1.0) for _ in range(spec.n)] for _ in range(720)])
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        xi = np.vstack([pts, np.eye(spec.n), -np.eye(spec.n)])
    symbol = np.zeros((sample_count, xi.shape[0]))
    for alpha, beta in spec.principal_pairs():
        vals = np.broadcast_to(
            np.asarray(spec.coefficients[(alpha, beta)](coords)), (sample_count,)
        )
        xipow = np.prod(xi ** np.asarray(add(alpha, beta), dtype=np.float64), axis=1)
        symbol += np.outer(vals, xipow)
    return float(symbol.min())


def polynomial_cutoff_profile(m: int, t, der: int = 0):
    """CutoffRho(m).profile(t, der), its bridge a Polynomial: the integral of
    (s(1-s))^m normalized to 1 at s = 1, and its derivatives."""
    kernel = Polynomial([0.0, 1.0]) ** m * Polynomial([1.0, -1.0]) ** m
    s_poly = kernel.integ()
    bridge = [s_poly / s_poly(1.0)]
    for _ in range(2 * m + 1):
        bridge.append(bridge[-1].deriv())
    t = np.asarray(t, dtype=np.float64)
    if der >= len(bridge):
        return np.zeros_like(t)
    a = np.abs(t)
    out = np.zeros_like(a)
    if der == 0:
        out[a <= 0.5] = 1.0
    on = (a > 0.5) & (a < 1.0)
    vals = -bridge[der](2.0 * a[on] - 1.0) * 2.0**der
    if der % 2 == 1:
        vals = vals * np.sign(t[on])
    out[on] = 1.0 + vals if der == 0 else vals
    return out


def _to_csr(band):
    """CSR matrix of a band, columns ascending in every row; slots whose
    column falls outside the space are dropped."""
    n = band.ndim // 2
    keep = np.ones((1,) * (2 * n), dtype=bool)
    offset = np.zeros((), dtype=np.int32)  # column minus row, per slot tuple
    row_nnz = np.ones((), dtype=np.int64)
    for k, (dim, width) in enumerate(zip(band.shape[:n], band.shape[n:])):
        shift = np.arange(width, dtype=np.int32) - width // 2
        col = np.add.outer(np.arange(dim, dtype=np.int32), shift)
        inside = (col >= 0) & (col < dim)
        shape = [1] * (2 * n)
        shape[k], shape[n + k] = dim, width
        keep = keep & inside.reshape(shape)
        offset = np.add.outer(offset * dim, shift)
        row_nnz = np.multiply.outer(row_nnz, inside.sum(axis=1))
    cols = np.add.outer(np.arange(row_nnz.size, dtype=np.int32), offset.ravel())
    indptr = np.concatenate([[0], np.cumsum(row_nnz.ravel())])
    return sp.csr_matrix(
        (band[keep], cols.reshape(band.shape)[keep], indptr), shape=(row_nnz.size,) * 2
    )


def oracle_csr(system):
    """The CSR matrix of an AssembledSystem, written from its full band."""
    return _to_csr(full_band(system))


def dense_basis_matrix(basis, x, der: int = 0):
    """Dense (len(x), dim) matrix of the constrained basis derivative der."""
    ders, first = basis.local_ders(x, der)
    cols, valid = basis.window(first)
    Q = ders.shape[0]
    out = np.zeros((Q, basis.dim))
    rows = np.broadcast_to(np.arange(Q)[:, None], cols.shape)
    out[rows[valid], cols[valid]] = ders[:, der, :][valid]
    return out


class ExtensionEvaluator:
    """Constant axial extension of a cross-section field: axial derivatives
    vanish, cross-sectional derivatives broadcast along the axial axes."""

    def __init__(self, cross_field, p: int):
        self._cross = cross_field
        self.p = int(p)

    def __call__(self, axes, alpha):
        shape = tuple(len(a) for a in axes)
        if any(alpha[k] > 0 for k in range(self.p)):
            return np.zeros(shape)
        vals = self._cross.eval_grid(list(axes[self.p :]), tuple(alpha[self.p :]))
        return np.broadcast_to(vals.reshape((1,) * self.p + vals.shape), shape)


class DifferenceEvaluator:
    """Difference of two evaluators, value by value."""

    def __init__(self, left, right):
        self._left = left
        self._right = right

    def __call__(self, axes, alpha):
        return self._left(axes, alpha) - self._right(axes, alpha)


class ProductEvaluator:
    """Leibniz product of two evaluators: D^alpha(fg) expanded exactly.

    norm_Hm asks for every alpha on one grid, and a beta recurs under every
    alpha above it, so the left factor's D^beta values are kept for the last
    grid seen: each is evaluated once per norm.
    """

    def __init__(self, left, right):
        self._left = left
        self._right = right
        self._grid = None
        self._left_values = {}

    def _left_at(self, axes, beta):
        if axes is not self._grid:
            self._grid, self._left_values = axes, {}
        if beta not in self._left_values:
            self._left_values[beta] = self._left(axes, beta)
        return self._left_values[beta]

    def __call__(self, axes, alpha):
        alpha = tuple(alpha)
        shape = tuple(len(a) for a in axes)
        out = np.zeros(shape)
        for beta in sub_indices(alpha):
            gamma = sub(alpha, beta)
            out += (
                multi_binom(alpha, beta)
                * self._left_at(axes, beta)
                * self._right(axes, gamma)
            )
        return out


def cutoff_derivative_bound(rho: CutoffRho, der: int, samples: int = 4001) -> float:
    """max |rho^(der)| over `samples` equispaced points of [-1, 1]."""
    t = np.linspace(-1.0, 1.0, samples)
    return float(np.abs(rho.profile(t, der)).max())


class CutoffEvaluator:
    """Product over the axes of rho((x_k - c_k) / w_k), with one window
    (c_k, w_k) or None per axis; an axis with None contributes the factor 1.
    Each derivative on a windowed axis carries a factor 1 / w_k."""

    def __init__(self, rho: CutoffRho, windows):
        self._rho = rho
        self._windows = list(windows)
        for win in self._windows:
            if win is not None and not win[1] > 0:
                raise ValueError(f"cutoff width must be positive, got {win[1]}")

    def __call__(self, axes, alpha):
        out = np.ones(())
        for x, a, win in zip(axes, alpha, self._windows):
            if win is None:
                if a > 0:
                    return np.zeros(tuple(len(ax) for ax in axes))
                vals = np.ones(len(x))
            else:
                c, w = win
                vals = self._rho.profile((np.asarray(x, dtype=np.float64) - c) / w, a) / w**a
            out = np.multiply.outer(out, vals)
        return out


def galerkin_interior_residual(
    u_l, u_inf, spec, ell: float, resolution: int, margin: float = 1.0
) -> float:
    """max over a family of interior C^m bump test functions phi of
    |sum_pairs integral a_ab D^a(u_l - ext u_inf) D^b phi|.

    The bumps live outside the trial space, so the value measures how far the
    discrete pair is from satisfying the continuous interior identity; it
    shrinks with the mesh.  Bump supports are unit boxes centered on integer
    axial points well inside (-ell, ell), times a bump spanning the
    cross-section.
    """
    p, w = difference_field(u_l, u_inf)
    m = spec.m
    rho = CutoffRho(m)
    reach = int(np.floor(ell - margin - 1.0 + _EPS))
    if reach < 0:
        raise ValueError(f"no room for unit bumps inside ell={ell} with margin {margin}")
    axial_centers = range(-reach, reach + 1)
    cross_windows = [(0.5 * (lo + hi), 0.5 * (hi - lo)) for lo, hi in w.basis.domain[p:]]
    degree = max(f.degree for f in w.basis.factors)
    ppc = (degree + 2 * m + 3) // 2 + 1

    worst = 0.0
    for axial in itertools.product(axial_centers, repeat=p):
        windows = [(float(c), 1.0) for c in axial] + cross_windows
        axes, W = _gauss_grid([(c - h, c + h) for c, h in windows], resolution, ppc)
        phi = CutoffEvaluator(rho, windows)
        grids = np.meshgrid(*axes, indexing="ij")
        total = 0.0
        for (alpha, beta), coef in sorted(spec.coefficients.items()):
            a_vals = np.broadcast_to(coef(tuple(grids)), grids[0].shape)
            total += float(np.sum(W * a_vals * w.eval_grid(axes, alpha) * phi(axes, beta)))
        worst = max(worst, abs(total))
    return worst


# ------------------------------------------------------------------ band kernel

_AXES, _SLOTS = "abc", "stu"


def _in_space(shape):
    """The slots of a band of this shape whose column lies in the space."""
    k = len(shape) // 2
    mask = np.ones((1,) * (2 * k), dtype=bool)
    for axis, (dim, width) in enumerate(zip(shape[:k], shape[k:])):
        col = np.arange(dim)[:, None] + np.arange(width) - width // 2
        where = [1] * (2 * k)
        where[axis], where[k + axis] = dim, width
        mask = mask & ((col >= 0) & (col < dim)).reshape(where)
    return mask


def transposed_band(band):
    """The band of the transposed matrix, in the same layout, the
    out-of-space slots zero: slot s of row i holds slot 2d - s of row
    i + s - d, read off the diagonal of a sliding window over the padded
    rows of the slot-reversed band."""
    k = band.ndim // 2
    widths = band.shape[k:]
    slots = tuple(range(k, 2 * k))
    padded = np.pad(np.flip(band, slots), [(w // 2, w // 2) for w in widths] + [(0, 0)] * k)
    windows = sliding_window_view(padded, widths, axis=tuple(range(k)))
    rows, s_sub = _AXES[:k], _SLOTS[:k]
    return np.einsum(f"{rows}{s_sub}{s_sub}->{rows}{s_sub}", windows).copy()


def band_apply_per_call(band, X, lead: int = 0, transpose: bool = False):
    """The raw band's matrix, or its transpose, applied to the axes of X
    from `lead` on, preparing the band on every call: a masked copy of each
    chunk of rows, or of its transpose's, against X padded by numpy.pad."""
    k = band.ndim // 2
    widths = band.shape[k:]
    axes = tuple(range(lead, lead + k))
    front = np.moveaxis(X, axes, range(k))
    padded = np.pad(front, [(w // 2, w // 2) for w in widths] + [(0, 0)] * (X.ndim - k))
    windows = sliding_window_view(padded, widths, axis=tuple(range(k)))
    x_sub, s_sub = _AXES[: X.ndim], _SLOTS[:k]
    subscripts = f"{x_sub[:k]}{s_sub},{x_sub}{s_sub}->{x_sub}"
    inside = _in_space(band.shape)
    n, d = band.shape[0], widths[0] // 2
    Y = np.empty(front.shape)
    step = max(1, 2**15 // band[0].size)
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        if transpose:  # its rows lo..hi read the band's rows lo - d..hi + d
            start = max(0, lo - d)
            chunk = transposed_band(band[start : hi + d])[lo - start : hi - start]
        else:
            chunk = np.where(inside[lo:hi], band[lo:hi], 0.0)
        np.einsum(subscripts, chunk, windows[lo:hi], out=Y[lo:hi])
    return np.moveaxis(Y, range(k), axes)


def kron_parts_per_alpha(u, box, m: int, resolution: int,
                         points_per_cell: int = NORM_POINTS_PER_CELL):
    """analysis._kron_parts without a cutoff, every band of every alpha
    applied one alpha at a time by band_apply_per_call."""
    rows, bands = zip(*(axis_grams(f, extent, m, resolution, points_per_cell)
                        for f, extent in zip(u.basis.factors, box)))
    X = u.coeffs[rows]
    parts = []
    for alpha in enumerate_upto(len(box), m):
        Y = X
        for k, a in enumerate(alpha):
            Y = band_apply_per_call(bands[k][a], Y, k)
        parts.append(max(0.0, float(np.sum(X * Y))))
    return parts


def even_extension(n: int):
    """The dense (n, ceil(n / 2)) matrix P whose column i is e_i + e_{n-1-i},
    or e_i alone for the centre i of an odd n: P y is the even vector of
    half y."""
    P = np.zeros((n, (n + 1) // 2))
    for i in range(P.shape[1]):
        P[i, i] = P[n - 1 - i, i] = 1.0
    return P


def odd_extension(n: int):
    """The dense (n, floor(n / 2)) matrix P whose column i is
    e_i - e_{n-1-i}: P y is the odd vector of half y, zero at the centre of
    an odd n."""
    P = np.zeros((n, n // 2))
    for i in range(P.shape[1]):
        P[i, i], P[n - 1 - i, i] = 1.0, -1.0
    return P


def parity_extension(system, parities):
    """The dense P of the parity block `parities` of a system: for a
    cylinder system the even extension along every axial axis of an even
    section, the even or odd extension along each of its section's parity
    axes, the identity on every other axis; the identity for the
    cross-section system, which folds on no axis."""
    p, dims, section = system._axial(), system._dims, system.section
    odd = dict(zip(section.parity_axes if p else (), parities))
    P = np.ones((1, 1))
    for k, dim in enumerate(dims):
        if k < p and section.even:
            P = np.kron(P, even_extension(dim))
        elif k - p in odd:
            P = np.kron(P, odd_extension(dim) if odd[k - p] else even_extension(dim))
        else:
            P = np.kron(P, np.eye(dim))
    return P


def is_its_own_block(system) -> bool:
    """Whether the system's parity blocks are the system itself: one block,
    of no parity, with the system's own parts and its load, as a system that
    folds on no axis has."""
    [(parities, block)] = system.parity_blocks()
    parts = list(zip(itertools.chain(*block.kron_parts), itertools.chain(*system.kron_parts)))
    return (parities == () and len(parts) == 2 * len(system.kron_parts)
            and all(a is b for a, b in parts) and block.rhs.tobytes() == system.rhs.tobytes())


def kronecker_pencil(system):
    """((A_top, A_other), (C_top, C_other)) of a two-part system: A_* the
    LAPACK lower band of each axial block, C_* the dense symmetric matrix
    of each cross-section block's lower triangle, top part first, as the
    section's pencil reduces them."""
    parts = _top_first(system.kron_parts, system.section.keys)
    return (tuple(_lower_of_band(A) for A, _ in parts),
            tuple(_dense(_lower_of_band(C)) for _, C in parts))


def is_fast(system) -> bool:
    """Whether the system's structure picks fast diagonalization: a
    cylinder system, or one of its blocks, of a section with an
    eigenbasis."""
    return system.ell is not None and system.section.eigenbasis is not None


def unfolded_pencil(system):
    """CrossSection.pencil for the whole cylinder system, not its even
    half: the same bands and pencils, with _folded_band read as the
    identity."""
    with mock.patch.object(assembly, "_folded_band", lambda band, axis, odd=False: band):
        return system.section.pencil(system.basis.factors[0])


def _full_path(system, where, pencil=None):
    """(x, method): the kernel the structure of the whole system picks, with
    no fold: fast diagonalization by the pencil of a system is_fast picks,
    banded Cholesky for another symmetric one, banded LU otherwise."""
    if is_fast(system):
        return (linalg.kronecker_solve(*pencil, system.rhs, system.matvec, where),
                "fast_diagonalization")
    if system.symmetric:
        return linalg.cholesky_solve(system.lower_band(), system.rhs, where), "cholesky_banded"
    return linalg.lu_solve(system.general_band(), system.rhs, where), "lu_banded"


def full_path_solve(system):
    """The whole system solved by the kernel its structure picks, with no
    fold, and accepted by linalg._accept on its own residual and |A|_inf."""
    where = _where(system.spec, "solve", system.ell)
    x, method = _full_path(system, where, is_fast(system) and unfolded_pencil(system))
    return linalg._accept(x, system.rhs, system.inf_norm(), system.matvec, where, method)


def _method(system):
    """The name of the kernel the system's structure picks."""
    if is_fast(system):
        return "fast_diagonalization"
    return "cholesky_banded" if system.symmetric else "lu_banded"


def fold_path_solve(system):
    """The system solved by the two folds chained, as the package did
    before they became one, and accepted by linalg._accept on its own
    residual and |A|_inf.

    A cylinder system of an even section is folded to its even half first:
    every Kronecker part's axial band and the load along each axial axis
    (_folded_band, _folded_rows).  When its section has parity axes, that
    half (or the whole system) is split into parity blocks, the section's
    blocks and the half's load folded along each parity axis, a block whose
    load is exactly zero left out, each block solved whole and its solution
    unfolded along the parity axes (_unfolded_rows), summed from the first
    block on.  The half's solution is then unfolded along the axial axes.
    Any other system is solved whole.
    """
    where = _where(system.spec, "solve", system.ell)
    p, section, method = system._axial(), system.section, _method(system)
    half, folds = system, p and section.even
    if folds:
        parts, rhs = system.kron_parts, system.rhs.reshape(system._dims)
        for axis in range(p):
            parts = tuple((_folded_band(A, axis), C) for A, C in parts)
            rhs = _folded_rows(rhs, axis)
        half = replace(system, rhs=rhs.ravel(), basis=None, kron_parts=parts)
    axes = section.parity_axes if p else ()
    if not axes:
        # a section with an eigenbasis is even, with no parity axes
        pencil = is_fast(system) and section.pencil(system.basis.factors[0])
        y = _full_path(half, where, pencil)[0]
    else:
        dims, y = half._dims, None
        for parities in itertools.product((False, True), repeat=len(axes)):
            blocks, rhs = [C for _, C in half.kron_parts], half.rhs.reshape(dims)
            for axis, odd in zip(axes, parities):
                blocks = tuple(_folded_band(C, axis, odd) for C in blocks)
                rhs = _folded_rows(rhs, p + axis, odd)
            if not rhs.any():
                continue
            block = replace(half, rhs=rhs.ravel(), basis=None, kron_parts=tuple(
                (A, C) for (A, _), C in zip(half.kron_parts, blocks)))
            Y = _full_path(block, where)[0].reshape(block._dims)
            for axis, odd in zip(axes, parities):
                Y = _unfolded_rows(Y, p + axis, dims[p + axis], odd)
            y = Y if y is None else y + Y
        y = np.zeros(half.ndofs) if y is None else y.ravel()
    x = y
    if folds:
        X = y.reshape(tuple((n + 1) // 2 for n in system._dims[:p]) + system._dims[p:])
        for axis in range(p):
            X = _unfolded_rows(X, axis, system._dims[axis])
        x = X.ravel()
    return linalg._accept(x, system.rhs, system.inf_norm(), system.matvec, where, method)


def inverse_inf_norm(system, dense_below: int = 3000) -> float:
    """|A^-1|_inf of a system: exact from the dense inverse below
    dense_below unknowns, else, for a symmetric system, whose inf-norm and
    1-norm agree, scipy's onenormest of x -> A^-1 x: by fast
    diagonalization for a two-part system, else by one banded
    Cholesky factor.  onenormest estimates from below, usually exactly."""
    n = system.ndofs
    if n < dense_below:
        return float(np.abs(np.linalg.inv(oracle_csr(system).toarray())).sum(axis=1).max())
    assert system.symmetric
    from scipy.linalg import cho_solve_banded, cholesky_banded
    from scipy.sparse.linalg import LinearOperator, onenormest

    if is_fast(system):
        pencil = unfolded_pencil(system)

        def solve(v):
            return linalg.kronecker_solve(*pencil, np.ravel(v), system.matvec)
    else:
        factor = cholesky_banded(system.lower_band(), lower=True)

        def solve(v):
            return cho_solve_banded((factor, True), np.ravel(v))

    return float(onenormest(LinearOperator((n, n), matvec=solve, rmatvec=solve)))
