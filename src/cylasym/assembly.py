"""Galerkin assembly on the cylinder and on the cross-section.

Every matrix is built in one band layout.  On a tensor product of 1-D spline
factors of degrees d_k, two basis functions share a cell exactly when their
indices differ by at most d_k on every axis, so a matrix is an array of shape
(dim_1..dim_n, w_1..w_n), w_k = 2 d_k + 1, whose entry [i_1..i_n, s_1..s_n]
couples row (i_k) with column (i_k + s_k - d_k).  The slots whose column
falls outside the space hold no matrix entry, and every band the package
builds holds zero in them: the kernel's, since the tables zero the
functions the constraint drops, and those the folds, placements
(splines.placed, _transposed), outer products (_outer) and Gram bands
(splines.axis_grams) form.  So band_apply, matvec and
_kron_row_sums read a band as it is; the slot walk and the folds read the
in-space slots only, since they also place entries and define the folded
space.  A new producer of bands keeps this invariant, and
test_every_band_is_zero_outside_its_space pins it for every producer.

One einsum kernel builds the band on a tensor product of factors: per-axis
local basis derivative tables (each factor's cached local_table of its
Gauss points, so every system on a factor reads one table) are contracted
cell-by-cell against quadrature weights and coefficient values, one einsum
per coefficient pair, and each local test function's element values are
added into the rows that SplineBasis1D.window assigns it.  The kernel does
this for one slab of cells along the first factor at a time, so it holds
at most a few MiB of element values besides the band it fills.  A load
vector is scattered the same way.

The cylinder matrix is a sum of Kronecker products.  A pair (alpha, beta)
whose coefficient reads none of the axial variables x1..xp -- decided
exactly from the expression's free variables by ScalarField.reads_axial --
contributes kron(A_axial[alpha_ax, beta_ax], A_cross[alpha', beta'; a]),
where A_axial is the band of the p axial factors with unit coefficient and
A_cross the band on the cross-section factors with the coefficient a; in
band layout that is the broadcast product of the two bands.  Pairs that
share an axial part share one product.  Every pair whose coefficient reads
x1..xp, which the hypotheses allow when alpha has an axial component, goes
through the kernel on all n factors.  The forcing may not read x1..xp, so
the load vector is kron(axial load of the unit forcing, cross-section
load); a forcing that reads them is refused.

None of the cross-section pieces depends on l, so a CrossSection builds
them once for a sweep: the cross-section factors, the A_cross block of
every axial part, the cross-section load and, for a two-part system, the
pencil's eigenbasis.  Nor does the stencil.  Every factor, axial or of
omega, has uniform cells, and with a unit coefficient the band of the 1-D
pair (a, b) on cells of width h is h^(1 - a - b) times its band on unit
cells, whose rows are those of one interior row except for the leading
rows, which the repeated knots at the lower end shape, and their mirror
images.  So the kernel runs once per 1-D pair of any coefficient on
3 d + 1 unit cells (CrossSection.stencil, kept per process by _stencil,
as splines keeps its Gram references), whose centre row is an interior
one, and the unit load likewise, before any job, and every factor places
its bands and load from that (splines.placed, which places the norms'
Gram bands too): the leading rows, then the interior row, then the
mirror of the first half with the sign (-1)^(a + b).  These equal their signed mirrors bitwise, and they do not
depend on where the factor lies.  A factor of fewer than 3 d + 1 cells,
whose rows near one end also see the other end's knots, places from a
stencil of its own cell count, on the same path.  One rule builds every
piece on several factors: along a factor whose coordinate the coefficient
(or the forcing) does not read, its placed 1-D band (or load); only the
factors it reads go through the kernel, with the coefficient; the outer
product of the pieces (_outer) joins them.  So every axial band is the
outer product of placed ones, and so is an A_cross block whose
coefficient is constant, times that constant; a coefficient that reads
x_k of omega meets the kernel on x_k's factor alone.  The blocks and the
load are therefore bitwise signed-mirror symmetric along every axis of
omega whose coordinate no coefficient (no forcing) reads, and the same on
every translate of omega of the same width.  assemble_cylinder and
assemble_limit take the CrossSection as their whole description of the
problem: assemble_limit's system is the block of the zero axial part with
the cross-section load, and assemble_cylinder builds only the n-D band, if
a pair needs it, by the kernel at each l; it places the axial pieces.

An AssembledSystem keeps those pieces, not the sum: the (axial band,
cross-section band) pair of every axial part, each in its own factors' band
layout, and the n-D band when some pair needs it (the cross-section system
keeps only its n-D band, the kernel on its own factors); its symmetry and
axial keys are read off the problem and the CrossSection.  Slot tuple s of
the band, in every row, is summed from them when it is read, in the order a
full band would sum it: zero, then each Kronecker part (the outer product
of its axial band's slots s_1..s_p and its cross-section band's slots
s_p+1..s_n), then the n-D band.  The system's matrix A is that sum, read
as it is.  A symmetric problem's A is symmetric up to rounding, since the
kernel and the sum over the Kronecker parts form the two entries of a
mirror pair in different orders; no reader symmetrizes it.  A symmetric kernel reads only A's
lower triangle, and the backward-error check judges its x against A
itself, the matrix that was assembled.  One slot walk
(_band_entries) hands out the entries, and every written form of the
system is written from it: lower_band writes the entries on and below the
diagonal into LAPACK lower band storage, a Fortran-ordered (kd + 1, N)
array with kd = sum_k d_k stride_k (stride_k the flat-index step of axis
k); general_band writes every entry into the storage dgbsv factors in
place, (3 kd + 1, N): LAPACK general band storage below kd zero rows for
the fill-in.  AssembledSystem.matrix writes the CSR matrix of every entry
on every read: the benchmark's trace mode and one test read it, no solve
does, so it imports scipy.sparse itself, on its first read, and the
package imports no scipy module.  A symmetric system of exactly two
Kronecker parts, each with equal axial indices, and no n-D band (two_part)
also hands over its axial pencil: the lower bands of the two axial blocks,
written by the same walk.  No full-size band is ever built.

A cylinder system commutes with the reflection of an axis k about the
middle of its extent when no coefficient reads x_k and every pair has
alpha_k + beta_k even on it (read off once, as a CrossSection is built),
and the solve uses those symmetries through one fold,
AssembledSystem.parity_blocks.  When
every axial axis reflects (CrossSection.even) the load is even on them too,
since the forcing may not read x1..xp, so only the even half is solved:
each Kronecker part's axial band is folded once per system, along each
axial axis in turn, in band layout (_folded_band), summing the four terms
A(i, k) + A(i, m(k)) + A(m(i), k) + A(m(i), m(k)) with m(i) = N_ax - 1 - i
and the centre of an odd N_ax counted once, from in-space slots only, with
the half bandwidth unchanged.  The forcing may have either parity on the
cross-section, so there every parity is solved: when a banded kernel
solves the cylinder systems (no n-D band, not two-part), the reflecting
cross-section axes (CrossSection.mirrored) are the section's parity axes
(CrossSection.parity_axes), and each parity tuple over them has one block,
its cross-section bands the section's folded to its even or odd half along
each parity axis (_folded_band with odd: P e_i = e_i - e_m(i), the centre
left out).  No coefficient reads the coordinate of a parity axis, so every
block is placed from the stencil along it and commutes with its
reflection bitwise, and so does every system that reads the blocks, the
limit system too; omega's own knots and quadrature points mirror only up
to roundoff (the kernel's blocks up to 8e-13 of their largest entry on
omega = (15.89, 16.89) at 48 cells per unit), and no block's kernel
piece spans a parity axis.  A forcing that does not read the coordinate of a
parity axis has its load placed along it too, even bitwise, so the odd
fold of that load is exactly zero, not rounding noise.  The folded
cross-section blocks are formed per system, not kept per sweep.
A block's load is the system's folded alike (_folded_rows): the uncoupled
systems P_s^T A P_s y_s = P_s^T b, leaving out a block whose folded load is
exactly zero (the odd blocks of an even forcing), and joined gives
x = sum_s P_s y_s.  A block takes its dims
and degrees from its pieces, so it needs no spline basis.  Each block has
about half the cross-section functions per parity axis and so about half
the half bandwidth, which cuts a banded Cholesky, costing N kd^2, by 8 per
block and 4 for the pair.  assemble_cylinder returns the full system, and
the solve folds it.

The backward-error check reads the matrix from the pieces, for every
system.  Its residual skips the walk: matvec multiplies by the matrix from
the pieces, sum_j A_j X C_j^T plus the n-D band, each band applied along
its axes by band_apply: one einsum over a sliding window of X.  inf_norm,
for a system of Kronecker parts alone, forms the same entries as the walk
but sums only the first axial row of each run of equal rows, which the
placed axial bands repeat bit for bit (_kron_row_sums); for a system with an
n-D band (the cross-section system among them) it sums the magnitudes of
every slot tuple (_slot), so such a system is walked twice, once by its
kernel's band and once by its norm.  The readers share a system's pieces
as they are, so a system marks them read-only.

Every evaluation and sum runs in a fixed order, each entry summing its cells
in ascending order, so assembling the same problem twice gives
bitwise-identical matrices.

The cross-section (limit) problem keeps only coefficient pairs whose
multi-indices have no axial components.  The kernel takes the coordinate
index of each factor it runs on, and a coordinate no factor carries is 0.0
when it evaluates a coefficient or the forcing: the axial ones on omega,
which is exactly the axis-independence the hypothesis validator enforces,
and those of omega's factors that the field does not read.  A limit pair
whose coefficient reads x1..xp, which the validator refuses, is refused by
assemble_limit too.  The CrossSection checks the kernel's pieces on omega
(or a constant coefficient or forcing) for non-finite entries once, as the
stage `cross-section` (l = inf), before it joins them with placed bands,
so no system built from it checks them again; assemble_cylinder checks
only the n-D band it assembles at each l.
"""

import itertools
import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .linalg import pencil_eigenbasis
from .problem import ProblemSpec
from .splines import SplineBasis1D, TensorBasis, cells_for, composite_gauss, placed

_CELL_LETTERS = "abc"
_QUAD_LETTERS = "uvw"
_ROW_LETTERS = "ijk"
_COL_LETTERS = "lmn"
# bytes of element values the kernel holds per slab of cells (_galerkin)
_SLAB_BYTES = 4 * 2**20
_AXIS_LETTERS = "abc"  # band_apply: the axes of X
_SLOT_LETTERS = "stu"  # band_apply: the band's slot axes


class AssemblyError(RuntimeError):
    pass


@dataclass
class AssembledSystem:
    """A Galerkin system kept as the pieces its band is the sum of.

    kron_parts holds one (axial band, cross-section band) pair per axial
    key, each in the band layout of its own factors; nd_band is the
    kernel's band on all factors, or None when no pair needs it.  The
    cross-section bands are those of section, the CrossSection the system
    was assembled from, which also gives its problem (spec).  The matrix
    is the sum of the pieces, as it is, for a symmetric problem too.  The
    written forms (lower_band, general_band, matrix, axial_pencil) come
    from the slot walk; matvec, and inf_norm of a system of Kronecker parts
    alone, read the pieces without it, as they are.  The pieces are
    read-only, and zero outside the space, as every band is.
    """

    rhs: np.ndarray
    basis: TensorBasis
    section: "CrossSection"
    ell: float | None = None
    kron_parts: tuple = ()
    nd_band: np.ndarray | None = None

    def __post_init__(self):
        for band in (*itertools.chain(*self.kron_parts), self.nd_band):
            if band is not None:
                band.flags.writeable = False  # the readers share it as it is

    @property
    def spec(self) -> ProblemSpec:
        return self.section.spec

    @property
    def symmetric(self) -> bool:
        return self.spec.symmetric

    @property
    def ndofs(self) -> int:
        return math.prod(self._dims)

    @property
    def _dims(self):
        """The dimension of every factor, read off the pieces' rows."""
        if self.kron_parts:
            A, C = self.kron_parts[0]
            return A.shape[: A.ndim // 2] + C.shape[: C.ndim // 2]
        return self.nd_band.shape[: self.nd_band.ndim // 2]

    @property
    def _degrees(self):
        """The degree of every factor, read off the pieces' slot widths."""
        bands = self.kron_parts[0] if self.kron_parts else (self.nd_band,)
        return tuple(w // 2 for band in bands for w in band.shape[band.ndim // 2 :])

    @property
    def matrix(self):
        """The CSR matrix, written from the entries general_band writes and
        handed to scipy.sparse as (value, (row, column)) triples.  Built on
        every read; the first read imports scipy.sparse, which no solve
        needs."""
        import scipy.sparse as sp

        # columns ascend with c in every row, no two entries of one c share
        # a row, and the conversion keeps each row's entries in this order
        entries = sorted(self._entries(lower=False), key=lambda entry: entry[0])
        flat = np.arange(self.ndofs, dtype=np.int32).reshape(self._dims)
        rows = np.concatenate([flat[r].ravel() for _, r, _, _ in entries])
        cols = np.concatenate([flat[c].ravel() for _, _, c, _ in entries])
        data = np.concatenate([values.ravel() for *_, values in entries])
        return sp.csr_matrix((data, (rows, cols)), shape=(self.ndofs,) * 2)

    def _slot(self, s):
        """Slot tuple s of the band in every row, of shape (dim_1..dim_n):
        zero, plus each Kronecker part, plus the n-D band."""
        nd = None if self.nd_band is None else self.nd_band[(slice(None),) * len(s) + s]
        if not self.kron_parts:
            return nd
        p = self.spec.p
        out = np.zeros(self._dims)
        for A, C in self.kron_parts:
            out += np.multiply.outer(A[(Ellipsis,) + s[:p]], C[(Ellipsis,) + s[p:]])
        if nd is not None:
            out += nd
        return out

    def _entries(self, lower: bool):
        return _band_entries(self._slot, self._dims, self._degrees, lower)

    def lower_band(self):
        """LAPACK lower band storage of A's entries on and below the
        diagonal, Fortran-ordered, with A[j + q, j] at ab[q, j]."""
        if not self.symmetric:
            raise ValueError("the lower band describes a symmetric system only")
        return _write_band(self._entries(lower=True), self._dims, self._degrees, 0)

    def general_band(self):
        """The matrix in the storage LAPACK's dgbsv factors in place,
        Fortran-ordered, (3 kd + 1, N) with A[i, j] at ab[2 kd + i - j, j]:
        general band storage below kd zero rows for the fill-in."""
        return _write_band(self._entries(lower=False), self._dims, self._degrees,
                           2 * _half_bandwidth(self._dims, self._degrees))

    def inf_norm(self) -> float:
        """|A|_inf: the largest sum over a row of the magnitudes of its
        entries, each entry formed from the pieces as the bands write it.
        A system of Kronecker parts alone sums the first row of each run of
        equal axial rows (_kron_row_sums); a system with an n-D band sums
        |slot(s)| over its slot tuples s.  An out-of-space slot adds an
        exact zero.
        """
        if self.nd_band is None:
            return float(_kron_row_sums(self.kron_parts, self.spec.p).max())
        rows = np.zeros(self._dims)
        for s in itertools.product(*(range(2 * d + 1) for d in self._degrees)):
            rows += np.abs(self._slot(s))
        return float(rows.max())

    def matvec(self, x):
        """The matrix times x from the pieces: sum_j A_j X C_j^T plus the n-D
        band, with X the (axial, cross-section) view of x."""
        X = np.reshape(x, self._dims)
        Y = np.zeros(X.shape)
        for A, C in self.kron_parts:
            Y += band_apply(A, band_apply(C, X, self.spec.p))
        if self.nd_band is not None:
            Y += band_apply(self.nd_band, X)
        return Y.ravel()

    @property
    def two_part(self) -> bool:
        """True for a cylinder system of a two-part section
        (CrossSection.two_part): axial_pencil describes it."""
        return bool(self.kron_parts) and self.section.two_part

    def axial_pencil(self):
        """(A_top, A_other) of a two-part system: the LAPACK lower band of
        each axial block, written as lower_band writes the whole system's,
        top part first: the one of highest axial order, whose cross-section
        block ellipticity makes positive definite.
        """
        if not self.two_part:
            raise ValueError("the Kronecker pencil describes a two-part system only")
        return tuple(_lower_of_band(A) for A, _ in _top_first(self.kron_parts, self.section.keys))

    def parity_blocks(self):
        """(parities, block) per parity tuple over the section's parity axes
        (CrossSection.parity_axes) whose folded load is not exactly zero,
        or None unless this is a cylinder system that folds on some axis:
        every axial axis of an even section (CrossSection.even), or some
        parity axis.

        The block is the system P_s^T A P_s y = P_s^T b, P_s the even
        extension along every axial axis of an even section, then the even
        or odd extension (parities[j] True for odd) along parity axis j.
        Each Kronecker part's axial band is folded once (_folded_band), and
        shared by every block; its cross-section band, the section's, is
        folded per block, and the load alike (_folded_rows).  A commutes
        with every such reflection (bitwise on the parity axes, along which
        the blocks are placed from the stencil) and b is even on the axial
        axes,
        so the blocks are uncoupled and x = joined(blocks, ys) solves
        A x = b; a skipped block's y is zero.  A block has no basis; its
        dims and degrees come from its pieces.
        """
        p, section = self.spec.p, self.section
        axial = range(p) if section.even else ()
        if not (self.kron_parts and (axial or section.parity_axes)):
            return None
        bands, rhs = [A for A, _ in self.kron_parts], self.rhs.reshape(self._dims)
        for axis in axial:
            bands = [_folded_band(A, axis) for A in bands]
            rhs = _folded_rows(rhs, axis)
        out = []
        for parities in itertools.product((False, True), repeat=len(section.parity_axes)):
            blocks, load = section.blocks, rhs
            for axis, odd in zip(section.parity_axes, parities):
                load = _folded_rows(load, p + axis, odd)
            if load.any():
                for axis, odd in zip(section.parity_axes, parities):
                    blocks = tuple(_folded_band(C, axis, odd) for C in blocks)
                out.append((parities, replace(self, rhs=load.ravel(), basis=None,
                                              kron_parts=tuple(zip(bands, blocks)))))
        return tuple(out)

    def joined(self, blocks, ys):
        """x = sum_s P_s y_s over the (parities, block) pairs of
        parity_blocks and their solutions ys, in this system's space: each
        y unfolded along the parity axes (_unfolded_rows), summed from the
        first block on, so that x keeps the signs of zero of the blocks'
        solutions, then the sum unfolded along the axial axes of an even
        section, bitwise even on them."""
        p, dims, section, X = self.spec.p, self._dims, self.section, None
        for (parities, block), y in zip(blocks, ys):
            Y = np.reshape(y, block._dims)
            for axis, odd in zip(section.parity_axes, parities):
                Y = _unfolded_rows(Y, p + axis, dims[p + axis], odd)
            X = Y if X is None else X + Y
        if X is None:
            return np.zeros(self.ndofs)
        for axis in range(p) if section.even else ():
            X = _unfolded_rows(X, axis, dims[axis])
        return X.ravel()


def _folded_band(band, axis: int, odd: bool = False):
    """The band of P^T A P for the band of A, P the even extension along
    its factor `axis` of N functions, or with odd the odd one.

    Even: the first ceil(N / 2) functions i of the folded factor stand for
    e_i + e_m(i), m(i) = N - 1 - i, the centre function of an odd N for
    itself alone.  Odd: the first floor(N / 2) stand for e_i - e_m(i), and
    the centre of an odd N, which no odd vector reaches, is left out.

    Entry (i, k) sums A(i, k), A(i, m(k)), A(m(i), k) and A(m(i), m(k)) in
    that order, the middle two subtracted for odd, each term present when
    its column lies in A's band and a mirror that is the function itself
    counted once; so no reader relies on A being bitwise mirror-symmetric.
    Along `axis` only in-space slots of A are read, and a slot whose column
    falls outside the folded factor holds zero; the slots of the other axes
    are carried as they are.  The half bandwidth stays d: m(k) is within d
    of i only near the centre, where k is too.
    """
    k = band.ndim // 2
    B = np.moveaxis(band, (axis, k + axis), (0, 1))
    n, w = B.shape[:2]
    d, half = w // 2, n // 2 if odd else (n + 1) // 2
    i = np.arange(half)[:, None]
    col = i + np.arange(w) - d
    mi, mcol = n - 1 - i, n - 1 - col
    inside = (col >= 0) & (col < half)
    mirrored = np.subtract if odd else np.add
    folded = np.zeros((half, w) + B.shape[2:])
    for rows, cols, here, add in ((i, col, inside, np.add),
                                  (i, mcol, inside & (mcol != col), mirrored),
                                  (mi, col, inside & (mi != i), mirrored),
                                  (mi, mcol, inside & (mi != i) & (mcol != col), np.add)):
        slot = cols - rows + d
        here = here & (slot >= 0) & (slot < w)
        term = B[np.broadcast_to(rows, slot.shape), np.clip(slot, 0, w - 1)]
        add(folded, np.where(here.reshape(here.shape + (1,) * (B.ndim - 2)), term, 0.0),
            out=folded)
    return np.ascontiguousarray(np.moveaxis(folded, (0, 1), (axis, k + axis)))


def _outer(pieces):
    """The band of the tensor product of the bands pieces, on consecutive
    factors in their order, in band layout: the outer product of the
    pieces, its row axes moved before its slot axes.  A load is a band of
    slot width 1, and a 0-d piece scales the product."""
    out = np.ones(())
    for piece in pieces:
        k, j = out.ndim // 2, piece.ndim // 2
        out = np.moveaxis(np.multiply.outer(out, piece), range(2 * k, 2 * k + j), range(k, k + j))
    return np.ascontiguousarray(out)


def _transposed(band):
    """The band of A^T for the band of a 1-D A: slot s of row i holds
    A(i + s - d, i), and zero where that row falls outside the space."""
    n, w = band.shape
    rows = np.arange(n)[:, None] + np.arange(w) - w // 2
    inside = (rows >= 0) & (rows < n)
    return np.where(inside, band[np.clip(rows, 0, n - 1), np.arange(w)[::-1]], 0.0)


def _folded_rows(X, axis: int, odd: bool = False):
    """P^T X along `axis` of N rows.  Even: row i < N // 2 is X[i] + X[m(i)],
    and the centre row of an odd N is X's own; odd: row i < N // 2 is
    X[i] - X[m(i)]."""
    X = np.moveaxis(X, axis, 0)
    n = X.shape[0]
    if odd:
        Y = X[: n // 2] - X[::-1][: n // 2]
    else:
        Y = X[: (n + 1) // 2].copy()
        Y[: n // 2] += X[::-1][: n // 2]
    return np.moveaxis(Y, 0, axis)


def _unfolded_rows(Y, axis: int, n: int, odd: bool = False):
    """P Y along `axis`: the N = n rows whose row m(i) is Y[i], or for odd
    -Y[i], with row i; for odd the centre row of an odd N is zero."""
    Y = np.moveaxis(Y, axis, 0)
    if odd:
        rows = [Y, np.zeros((n % 2,) + Y.shape[1:]), -Y[::-1]]
    else:
        rows = [Y, Y[: n // 2][::-1]]
    return np.moveaxis(np.concatenate(rows), 0, axis)


def _top_first(pieces, keys):
    """The two pieces of a two-part system, the one whose axial key has the
    higher order first."""
    orders = [sum(a) + sum(b) for a, b in keys]
    return tuple(reversed(pieces)) if orders[1] > orders[0] else tuple(pieces)


def _cross_pencil(blocks, keys):
    """(C_top, C_other): the dense symmetric matrix of the lower triangle of
    each cross-section block of a two-part system, top part first."""
    return tuple(_dense(_lower_of_band(C)) for C in _top_first(blocks, keys))


def _shifted(shift, dims):
    """(rows, cols): the rows (slices per axis) whose column, row plus
    shift, lies in the space of dimensions dims, and those columns; none
    where a shift exceeds its dimension, as on a folded factor narrower
    than its degree."""
    rows = tuple(slice(max(0, -e), max(0, dim - e)) for e, dim in zip(shift, dims))
    cols = tuple(slice(max(0, e), max(0, dim + e)) for e, dim in zip(shift, dims))
    return rows, cols


def _band_entries(slot, dims, degrees, lower: bool):
    """(c, rows, cols, values) per slot tuple s of a band on factors of
    dimensions dims and degrees, slot(s) giving slot tuple s in every row.

    c is the flat column minus the flat row, rows the rows (slices per axis)
    whose column lies in the space, cols those columns, and values the
    entries there.  lower keeps c <= 0 only: the entries on and below the
    diagonal.
    """
    strides = [math.prod(dims[k + 1 :]) for k in range(len(dims))]
    for s in itertools.product(*(range(2 * d + 1) for d in degrees)):
        shift = [sk - d for sk, d in zip(s, degrees)]  # column minus row
        c = sum(e * stride for e, stride in zip(shift, strides))
        if lower and c > 0:
            continue  # above the diagonal
        rows, cols = _shifted(shift, dims)
        yield c, rows, cols, slot(s)[rows]


def _slot_of(band):
    """slot(s) of a band in band layout, for _band_entries."""
    return lambda s: band[(slice(None),) * len(s) + s]


def zero_padded(a, widths):
    """a with widths[k] zeros at both ends of its axis k, in the memory
    order numpy.pad gives: Fortran when a is Fortran- and not C-contiguous,
    else C.  The order decides how later sums over the array run."""
    padded = np.zeros([n + 2 * w for n, w in zip(a.shape, widths)], a.dtype,
                      order="F" if a.flags.fnc else "C")
    padded[tuple(slice(w, w + n) for n, w in zip(a.shape, widths))] = a
    return padded


def band_apply(band, X, lead: int = 0):
    """The band's matrix applied to the axes of X from `lead` on that the
    band's factors span; the other axes are carried along.

    The band is read as it is, zero outside its space as every band is.
    The spanned axes of X are moved first, so that the carried axes run
    innermost, and written into a zero buffer with d = w // 2 zeros at both
    ends of each; read through a sliding window of the band's widths, slot
    s of row i meets X at row i + s - d, and one einsum sums the products.
    """
    k = band.ndim // 2
    widths = band.shape[k:]
    order = (*range(lead, lead + k), *range(lead), *range(lead + k, X.ndim))
    front = X.transpose(order)
    padded = zero_padded(front, [w // 2 for w in widths] + [0] * (X.ndim - k))
    windows = sliding_window_view(padded, widths, axis=tuple(range(k)))
    x_sub, s_sub = _AXIS_LETTERS[: X.ndim], _SLOT_LETTERS[:k]
    Y = np.empty(front.shape)
    np.einsum(f"{x_sub[:k]}{s_sub},{x_sub}{s_sub}->{x_sub}", band, windows, out=Y)
    return Y.transpose(np.argsort(order))


def _kron_row_sums(parts, p: int):
    """Row sums of the magnitudes of the entries of a system of Kronecker
    parts alone, of shape (kept axial rows, cross-section rows), from its
    pieces.

    Row (i, r) and slot (e, s) of the band hold sum_j A_j[i, e] C_j[r, s],
    summed in part order: every entry is the one the bands write, up to the
    sign of a zero (the bands add the parts to a zero).  It depends on the
    axial row i only through the row (A_j[i, e]) over slots e and parts j,
    and the axial bands, placed from the stencil, repeat whole rows bit for
    bit between their leading rows and the mirrors of those.  Equal rows
    have equal sums, so only the first row of each run of equal rows is
    kept: 5, 11 and 15 for degrees 1, 2 and 3, at every l (per row of the
    first axial factor for p = 2).  Each kept row's sum runs over s down
    the middle axis of its (kept rows, slots, rows) entries, then over e
    from slot 0.  Out-of-space slots are zero, so they add exact zeros.
    """
    n_c = math.prod(parts[0][1].shape[: parts[0][1].ndim // 2])
    rows = np.stack([A.reshape(math.prod(A.shape[:p]), -1) for A, _ in parts], axis=-1)
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]).any(axis=(1, 2))
    rows = rows[first, :, :, None, None]
    # (slots, rows) per cross-section piece
    cross = [np.ascontiguousarray(C.reshape(n_c, -1).T) for _, C in parts]
    row_abs = 0.0
    for e in range(rows.shape[1]):
        entries = rows[:, e, 0] * cross[0]
        for j, C in enumerate(cross[1:], 1):
            entries += rows[:, e, j] * C
        row_abs = row_abs + np.abs(entries, out=entries).sum(axis=1)
    return row_abs


def _half_bandwidth(dims, degrees) -> int:
    return sum(d * math.prod(dims[k + 1 :]) for k, d in enumerate(degrees))


def _write_band(entries, dims, degrees, upper: int):
    """LAPACK band storage of the entries with `upper` superdiagonals: a
    Fortran-ordered (upper + kd + 1, N) array with A[i, j] at
    ab[upper + i - j, j].  upper = 0 gives lower band storage, A[j + q, j]
    at ab[q, j], of the entries on and below the diagonal; upper = 2 kd
    gives dgbsv's storage, kd zero rows above the general band."""
    kd = _half_bandwidth(dims, degrees)
    ab = np.zeros((upper + kd + 1, math.prod(dims)), order="F")
    for c, rows, cols, values in entries:
        ab[upper - c].reshape(dims)[cols] = values  # a view: each row of ab has one stride
    return ab


def _lower_of_band(band):
    """Lower band storage of B's entries on and below the diagonal, for a
    band B in band layout."""
    k = band.ndim // 2
    dims, degrees = band.shape[:k], [w // 2 for w in band.shape[k:]]
    return _write_band(_band_entries(_slot_of(band), dims, degrees, True), dims, degrees, 0)


def _dense(ab):
    """The dense symmetric matrix of a lower band storage."""
    n = ab.shape[1]
    D = np.zeros((n, n))
    for q in range(ab.shape[0]):
        j = np.arange(n - q)
        D[j + q, j] = D[j, j + q] = ab[q, : n - q]
    return D


def _local_tables(factors):
    """Per-axis quadrature and local basis values.

    Returns (pts, wts, B) per axis with B of shape
    (cells, points_per_cell, degree + 1, degree + 1): B[c, q, k, r] is the
    k-th derivative of local function r of cell c at its point q, zero where
    the constraint drops the function.  B is the factor's cached local_table
    of the composite Gauss points, so every system assembled on one factor
    reads one table; quadrature points are cell-major, so row c of B holds
    the functions active on cell c.
    """
    points_per_cell = max(f.degree for f in factors) + 1
    tables = []
    for f in factors:
        pts, wts = composite_gauss((f.lo, f.hi), f.cells, points_per_cell)
        if not np.array_equal(f.cell_of(pts), np.repeat(np.arange(f.cells), points_per_cell)):
            raise AssemblyError("quadrature points not aligned with cells")
        vals, _ = f.local_table(pts)
        B = vals.reshape(f.cells, points_per_cell, f.degree + 1, f.degree + 1)
        tables.append((pts, wts.reshape(f.cells, points_per_cell), B))
    return tables


def _local_blocks(factors):
    """(cells, r, rows) per tuple r of local function numbers: the cells on
    which the constraint keeps local function r_k, and the rows it is there.
    r runs from degree down to 0, so rows receive cells in ascending order.
    SplineBasis1D's minimum of 2 bc_order + 1 cells keeps every local
    function on some cell."""
    windows = [f.window(np.arange(f.cells)) for f in factors]
    for r in itertools.product(*(range(f.degree, -1, -1) for f in factors)):
        cells, rows = [], []
        for (cols, valid), rk in zip(windows, r):
            kept = np.flatnonzero(valid[:, rk])
            cells.append(slice(kept[0], kept[-1] + 1))
            rows.append(slice(cols[kept[0], rk], cols[kept[-1], rk] + 1))
        yield tuple(cells), r, tuple(rows)


def _quadrature_grid(tables, axes, ncoords):
    """Weights W of shape (c1, q1, c2, q2, ...), the ncoords coordinates a
    field is evaluated at, and the shape of the point grid.

    Coordinate axes[k] is a broadcastable axis of the tensor grid of
    per-axis quadrature points, that of factor k, and ncoords is
    len(tables) when None; a coordinate no factor carries, which no field
    the kernel evaluates reads, is 0.0.
    """
    W = np.ones(())
    for _, wts, _B in tables:
        W = np.multiply.outer(W, wts)
    points = [t[0] for t in tables]
    coords = [0.0] * (ncoords or len(tables))
    for k, x in zip(axes, np.meshgrid(*points, indexing="ij", sparse=True)):
        coords[k] = x
    return W, tuple(coords), tuple(len(a) for a in points)


def _galerkin(factors, terms, axes=None, ncoords=None):
    """The einsum kernel: band of the sum over terms (alpha, beta, coef) of
    the integral of coef D^alpha u D^beta v on the tensor space of factors.

    Factor k carries coordinate axes[k] of ncoords (default: coordinate k
    of len(factors)), and alpha and beta index the coordinates; coef reads
    only those the factors carry (_quadrature_grid).  Rows carry the test
    function v.

    The element values are contracted one slab of cells along the first
    factor at a time, at most _SLAB_BYTES of them (one cell at least), on
    one einsum path fixed up front when there are several slabs, and each
    slab is stamped into the band before the next: slabs ascend, so every
    entry still sums its cells in ascending order.  Non-finite values are
    computed without a warning and left to the caller's check
    (_check_finite).
    """
    n, axes, tables = len(factors), axes or range(len(factors)), _local_tables(factors)
    W, coords, grid_shape = _quadrature_grid(tables, axes, ncoords)
    cw_sub = "".join(c + q for c, q in zip(_CELL_LETTERS[:n], _QUAD_LETTERS[:n]))
    # trial function carries alpha, test function carries beta
    subscripts = ",".join(
        [_CELL_LETTERS[k] + _QUAD_LETTERS[k] + letters[k]
         for k in range(n) for letters in (_COL_LETTERS, _ROW_LETTERS)] + [cw_sub]
    ) + "->" + _CELL_LETTERS[:n] + _ROW_LETTERS[:n] + _COL_LETTERS[:n]

    def operands(alpha, beta, CW, cells):
        """The einsum's operands on the cells of the first factor; CW is
        the weights times the coefficient on those cells."""
        ops = []
        for k in range(n):
            B = tables[k][2][cells] if k == 0 else tables[k][2]
            ops += [B[:, :, alpha[axes[k]], :], B[:, :, beta[axes[k]], :]]
        return ops + [CW]

    first = factors[0]
    per_cell = 8 * math.prod(f.cells for f in factors[1:]) * math.prod(
        (f.degree + 1) ** 2 for f in factors)
    step = max(1, _SLAB_BYTES // per_cell)
    blocks = list(_local_blocks(factors))
    # -0.0 + x is x bit for bit, so every entry is the plain sum of its cells
    band = np.full(tuple(f.dim for f in factors) + tuple(2 * f.degree + 1 for f in factors), -0.0)
    with np.errstate(invalid="ignore"):
        # each coefficient's values on the grid, a broadcast view where it
        # reads fewer axes than the grid has
        values = [np.broadcast_to(coef(coords), grid_shape).reshape(W.shape)
                  for _, _, coef in terms]
        # one slab is one einsum per term, which finds its own path
        alpha, beta, _ = terms[0]
        path = True if step >= first.cells else np.einsum_path(
            subscripts, *operands(alpha, beta, W, slice(None)), optimize=True)[0]
        for c0 in range(0, first.cells, step):
            c1 = min(c0 + step, first.cells)
            # (cells..., test functions..., trial functions...) of the slab,
            # summed into each new einsum result so that no second buffer
            # of its size is held
            elements = 0.0
            for (alpha, beta, _), vals in zip(terms, values):
                CW = W[c0:c1] * vals[c0:c1]
                E = np.einsum(subscripts, *operands(alpha, beta, CW, slice(c0, c1)),
                              optimize=path)
                E += elements
                elements = E
            for (cells, *other_cells), r, (rows, *other_rows) in blocks:
                lo, hi = max(cells.start, c0), min(cells.stop, c1)
                if lo >= hi:
                    continue
                shift = rows.start - cells.start
                # trial function t of the cell sits in slot t - r + degree of row r
                slots = tuple(slice(f.degree - rk, 2 * f.degree + 1 - rk)
                              for f, rk in zip(factors, r))
                band[(slice(lo + shift, hi + shift), *other_rows, *slots)] += \
                    elements[(slice(lo - c0, hi - c0), *other_cells, *r)]
    return band


def _load(factors, forcing, axes=None, ncoords=None):
    """Load vector: the forcing integrated against every basis function,
    factor k carrying coordinate axes[k] of ncoords as in _galerkin; a band of
    slot width 1.  Non-finite values are computed without a warning and
    left to the caller's check (_check_finite), as _galerkin leaves them."""
    n, tables = len(factors), _local_tables(factors)
    W, coords, grid_shape = _quadrature_grid(tables, axes or range(n), ncoords)
    FW = W * np.broadcast_to(forcing(coords), grid_shape).reshape(W.shape)
    # one operand per axis (cell, point, test function), then the weights
    subs = [c + q + r for c, q, r in zip(_CELL_LETTERS, _QUAD_LETTERS, _ROW_LETTERS[:n])]
    subs.append("".join(s[:2] for s in subs))
    ops = [B[:, :, 0, :] for _, _, B in tables] + [FW]
    with np.errstate(invalid="ignore"):
        Fv = np.einsum(",".join(subs) + "->" + _CELL_LETTERS[:n] + _ROW_LETTERS[:n], *ops,
                       optimize=True)
    rhs = np.zeros(tuple(f.dim for f in factors))
    for cells, r, rows in _local_blocks(factors):
        rhs[rows] += Fv[cells + r]
    return rhs.reshape(rhs.shape + (1,) * n)


def _validate_degree(spec: ProblemSpec, degree: int) -> int:
    if degree is None:
        degree = spec.m + 1
    if degree < spec.m:
        raise AssemblyError(
            f"degree {degree} cannot conform for derivative order m={spec.m}"
        )
    return degree


def _where(spec: ProblemSpec, stage: str, ell) -> str:
    at = "on the cross-section (l = inf)" if ell is None else f"at l = {ell:g}"
    return f"{stage} for problem {spec.name or 'unnamed'} {at}"


def _check_finite(spec, stage, ell, **arrays):
    """Raise AssemblyError naming the first array (None: absent) that holds
    a non-finite entry."""
    for what, values in arrays.items():
        if values is not None and not np.all(np.isfinite(values)):
            raise AssemblyError(
                f"{_where(spec, stage, ell)}: assembled {what} contains non-finite entries"
            )


def _unit(coords):
    return np.ones(())


@lru_cache(maxsize=None)
def _stencil(degree: int, bc_order: int, cells: int, pairs: tuple):
    """(bands, load) on `cells` unit cells of the degree and constraint
    order, read-only: the kernel's band with unit coefficient of each 1-D
    pair (a, b) in pairs and the unit forcing's load, each mirror symmetric
    (splines.placed).  Built on first use in a process and kept, as
    splines._gram_reference's bands are (CrossSection.stencil)."""
    factor = SplineBasis1D(0.0, cells, cells, degree, bc_order)
    bands = {(a, b): placed(_galerkin((factor,), [((a,), (b,), _unit)]), factor.dim,
                            (-1.0) ** (a + b)) for a, b in pairs}
    load = placed(_load((factor,), _unit), factor.dim)
    for ref in (*bands.values(), load):
        ref.flags.writeable = False  # every system that places from it reads it
    return bands, load


def check_half_length(spec: ProblemSpec, ell) -> None:
    """Raise AssemblyError unless ell is a finite, positive half-length."""
    if not (math.isfinite(ell) and ell > 0):
        raise AssemblyError(
            f"{_where(spec, 'assemble_cylinder', ell)}: half-length must be finite and positive"
        )


class CrossSection:
    """The half of a sweep that does not depend on l, built once.

    A sweep compares every u_l with one u_inf on omega, so what it computes
    on omega is the same at every l, and the limit system and the cylinder
    system at every l share it:

    - factors: the cross-section spline factors, those of u_inf, each
      caching the de Boor tables every field and system on it reads;
    - even, mirrored and two_part, fixed here from one pass over the
      coefficients.  An axis k (0 for x1) reflects when every cylinder
      system commutes with its reflection about the middle of its extent:
      no coefficient reads x_{k+1}, and every pair has alpha_k + beta_k
      even.  even: every axial axis reflects, which implies no nd_terms;
      the forcing may not read x1..xp and (-l, l) is symmetric, so u_l is
      then even in every x_k and the solve folds its axial bands
      (AssembledSystem.parity_blocks).  mirrored: the cross-section axes
      k (0 for x_{p+1}) that reflect; the reflection maps each basis
      function i of the axis to m(i) = N - 1 - i, and the blocks, placed
      from the stencil along it, commute with it bitwise, while the
      forcing may have either parity.  two_part: every cylinder system is
      symmetric, exactly two Kronecker parts, each with equal axial
      indices, and no n-D band;
    - keys and blocks: the axial key (alpha_axial, beta_axial) of each
      Kronecker part and its cross-section band, summed over the part's
      pairs in their order, each pair's band joined (_on_omega) from the
      placed bands of the factors its coefficient does not read and the
      kernel's on those it reads (assemble_limit's system is the zero
      key's block);
    - nd_terms: the pairs whose coefficient reads x1..xp, which go through
      the kernel on all n factors at each l;
    - load: the cross-section load vector, joined the same way from the
      placed unit loads and the kernel's load on the factors the forcing
      reads, so that its odd folds along a parity axis whose coordinate
      the forcing does not read are exactly zero;
    - stencil(cells): the kernel's 1-D band of each 1-D pair and the unit
      load on 3 d + 1 unit cells (fewer for a shorter factor), which every
      axial factor (axial) and every factor of omega places and scales
      (_placed_on), from the process's memo (_stencil), which the section
      fills for 3 d + 1 cells before any job forks;
    - eigenbasis: for a two-part system, (lam, V) of the pencil
      (C_other, C_top) of the dense symmetric cross-section blocks, top
      part first (linalg.pencil_eigenbasis), else None;
    - parity_axes: when a banded kernel solves the cylinder systems (no
      n-D band, not two-part), the mirrored cross-section axes (mirrored),
      else ().  Every system of the sweep reads the blocks, equal to their
      mirrors bitwise along these axes, and AssembledSystem.parity_blocks
      folds them per system; no folded block is kept.

    A sweep's forked jobs inherit it with all of these, and the memo with
    it.  A kernel piece of a block or the load with a non-finite entry
    raises AssemblyError at the stage `cross-section`
    (l = inf), before any system is built from them; an indefinite top
    block raises linalg.SolverError at that stage too.
    """

    def __init__(self, spec: ProblemSpec, resolution: int, degree: int | None = None):
        p, n = spec.p, spec.n
        self.spec = spec
        self.resolution = int(resolution)
        self.degree = _validate_degree(spec, degree)
        self.factors = tuple(self._factor(lo, hi) for lo, hi in spec.omega)
        coefficients = sorted(spec.coefficients.items())
        # the 1-D pairs of the stencil, and the axes k (0 for x1) whose
        # reflection some pair breaks: its coefficient reads x_{k+1}, or
        # alpha_k + beta_k is odd
        pairs, broken = set(), set()
        for (alpha, beta), coef in coefficients:
            pairs.update(zip(alpha, beta))
            broken.update(k for k in range(n) if coef.reads(k + 1) or (alpha[k] + beta[k]) % 2)
        self._pairs = tuple(sorted(pairs))
        self.even = broken.isdisjoint(range(p))
        self.mirrored = tuple(k for k in range(n - p) if p + k not in broken)
        self.stencil(3 * self.degree + 1)  # every long factor's, before any job forks
        placed = [self._placed_on(f) for f in self.factors]
        blocks, self.nd_terms = {}, []
        for (alpha, beta), coef in coefficients:
            if coef.reads_axial(p):
                self.nd_terms.append((alpha, beta, coef))
                continue
            bands = [on_k[alpha[p + k], beta[p + k]] for k, (on_k, _) in enumerate(placed)]
            C = self._on_omega(coef, "matrix", bands,
                               lambda f, axes: _galerkin(f, [(alpha, beta, coef)], axes, n))
            key = (alpha[:p], beta[:p])
            blocks[key] = blocks[key] + C if key in blocks else C
        self.keys, self.blocks = tuple(blocks), tuple(blocks.values())
        self.two_part = (spec.symmetric and not self.nd_terms and len(self.keys) == 2
                         and all(a == b for a, b in self.keys))
        self.load = self._on_omega(spec.forcing, "rhs", [load for _, load in placed],
                                   lambda f, axes: _load(f, spec.forcing, axes, n)).ravel()
        self.parity_axes = () if self.nd_terms or self.two_part else self.mirrored
        self.eigenbasis = None
        if self.two_part:
            self.eigenbasis = pencil_eigenbasis(*_cross_pencil(self.blocks, self.keys),
                                                _where(spec, "cross-section", None))
        for shared in self.blocks + (self.load,) + (self.eigenbasis or ()):
            shared.flags.writeable = False  # every system reads them

    def _on_omega(self, field, what, pieces, kernel):
        """The band (or the load) on omega of field times the 1-D pieces:
        pieces[k], the unit-coefficient band of factor k, for every factor
        whose coordinate field does not read, joined (_outer) with
        kernel(factors, axes), the kernel's on the factors it reads (which
        are consecutive: omega has at most two), or with field's constant
        value when it reads none.  That value is checked first, as the
        stage `cross-section`: an infinity would meet the zero slots."""
        p, q = self.spec.p, len(pieces)
        read = [k for k in range(q) if field.reads(p + k + 1)]
        value = (kernel([self.factors[k] for k in read], [p + k for k in read]) if read
                 else field((0.0,) * self.spec.n))
        _check_finite(self.spec, "cross-section", None, **{what: value})
        pieces[min(read, default=0) : max(read, default=-1) + 1] = [value]
        return _outer(pieces)

    def stencil(self, cells: int):
        """(bands, load) that a factor of `cells` uniform cells is placed
        from (_placed_on): the kernel's on min(cells, 3 d + 1) unit cells
        (_stencil).  bands maps each 1-D pair (a, b) that a coefficient has
        on some axis to its band with unit coefficient, and load is the
        unit forcing's load.  On 3 d + 1 cells the centre row, that of
        function 2 d before the constraint, couples functions d..3 d, which
        are all uniform B-splines the constraint keeps, for every m <= d:
        an interior row.  So every factor of that many cells or more reads
        one stencil; a shorter one, whose rows near one end also see the
        other end's knots, reads one of its own cell count.
        """
        return _stencil(self.degree, self.spec.m, min(cells, 3 * self.degree + 1), self._pairs)

    def _placed_on(self, factor):
        """(bands, load) of a factor of uniform cells, of the section's
        degree and constraint: each band of the stencil (a key (a, b) of
        stencil(factor.cells)) and the unit forcing's load, placed
        (splines.placed) and scaled to the factor's cell width h, the band
        by h^(1 - a - b) and the load by h."""
        refs, ref_load = self.stencil(factor.cells)
        h, n = factor.h, factor.dim
        bands = {(a, b): placed(ref, n, (-1.0) ** (a + b)) * h ** (1 - a - b)
                 for (a, b), ref in refs.items()}
        # the kernel's band of (b, a) is that of (a, b) transposed, bitwise;
        # rows placed from different reference rows keep that only up to
        # rounding, and the average with the transpose keeps it bitwise
        bands = {(a, b): 0.5 * (band + _transposed(bands[b, a])) if (b, a) in bands else band
                 for (a, b), band in bands.items()}
        return bands, placed(ref_load, n) * h

    def axial(self, factor):
        """(bands, load) of a cylinder whose p axial factors are `factor`:
        each key's axial band and the unit forcing's axial load, the outer
        products (_outer) of the factor's placed ones (_placed_on)."""
        placed, line = self._placed_on(factor)
        p = self.spec.p
        bands = [_outer([placed[ab] for ab in zip(alpha, beta)]) for alpha, beta in self.keys]
        return bands, _outer([line] * p).reshape((factor.dim,) * p)

    def _factor(self, lo, hi) -> SplineBasis1D:
        """The spline factor on (lo, hi) at the section's resolution and
        degree, constrained to order m."""
        return SplineBasis1D(lo, hi, cells_for((lo, hi), self.resolution), self.degree,
                             self.spec.m)

    def cylinder_basis(self, ell) -> TensorBasis:
        """The space on (-ell, ell)^p x omega: p new axial factors times
        these cross-section factors."""
        ell = float(ell)
        return TensorBasis(tuple(self._factor(-ell, ell) for _ in range(self.spec.p))
                           + self.factors)


def assemble_cylinder(section: CrossSection, ell: float) -> AssembledSystem:
    """Full problem on (-ell, ell)^p x omega with Dirichlet order m, for the
    problem, resolution and degree of section.

    Only the axial pieces are built here: each Kronecker part's axial
    band and the axial load, placed from the section's stencil
    (CrossSection.axial), and the n-D band, by the kernel, if a pair needs
    it.  The cross-section blocks and load come from section.
    """
    spec = section.spec
    check_half_length(spec, ell)
    p = spec.p
    if spec.forcing.reads_axial(p):
        axial = "x1" if p == 1 else f"x1..x{p}"
        raise AssemblyError(
            f"{_where(spec, 'assemble_cylinder', ell)}: the forcing reads {axial}; "
            "the load vector needs an axis-independent forcing"
        )
    basis = section.cylinder_basis(ell)
    factors = basis.factors
    bands, load = section.axial(factors[0])
    nd_band = _galerkin(factors, section.nd_terms) if section.nd_terms else None
    _check_finite(spec, "assemble_cylinder", ell, matrix=nd_band)
    rhs = np.multiply.outer(load, section.load).ravel()
    return AssembledSystem(rhs, basis, section, float(ell), tuple(zip(bands, section.blocks)),
                           nd_band)


def assemble_limit(section: CrossSection) -> AssembledSystem:
    """Cross-section problem of section: pairs with purely cross-sectional
    indices.

    Its band is the cross-section block of the zero axial part, which the
    cylinder systems share, and its load the cross-section load.  A limit
    pair whose coefficient reads x1..xp, which the hypotheses refuse, has no
    such block, and is refused.
    """
    spec = section.spec
    p = spec.p
    pairs = sorted(spec.limit_pairs())
    if not pairs:
        raise AssemblyError(
            f"{_where(spec, 'assemble_limit', None)}: limit problem has no coefficient pairs"
        )
    if any(spec.coefficients[pair].reads_axial(p) for pair in pairs):
        axial = "x1" if p == 1 else f"x1..x{p}"
        raise AssemblyError(
            f"{_where(spec, 'assemble_limit', None)}: a limit pair's coefficient reads "
            f"{axial}; the limit problem needs axis-independent coefficients"
        )
    band = section.blocks[section.keys.index(((0,) * p, (0,) * p))]
    return AssembledSystem(section.load, TensorBasis(section.factors), section, None, (), band)
