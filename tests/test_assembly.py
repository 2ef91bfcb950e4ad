"""Assembly oracles.

The hand-derived hat-function system and the Kronecker-sum identity pin down
constant-coefficient assembly; a brute-force dense quadrature loop on any
number of axes (written here, sharing no code with the einsum engine or the
band layout) covers variable coefficients, coefficients that read the axial
variables, the fourth-order case and 3-D boxes.  On 3-D boxes the Kronecker
assembly is also checked against the einsum kernel run on all three axes.
The LAPACK lower band storage and the matrix-vector product that the direct
solve reads are checked against dense_oracle.oracle_csr, the CSR matrix
built from a full band without the slot walk that writes the bands, and
every test reads A from it.  AssembledSystem.matrix, written from that walk
for the benchmark's trace mode, is checked against it bit for bit.
"""

import dataclasses
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from dense_oracle import (
    _in_space,
    _to_csr,
    assembled_cylinder,
    assembled_limit,
    band_apply_per_call,
    dense_basis_matrix,
    even_extension,
    kronecker_pencil,
    odd_extension,
    oracle_csr,
    parity_extension,
    transposed_band,
)

from cylasym import assembly
from cylasym.assembly import (
    AssemblyError,
    CrossSection,
    _dense,
    _folded_band,
    _folded_rows,
    _galerkin,
    _load,
    _unit,
    assemble_cylinder,
    assemble_limit,
    band_apply,
)
from cylasym.problem import (
    ProblemSpec,
    ScalarField,
    analytic_limit,
    builtin_problem,
    parse_problem_config,
)
from cylasym.analysis import CutoffRho
from cylasym.harness import SweepPlan, run_sweep
from cylasym.splines import DiscreteField, SplineBasis1D, axis_grams, composite_gauss


def _gauss(basis, ppc=None):
    return composite_gauss((basis.lo, basis.hi), basis.cells, ppc or basis.degree + 1)


def _dense_1d(basis, der, ppc=None):
    pts, wts = _gauss(basis, ppc)
    B = dense_basis_matrix(basis, pts, der=der)
    return B, wts


def _matrix_1d(basis, der_row, der_col, weight_fn=None):
    Brow, wts = _dense_1d(basis, der_row)
    Bcol, _ = _dense_1d(basis, der_col)
    pts, _ = _gauss(basis)
    w = wts * (weight_fn(pts) if weight_fn else 1.0)
    return (Brow * w[:, None]).T @ Bcol


def test_hat_limit_system_frozen():
    # degree-1 splines, 4 cells on (0,1): stiffness 8 on the diagonal, -4 off,
    # load h = 1/4; nodal values of t(1-t)/2 are reproduced exactly.
    system = assembled_limit(builtin_problem("poisson_strip"), resolution=4, degree=1)
    A = oracle_csr(system).toarray()
    want = np.array([[8.0, -4.0, 0.0], [-4.0, 8.0, -4.0], [0.0, -4.0, 8.0]])
    assert np.allclose(A, want, atol=1e-12)
    assert np.allclose(system.rhs, 0.25, atol=1e-15)
    x = np.linalg.solve(oracle_csr(system).toarray(), system.rhs)
    assert np.allclose(x, [3.0 / 32.0, 4.0 / 32.0, 3.0 / 32.0], atol=1e-14)


def test_kronecker_sum_identity():
    # constant-coefficient second order problem factorizes axis by axis
    spec = builtin_problem("poisson_strip")
    system = assembled_cylinder(spec, ell=1.0, resolution=4, degree=2)
    ax, cx = system.basis.factors
    A1 = _matrix_1d(ax, 1, 1)
    M1 = _matrix_1d(ax, 0, 0)
    A2 = _matrix_1d(cx, 1, 1)
    M2 = _matrix_1d(cx, 0, 0)
    want = np.kron(A1, M2) + np.kron(M1, A2)
    got = oracle_csr(system).toarray()
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_rhs_factorizes_for_constant_forcing():
    spec = builtin_problem("poisson_strip")
    system = assembled_cylinder(spec, ell=1.0, resolution=4, degree=2)
    ax, cx = system.basis.factors
    B1, w1 = _dense_1d(ax, 0)
    B2, w2 = _dense_1d(cx, 0)
    want = np.outer(w1 @ B1, w2 @ B2).ravel()
    assert np.abs(system.rhs - want).max() <= 1e-13


def test_matrix_spd_and_symmetric():
    system = assembled_cylinder(builtin_problem("poisson_strip"), ell=1.0, resolution=4)
    A = oracle_csr(system)
    assert system.symmetric
    assert (A != A.T).nnz == 0
    eigs = np.linalg.eigvalsh(A.toarray())
    assert eigs.min() > 0


def _kron_rows(tables):
    """Rows of the tensor product of per-axis (points, dim) tables, one row
    per point of the tensor grid in C order."""
    out = np.ones((1, 1))
    for B in tables:
        out = np.einsum("pi,qj->pqij", out, B).reshape(out.shape[0] * B.shape[0], -1)
    return out


def _brute_force(system, spec):
    factors = system.basis.factors
    rules = [_gauss(f) for f in factors]
    X = np.meshgrid(*(pts for pts, _ in rules), indexing="ij")
    w = _kron_rows([wts[:, None] for _, wts in rules]).ravel()
    ndofs = system.ndofs
    A = np.zeros((ndofs, ndofs))
    for (alpha, beta), coef in spec.coefficients.items():
        a_vals = np.broadcast_to(coef(tuple(X)), X[0].shape).ravel()
        Bcol = _kron_rows(
            [dense_basis_matrix(f, pt, a) for f, (pt, _), a in zip(factors, rules, alpha)]
        )
        Brow = _kron_rows(
            [dense_basis_matrix(f, pt, b) for f, (pt, _), b in zip(factors, rules, beta)]
        )
        A += (Brow * (w * a_vals)[:, None]).T @ Bcol
    f_vals = np.broadcast_to(spec.forcing(tuple(X)), X[0].shape).ravel()
    B0 = _kron_rows([dense_basis_matrix(f, pts, 0) for f, (pts, _) in zip(factors, rules)])
    rhs = B0.T @ (w * f_vals)
    return A, rhs


def _shared_cell_pattern(factors):
    """Which pairs of basis functions share a cell: B-splines are positive
    inside their support, so two share a cell iff their values overlap."""
    shared = np.ones((1, 1), dtype=bool)
    for f in factors:
        B = np.abs(dense_basis_matrix(f, _gauss(f)[0]))
        shared = np.kron(shared, B.T @ B > 0)
    return shared


def test_variable_coefficient_matches_brute_force():
    spec = builtin_problem("varcoef_strip")
    system = assembled_cylinder(spec, ell=1.0, resolution=3, degree=2)
    want_A, want_rhs = _brute_force(system, spec)
    scale = np.abs(want_A).max()
    assert np.abs(oracle_csr(system).toarray() - want_A).max() <= 1e-12 * scale
    assert np.abs(system.rhs - want_rhs).max() <= 1e-13 * max(1.0, np.abs(want_rhs).max())


def test_biharmonic_cylinder_matches_brute_force():
    # the mixed (2,0)/(0,2) pairs put off-diagonal blocks on the axial factor
    spec = builtin_problem("biharmonic_strip")
    system = assembled_cylinder(spec, ell=1.0, resolution=5, degree=3)
    want_A, want_rhs = _brute_force(system, spec)
    A = oracle_csr(system)
    # the kernel sums a mirror pair's cells in different orders: A - A^T
    # measured 7.2e-17 of A's largest entry
    assert abs(A - A.T).max() <= 1e-16 * abs(A).max()
    assert np.abs(A.toarray() - want_A).max() <= 1e-12 * np.abs(want_A).max()
    assert np.abs(system.rhs - want_rhs).max() <= 1e-13


def _mixed_axial_spec(off="x2", zero="1 + x2"):
    # one pair reads the axial variable, the others do not; the (1,0)/(0,0)
    # pairs give the Kronecker part off-diagonal axial blocks, or with an
    # `off` that reads x1 join the first pair in the n-D band, as the
    # (0,0)/(0,0) pair does with a `zero` that reads x1
    texts = {
        ((1, 0), (1, 0)): "2 + sin(x1)",
        ((0, 1), (0, 1)): "1 + x2^2 / 2",
        ((0, 0), (0, 0)): zero,
        ((1, 0), (0, 0)): off,
        ((0, 0), (1, 0)): off,
    }
    return ProblemSpec(
        m=1,
        n=2,
        p=1,
        omega=((0.0, 1.0),),
        coefficients={key: ScalarField.parse(t, 2) for key, t in texts.items()},
        forcing=ScalarField.parse("1", 2),
    )


def test_axial_coefficient_matches_brute_force():
    spec = _mixed_axial_spec()
    system = assembled_cylinder(spec, ell=1.0, resolution=3, degree=2)
    A = oracle_csr(system)
    assert system.symmetric
    # A - A^T measured 2.3e-17 of A's largest entry
    assert abs(A - A.T).max() <= 1e-16 * abs(A).max()
    want_A, want_rhs = _brute_force(system, spec)
    assert np.abs(A.toarray() - want_A).max() <= 1e-12 * np.abs(want_A).max()
    assert np.abs(system.rhs - want_rhs).max() <= 1e-13


def _box_spec(p, axial_text=None):
    # x3 is cross-sectional for p = 1 and p = 2; the (1,0,0)/(0,1,0) pairs
    # are axial-cross for p = 1 and axial-axial for p = 2, and unequal, and
    # (1,0,0)/(0,0,0) has no partner, so the problem is not symmetric;
    # axial_text replaces the first coefficient, e.g. by one that reads x1
    texts = {
        ((1, 0, 0), (1, 0, 0)): axial_text or "1 + x3^2",
        ((0, 1, 0), (0, 1, 0)): "2 + x3",
        ((0, 0, 1), (0, 0, 1)): "1",
        ((1, 0, 0), (0, 1, 0)): "0.25",
        ((0, 1, 0), (1, 0, 0)): "0.5",
        ((0, 0, 0), (0, 0, 0)): "x3",
        ((1, 0, 0), (0, 0, 0)): "x3 / 2",
    }
    return ProblemSpec(
        m=1,
        n=3,
        p=p,
        omega=((0.0, 1.0),) * (3 - p),
        coefficients={key: ScalarField.parse(t, 3) for key, t in texts.items()},
        forcing=ScalarField.parse("1", 3),
    )


@pytest.mark.parametrize("p", [1, 2])
def test_kronecker_assembly_matches_nd_kernel(p):
    spec = _box_spec(p)
    system = assembled_cylinder(spec, ell=1.0, resolution=3, degree=2)
    terms = [(a, b, spec.coefficients[(a, b)]) for a, b in sorted(spec.coefficients)]
    want = _to_csr(_galerkin(system.basis.factors, terms))
    got = oracle_csr(system)
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.abs(got.data - want.data).max() <= 1e-13 * np.abs(want.data).max()


@pytest.mark.parametrize("axial_text", [None, "2 + sin(x1)"])
@pytest.mark.parametrize("p", [1, 2])
def test_box_assembly_matches_brute_force(p, axial_text):
    # with axial_text one pair reads x1 and goes through the n-D kernel
    spec = _box_spec(p, axial_text)
    system = assembled_cylinder(spec, ell=1.0, resolution=3, degree=2)
    A = oracle_csr(system)
    pattern = sp.csr_matrix(_shared_cell_pattern(system.basis.factors))
    assert A.indices.dtype == np.int32
    assert np.array_equal(A.indptr, pattern.indptr)
    assert np.array_equal(A.indices, pattern.indices)
    want_A, want_rhs = _brute_force(system, spec)
    assert np.abs(A.toarray() - want_A).max() <= 1e-13 * np.abs(want_A).max()
    assert np.abs(system.rhs - want_rhs).max() <= 1e-13 * np.abs(want_rhs).max()


@pytest.mark.parametrize(
    "name,resolution,degree",
    [
        ("poisson_strip", 3, 1),
        ("poisson_strip", 3, 2),
        ("varcoef_strip", 3, 3),
        ("biharmonic_strip", 5, 3),
        ("biharmonic_strip", 5, 4),
    ],
)
def test_fewest_cells_match_brute_force(name, resolution, degree):
    # 2m + 1 cells on every factor, the fewest SplineBasis1D accepts: the
    # first and last local functions are kept on m + 1 cells only
    spec = builtin_problem(name)
    system = assembled_cylinder(spec, ell=0.5, resolution=resolution, degree=degree)
    assert {f.cells for f in system.basis.factors} == {2 * spec.m + 1}
    want_A, want_rhs = _brute_force(system, spec)
    assert np.abs(oracle_csr(system).toarray() - want_A).max() <= 1e-12 * np.abs(want_A).max()
    assert np.abs(system.rhs - want_rhs).max() <= 1e-13 * np.abs(want_rhs).max()

def test_axial_coefficient_assembly_memory():
    # the Laplacian on (-2, 2) x (0, 1)^2 with one coefficient that reads x1:
    # the n-D kernel's peak stays a small multiple of the matrix it returns
    texts = {
        ((1, 0, 0), (1, 0, 0)): "2 + sin(x1)",
        ((0, 1, 0), (0, 1, 0)): "1",
        ((0, 0, 1), (0, 0, 1)): "1",
    }
    spec = ProblemSpec(
        m=1, n=3, p=1, omega=((0.0, 1.0),) * 2,
        coefficients={key: ScalarField.parse(t, 3) for key, t in texts.items()},
        forcing=ScalarField.parse("1", 3),
    )
    tracemalloc.start()
    try:
        system = assembled_cylinder(spec, ell=2.0, resolution=6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    A = oracle_csr(system)
    assert peak <= 20 * (A.data.nbytes + A.indices.nbytes + A.indptr.nbytes)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_every_local_function_is_kept_on_some_cell_at_the_fewest_cells(m):
    # the kernel's blocks (_local_blocks) take every local function r to be
    # kept by the constraint on some cell of its factor; SplineBasis1D's
    # minimum of 2 bc_order + 1 cells is what keeps it, for every degree and
    # constraint order
    for degree in range(m, m + 3):
        for bc_order in range(degree + 1):
            cells = 2 * bc_order + 1
            with pytest.raises(ValueError, match="cells"):
                SplineBasis1D(0.0, 1.0, cells - 1, degree, bc_order)
            f = SplineBasis1D(0.0, 1.0, cells, degree, bc_order)
            _, valid = f.window(np.arange(f.cells))
            assert valid.any(axis=0).all(), (degree, bc_order)
            locals_ = range(degree, -1, -1)
            assert [r for _, r, _ in assembly._local_blocks([f, f])] == \
                list(itertools.product(locals_, locals_))


def test_the_nd_kernel_holds_one_slab_of_elements():
    # the benchmark's box3d at 12 cells/unit with a_1_0_0_1_0_0 = 2 + sin(x1),
    # l = 4: the n-D band is 13.2 MiB, and assemble_cylinder peaked at
    # 24.8 MiB traced with slabs of 4 MiB; holding the whole element array
    # (cells, 27, 27) and its einsum intermediates, it peaked at 134 MiB
    spec = _laplace_box(1, "2 + sin(x1)")
    section = CrossSection(spec, 12)
    tracemalloc.start()
    try:
        system = assemble_cylinder(section, ell=4.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert system.nd_band.nbytes > 13 * 2**20
    assert peak <= 2.5 * system.nd_band.nbytes, peak / 2**20


def test_the_nd_product_holds_no_copy_of_the_band():
    # the same system: a product is one band_apply of the n-D band as it is,
    # 0.033 of the band's 13.2 MiB traced (the padded x, the result and the
    # sums); forming the band's transpose one chunk of rows at a time for
    # (A + A^T) x / 2 too took 0.31
    system = assembled_cylinder(_laplace_box(1, "2 + sin(x1)"), ell=4.0, resolution=12)
    x = np.random.default_rng(2).standard_normal(system.ndofs)
    system.matvec(x)
    tracemalloc.start()
    try:
        system.matvec(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.05 * system.nd_band.nbytes, peak / system.nd_band.nbytes


class _Recorder:
    """A coefficient that records the point-grid shape of every evaluation."""

    def __init__(self, text, n):
        self._field = ScalarField.parse(text, n)
        self.expr = self._field.expr
        self.shapes = []

    def reads_axial(self, p):
        return self._field.reads_axial(p)

    def reads(self, k):
        return self._field.reads(k)

    def __call__(self, coords):
        self.shapes.append(np.broadcast(*coords).shape)
        return self._field(coords)


def test_axis_independent_pairs_skip_the_full_grid():
    texts = {
        ((1, 0), (1, 0)): "2 + sin(x1)",
        ((0, 1), (0, 1)): "1 + x2^2 / 2",
        ((0, 0), (0, 0)): "1",
    }
    coefs = {key: _Recorder(t, 2) for key, t in texts.items()}
    spec = ProblemSpec(
        m=1, n=2, p=1, omega=((0.0, 1.0),), coefficients=coefs,
        forcing=ScalarField.parse("1", 2),
    )
    # the constant reads no coordinate of omega either, so it is evaluated
    # once, at a point, and scales the placed bands
    system = assembled_cylinder(spec, ell=2.0, resolution=4, degree=2)
    full = tuple(f.cells * (f.degree + 1) for f in system.basis.factors)
    cross = full[1:]
    assert coefs[((1, 0), (1, 0))].shapes == [full]
    assert coefs[((0, 1), (0, 1))].shapes == [cross]
    assert coefs[((0, 0), (0, 0))].shapes == [()]


def test_biharmonic_limit_matches_brute_force():
    spec = builtin_problem("biharmonic_strip")
    system = assembled_limit(spec, resolution=8, degree=3)
    basis = system.basis.factors[0]
    want = _matrix_1d(basis, 2, 2)
    assert np.abs(oracle_csr(system).toarray() - want).max() <= 1e-11 * np.abs(want).max()


@pytest.mark.parametrize("name,degree", [("poisson_strip", 1), ("biharmonic_strip", 3)])
def test_limit_solution_converges_to_analytic(name, degree):
    # degree chosen so the polynomial solution is NOT in the spline space
    spec = builtin_problem(name)
    exact = analytic_limit(name)
    ts = np.linspace(0.05, 0.95, 19)
    errs = []
    for res in (8, 16):
        system = assembled_limit(spec, resolution=res, degree=degree)
        u = DiscreteField(system.basis, np.linalg.solve(oracle_csr(system).toarray(), system.rhs))
        errs.append(np.abs(u.eval_grid([ts], (0,)) - exact(ts, 0)).max())
    assert errs[0] > 1e-12
    assert errs[1] <= errs[0] / 3.5


@pytest.mark.parametrize("name,degree", [("poisson_strip", 2), ("biharmonic_strip", 4)])
def test_limit_solution_exact_when_space_contains_it(name, degree):
    # the analytic solutions are polynomials of degree 2m, so splines of that
    # degree reproduce them and Galerkin returns them to machine precision
    spec = builtin_problem(name)
    exact = analytic_limit(name)
    system = assembled_limit(spec, resolution=8, degree=degree)
    u = DiscreteField(system.basis, np.linalg.solve(oracle_csr(system).toarray(), system.rhs))
    ts = np.linspace(0.0, 1.0, 33)
    assert np.abs(u.eval_grid([ts], (0,)) - exact(ts, 0)).max() <= 1e-13


def test_solution_conforms_at_boundary():
    spec = builtin_problem("biharmonic_strip")
    system = assembled_cylinder(spec, ell=1.0, resolution=6, degree=3)
    u = DiscreteField(system.basis, np.linalg.solve(oracle_csr(system).toarray(), system.rhs))
    ts = np.linspace(0.0, 1.0, 9)
    for alpha in [(0, 0), (0, 1)]:  # axial boundary
        assert np.abs(u.eval_grid([[1.0], ts], alpha)).max() <= 1e-12
    xs = np.linspace(-1.0, 1.0, 9)
    for alpha in [(0, 0), (1, 0)]:
        assert np.abs(u.eval_grid([xs, [0.0]], alpha)).max() <= 1e-12


def test_assembly_deterministic():
    spec = builtin_problem("varcoef_strip")
    s1 = assembled_cylinder(spec, ell=2.0, resolution=4)
    s2 = assembled_cylinder(spec, ell=2.0, resolution=4)
    assert np.array_equal(oracle_csr(s1).data, oracle_csr(s2).data)
    assert np.array_equal(oracle_csr(s1).indices, oracle_csr(s2).indices)
    assert np.array_equal(s1.rhs, s2.rhs)


def test_limit_requires_cross_pairs():
    spec = ProblemSpec(
        m=1,
        n=2,
        p=1,
        omega=((0.0, 1.0),),
        coefficients={((1, 0), (1, 0)): ScalarField.parse("1", 2)},
        forcing=ScalarField.parse("1", 2),
    )
    with pytest.raises(AssemblyError, match="no coefficient pairs"):
        assembled_limit(spec, resolution=4)


@pytest.mark.parametrize("p", [1, 2])
def test_cylinder_load_is_axial_load_times_limit_load(p):
    spec = dataclasses.replace(_box_spec(p), forcing=ScalarField.parse("1 + x3^2", 3))
    system = assembled_cylinder(spec, ell=1.5, resolution=4, degree=2)
    limit = assembled_limit(spec, resolution=4, degree=2)
    axial = np.ones(())
    for f in system.basis.factors[:p]:
        pts, wts = composite_gauss((f.lo, f.hi), f.cells, 3)
        axial = np.multiply.outer(axial, dense_basis_matrix(f, pts).T @ wts)
    want = np.multiply.outer(axial, limit.rhs).ravel()
    assert np.abs(system.rhs - want).max() <= 1e-15 * np.abs(want).max()


@pytest.mark.parametrize("p,text,named", [(1, "1 + x1", "x1"), (2, "x2 * x3", "x1..x2")])
def test_forcing_that_reads_axial_variables_is_refused(p, text, named):
    spec = dataclasses.replace(_box_spec(p), forcing=ScalarField.parse(text, 3), name="box")
    with pytest.raises(AssemblyError, match=rf"assemble_cylinder for problem box at l = 1\.5: "
                                            rf"the forcing reads {named};"):
        assembled_cylinder(spec, ell=1.5, resolution=4, degree=2)


def test_degree_below_m_rejected():
    with pytest.raises(AssemblyError, match="cannot conform"):
        assembled_cylinder(builtin_problem("biharmonic_strip"), ell=1.0, resolution=6, degree=1)


def _laplace_box(p, first="1"):
    # the benchmark's box: the Laplacian on (-l, l)^p x (0, 1)^(3 - p); first
    # replaces the x1 coefficient, e.g. by one that reads x1
    texts = {((1, 0, 0), (1, 0, 0)): first, ((0, 1, 0), (0, 1, 0)): "1",
             ((0, 0, 1), (0, 0, 1)): "1"}
    return ProblemSpec(
        m=1, n=3, p=p, omega=((0.0, 1.0),) * (3 - p),
        coefficients={key: ScalarField.parse(t, 3) for key, t in texts.items()},
        forcing=ScalarField.parse("sin(3.141592653589793 * x3)", 3),
    )


@pytest.mark.parametrize("spec,resolution", [
    (_laplace_box(1, "2 + sin(x1)"), 4),
    (_box_spec(1, "1 + x1^2 * x3"), 3),
    (_laplace_box(2, "2 + sin(x1 * x2)"), 3),
], ids=["box3d_sin_x1", "nonsymmetric", "p2"])
def test_the_nd_band_is_the_same_on_any_slab_size(monkeypatch, spec, resolution):
    # slabs of one cell, of a few cells, and one slab: each entry sums its
    # cells in ascending order whatever the slabs, so the band is bitwise one
    section = CrossSection(spec, resolution)
    bands = []
    for slab_bytes in (1, 2**14, 2**40):
        monkeypatch.setattr(assembly, "_SLAB_BYTES", slab_bytes)
        bands.append(assemble_cylinder(section, ell=1.0).nd_band.tobytes())
    assert bands[0] == bands[1] == bands[2]


_SYMMETRIC_CASES = {
    "poisson": (builtin_problem("poisson_strip"), 3.0, 6),
    "biharmonic": (builtin_problem("biharmonic_strip"), 2.0, 8),
    "varcoef": (builtin_problem("varcoef_strip"), 2.0, 6),
    "box3d_p1": (_laplace_box(1), 1.0, 4),
    "box3d_p2": (_laplace_box(2), 1.0, 4),
    "box3d_sin_x1": (_laplace_box(1, "2 + sin(x1)"), 1.0, 4),
    "strip_sin_x1": (_mixed_axial_spec(), 2.0, 5),
}


@pytest.fixture(params=[(name, where) for name in _SYMMETRIC_CASES for where in ("cyl", "lim")],
                ids=lambda param: "-".join(param))
def symmetric_system(request):
    name, where = request.param
    spec, ell, resolution = _SYMMETRIC_CASES[name]
    if where == "cyl":
        return assembled_cylinder(spec, ell=ell, resolution=resolution)
    return assembled_limit(spec, resolution=resolution)


def test_lower_band_is_the_lower_diagonals_of_the_matrix(symmetric_system):
    system = symmetric_system
    assert system.symmetric
    ab, a_norm = system.lower_band(), system.inf_norm()
    A = oracle_csr(system)
    n = system.ndofs
    assert ab.flags.f_contiguous and ab.shape[1] == n
    strides = np.cumprod([1] + [f.dim for f in system.basis.factors][:0:-1])[::-1]
    assert ab.shape[0] == 1 + sum(f.degree * k for f, k in zip(system.basis.factors, strides))
    for q in range(ab.shape[0]):
        # bit for bit, signed zeros included
        assert ab[q, : n - q].tobytes() == A.diagonal(-q).tobytes()
        assert not ab[q, n - q :].any()
    want = abs(A).sum(axis=1).max()
    assert abs(a_norm - want) <= 1e-15 * want


def test_symmetric_matvec_matches_the_matrix(symmetric_system):
    system = symmetric_system
    x = np.random.default_rng(7).standard_normal(system.ndofs)
    a_norm = system.inf_norm()
    got = system.matvec(x)
    assert np.abs(got - oracle_csr(system) @ x).max() <= 1e-15 * a_norm * np.abs(x).max()


@pytest.mark.parametrize("spec,ell,resolution", [
    (builtin_problem("biharmonic_strip"), 1.0, 5),
    (_mixed_axial_spec(off="x1", zero="2 + x1"), 1.0, 4),
], ids=["biharmonic", "strip_sin_x1"])
def test_a_symmetric_system_is_the_matrix_its_kernel_assembles(spec, ell, resolution):
    # the Kronecker parts (biharmonic) and the kernel (strip_sin_x1, whose
    # n-D band holds a symmetric pair, then the pairs (1,0)/(0,0) that read x1)
    # sum the two entries of a mirror pair in different orders, so A is
    # symmetric only up to roundoff; lower_band writes A's own lower
    # triangle and matvec multiplies by A itself, checked against the
    # oracle's CSR of the full band
    system = assembled_cylinder(spec, ell=ell, resolution=resolution)
    assert system.symmetric
    A, n = oracle_csr(system), system.ndofs
    assert (A != A.T).nnz > 0
    ab = system.lower_band()
    for q in range(ab.shape[0]):
        assert ab[q, : n - q].tobytes() == A.diagonal(-q).tobytes()
    x = np.random.default_rng(9).standard_normal(n)
    a_norm = abs(A).sum(axis=1).max()
    assert np.abs(system.matvec(x) - A @ x).max() <= 1e-15 * a_norm * np.abs(x).max()


@pytest.mark.parametrize("p,axial_text,where", [
    (1, None, "cyl"), (1, None, "lim"), (2, None, "cyl"), (1, "2 + sin(x1)", "cyl"),
])
def test_nonsymmetric_pieces_match_the_matrix(p, axial_text, where):
    # matvec, |A|_inf and the general band read the pieces, not the CSR
    spec = _box_spec(p, axial_text)
    if where == "cyl":
        system = assembled_cylinder(spec, ell=1.0, resolution=3, degree=2)
    else:
        system = assembled_limit(spec, resolution=3, degree=2)
    assert not system.symmetric
    A = oracle_csr(system).toarray()
    x = np.random.default_rng(8).standard_normal(system.ndofs)
    ab, a_norm = system.general_band(), system.inf_norm()
    want = np.abs(A).sum(axis=1).max()
    assert abs(a_norm - want) <= 1e-15 * want
    assert np.abs(system.matvec(x) - A @ x).max() <= 1e-15 * want * np.abs(x).max()
    kd = (ab.shape[0] - 1) // 3
    assert ab.flags.f_contiguous and ab.shape[1] == system.ndofs
    assert not ab[:kd].any()  # dgbsv's rows for the fill-in
    for c in range(-kd, kd + 1):  # column minus row
        n = system.ndofs - abs(c)
        assert ab[2 * kd - c, max(c, 0) : max(c, 0) + n].tobytes() == np.diagonal(A, c).tobytes()


def _raw_band(rng, dims, widths, outside=np.nan):
    """A random band whose out-of-space slots hold `outside`."""
    band = rng.standard_normal(tuple(dims) + tuple(widths))
    return np.where(_in_space(band.shape), band, outside)


@pytest.mark.parametrize("dims,widths,lead", [
    ((9,), (3,), 0), ((9,), (5,), 1), ((9,), (7,), 2), ((6, 7), (3, 5), 0), ((6, 7), (5, 3), 1),
])
@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("transpose", [False, True])
def test_band_apply_matches_the_per_call_kernel(dims, widths, lead, order, transpose):
    # band_apply reads a band, zero outside its space, as it is, and pads X
    # into a zero buffer of numpy.pad's memory order; the reference masks
    # the band, or forms its transpose, on every call and pads with
    # numpy.pad.  With transpose, band_apply reads the reference's
    # band-layout transpose, whose out-of-space zeros sit at the other end
    # of each row's slots.  A Fortran-ordered X (and a C-ordered one with
    # its spanned axes last) pads into a Fortran buffer, whose sums run in
    # another order than a C buffer's
    rng = np.random.default_rng(len(dims) * 10 + lead)
    band = _raw_band(rng, dims, widths, 0.0)
    shape = [4, 5, 3][: lead] + list(dims) + [3, 4][: 3 - lead - len(dims)]
    X = np.asarray(rng.standard_normal(shape), order=order)
    got = band_apply(transposed_band(band) if transpose else band, X, lead)
    want = band_apply_per_call(band, X, lead, transpose)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert np.isfinite(got).all()


def test_kronecker_pencil_rebuilds_the_two_part_matrix():
    system = assembled_cylinder(builtin_problem("varcoef_strip"), ell=2.0, resolution=6)
    assert system.two_part
    (a_top, a_other), (c_top, c_other) = kronecker_pencil(system)
    dense = [_dense(a) for a in (a_top, a_other)]
    # the top part is the one with the axial derivatives: its axial block is
    # the 1-D stiffness, whose rows sum to zero away from the boundary
    assert abs(dense[0][5].sum()) <= 1e-12 * np.abs(dense[0][5]).max()
    want = oracle_csr(system).toarray()
    got = np.kron(dense[0], c_top) + np.kron(dense[1], c_other)
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
    assert np.all(np.linalg.eigvalsh(c_top) > 0.0)


@pytest.mark.parametrize("name", ["biharmonic", "box3d_p2", "box3d_sin_x1", "strip_sin_x1"])
def test_other_systems_are_not_two_part(name):
    spec, ell, resolution = _SYMMETRIC_CASES[name]
    assert not assembled_cylinder(spec, ell=ell, resolution=resolution).two_part
    assert not assembled_limit(spec, resolution=resolution).two_part
    with pytest.raises(ValueError, match="two-part"):
        assembled_limit(spec, resolution=resolution).axial_pencil()


_ZERO_BLOCK_CASES = {
    **_SYMMETRIC_CASES,
    "nonsymmetric_p1": (_box_spec(1), 1.0, 4),
    "nonsymmetric_p2": (_box_spec(2), 1.0, 4),
}


@pytest.mark.parametrize("spec,ell,resolution", _ZERO_BLOCK_CASES.values(),
                         ids=_ZERO_BLOCK_CASES.keys())
def test_the_limit_system_is_the_zero_axial_block_of_the_cylinder(spec, ell, resolution):
    # assembled apart, the limit band and load equal the cylinder's block of
    # the zero axial part and its cross-section load byte for byte; from one
    # CrossSection they are the same arrays
    zero = ((0,) * spec.p,) * 2
    limit = assembled_limit(spec, resolution=resolution)
    cylinder = assembled_cylinder(spec, ell=ell, resolution=resolution)
    block = cylinder.kron_parts[cylinder.section.keys.index(zero)][1]
    assert limit.nd_band.shape == block.shape and limit.nd_band.tobytes() == block.tobytes()
    assert limit.rhs.tobytes() == cylinder.section.load.tobytes()
    section = CrossSection(spec, resolution)
    shared = assemble_cylinder(section, ell=ell)
    limit = assemble_limit(section)
    assert limit.nd_band is shared.kron_parts[shared.section.keys.index(zero)][1]
    assert limit.rhs is section.load and limit.basis.factors == shared.basis.factors[spec.p:]


def test_a_limit_pair_that_reads_x1_is_refused():
    # the hypotheses refuse such a pair, and the cylinder assembles it on all
    # n factors, so the section has no block of the zero axial part: the
    # limit assembly refuses it too, naming the stage
    spec = ProblemSpec(
        m=1, n=2, p=1, omega=((0.0, 1.0),),
        coefficients={((1, 0), (1, 0)): ScalarField.parse("1", 2),
                      ((0, 1), (0, 1)): ScalarField.parse("1 + x1^2", 2)},
        forcing=ScalarField.parse("1", 2), name="reads_x1",
    )
    section = CrossSection(spec, 4)
    assert section.keys == (((1,), (1,)),)
    with pytest.raises(AssemblyError, match=r"^assemble_limit for problem reads_x1 on the "
                                            r"cross-section \(l = inf\): a limit pair's "
                                            r"coefficient reads x1;"):
        assemble_limit(section)


@pytest.mark.parametrize("where", ["cyl", "lim"])
@pytest.mark.parametrize("spec", [_laplace_box(1), _laplace_box(2, "2 + sin(x1)"),
                                  _box_spec(1), _box_spec(2, "2 + sin(x1)"),
                                  builtin_problem("biharmonic_strip")],
                         ids=["sym-p1", "sym-p2-sin_x1", "nonsym-p1", "nonsym-p2-sin_x1",
                              "biharmonic"])
def test_matrix_is_the_oracle_csr_bit_for_bit(spec, where):
    if where == "cyl":
        system = assembled_cylinder(spec, ell=1.0, resolution=5)
    else:
        system = assembled_limit(spec, resolution=5)
    got, want = system.matrix, oracle_csr(system)
    assert isinstance(got, sp.csr_matrix) and got.shape == want.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert system.matrix is not got  # written on every read, not kept


def test_lower_band_refuses_a_nonsymmetric_system():
    system = assembled_cylinder(_box_spec(1), ell=1.0, resolution=3, degree=2)
    assert not system.symmetric
    with pytest.raises(ValueError, match="symmetric"):
        system.lower_band()


def test_import_loads_no_scipy_module(tmp_path):
    # AssembledSystem.matrix imports scipy.sparse on its first read, and the
    # first LAPACK solve binds its routines; the benchmark's setup_s and
    # wall_s are split at this line: an import here moves time into setup_s.
    # A sweep forks its workers, so not even its parent loads an executor,
    # and the Gauss rules and the cutoff's bridge need no numpy.polynomial
    lean = ("concurrent", "multiprocessing", "numpy.polynomial")
    sweep = ["sweep", "--problem", "biharmonic_strip", "--l", "2,4", "--cells-per-unit", "8",
             "--workers", "2"]
    code = ("import sys, cylasym, cylasym.cli\n"
            "assert not sys.argv[2:] or cylasym.cli.main(sys.argv[2:]) == 0\n"
            "print(sorted(m for m in sys.modules if m.startswith(tuple(sys.argv[1].split(',')))))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    for argv, refused in (([], ("scipy",) + lean), (sweep, lean)):
        out = subprocess.run([sys.executable, "-c", code, ",".join(refused)] + argv,
                             capture_output=True, text=True, cwd=tmp_path,
                             env={**os.environ, "PYTHONPATH": src}, check=True).stdout
        assert out.splitlines()[-1] == "[]", argv


# ------------------------------------------------------------------ the even fold


def _plus(spec, texts):
    """spec with the coefficients of texts, {(alpha, beta): text}, added."""
    added = {key: ScalarField.parse(text, spec.n) for key, text in texts.items()}
    return dataclasses.replace(spec, coefficients={**spec.coefficients, **added})


_POISSON = builtin_problem("poisson_strip")
_EVEN_CASES = {
    "poisson": (_POISSON, True),
    "varcoef": (builtin_problem("varcoef_strip"), True),
    "biharmonic": (builtin_problem("biharmonic_strip"), True),
    "box3d_p1": (_laplace_box(1), True),
    "box3d_p2": (_laplace_box(2), True),
    # nonsymmetric, but its axial key is (0, 0)
    "poisson_a_0_1_0_0": (_plus(_POISSON, {((0, 1), (0, 0)): "1"}), True),
    # symmetric, with the odd axial keys (1, 0) and (0, 1)
    "poisson_mixed": (_plus(_POISSON, {((1, 0), (0, 1)): "0.5", ((0, 1), (1, 0)): "0.5"}),
                      False),
    "box3d_sin_x1": (_laplace_box(1, "2 + sin(x1)"), False),
    "nonsymmetric_p1": (_box_spec(1), False),
    "nonsymmetric_p2": (_box_spec(2), False),
}


@pytest.mark.parametrize("spec,even", _EVEN_CASES.values(), ids=_EVEN_CASES.keys())
def test_the_even_predicate_reads_the_axial_keys(spec, even):
    # even: no coefficient reads x1..xp and every pair has alpha_k + beta_k
    # even on every axial axis k; only the parity blocks of a cylinder
    # system of such a section halve its axial factors, and a cross-section
    # system has no blocks
    section = CrossSection(spec, 6)
    assert section.even is even
    cylinder = assemble_cylinder(section, ell=1.0)
    blocks, p = cylinder.parity_blocks(), spec.p
    halved = tuple((n + 1) // 2 for n in cylinder._dims[:p])
    assert (blocks is not None and all(block._dims[:p] == halved for _, block in blocks)) is even
    assert assemble_limit(section).parity_blocks() is None


_SKEW = _plus(_POISSON, {((0, 1), (0, 0)): "1"})
_INF_NORM_CASES = {
    # (spec, ell, resolution, degree)
    "box3d": (_laplace_box(1), 2.0, 4, None),
    "biharmonic": (builtin_problem("biharmonic_strip"), 2.0, 8, None),
    "varcoef": (builtin_problem("varcoef_strip"), 2.0, 6, None),
    "skew": (_SKEW, 2.0, 8, None),
    "skew_degree_1": (_SKEW, 2.0, 8, 1),
    "poisson_sin_x1": (_plus(_POISSON, {((1, 0), (1, 0)): "2 + sin(x1)"}), 2.0, 8, None),
    "box_p2": (_laplace_box(2), 1.0, 4, None),
    "box3d_sin_x1": (_laplace_box(1, "2 + sin(x1)"), 1.0, 4, None),
}


@pytest.mark.parametrize("where", ["cyl", "lim"])
@pytest.mark.parametrize("spec,ell,resolution,degree", _INF_NORM_CASES.values(),
                         ids=_INF_NORM_CASES.keys())
def test_inf_norm_is_the_largest_row_sum_of_the_matrix(spec, ell, resolution, degree, where):
    # every system, with an n-D band or without, the limit system among
    # them, reads |A|_inf off its pieces; the oracle's CSR is written from
    # the full band, without the slot walk
    if where == "cyl":
        system = assembled_cylinder(spec, ell=ell, resolution=resolution, degree=degree)
    else:
        system = assembled_limit(spec, resolution=resolution, degree=degree)
    want = abs(oracle_csr(system)).sum(axis=1).max()
    assert abs(system.inf_norm() - want) <= 1e-15 * want


def _every_row_sums(parts, p):
    """_kron_row_sums over every axial row, none left out, in its orders:
    each entry summed over the parts in their order, its magnitude over the
    cross-section slots down the middle axis, then over the axial slots
    from slot 0."""
    n_c = math.prod(parts[0][1].shape[: parts[0][1].ndim // 2])
    axial = [A.reshape(math.prod(A.shape[:p]), -1) for A, _ in parts]
    cross = [np.ascontiguousarray(C.reshape(n_c, -1).T) for _, C in parts]
    row_abs = 0.0
    for e in range(axial[0].shape[1]):
        entries = axial[0][:, e, None, None] * cross[0]
        for A, C in zip(axial[1:], cross[1:]):
            entries += A[:, e, None, None] * C
        row_abs = row_abs + np.abs(entries).sum(axis=1)
    return row_abs


@pytest.mark.parametrize("spec,ell,resolution,kept", [
    (builtin_problem("biharmonic_strip"), 16.0, 32, 15),
    (_laplace_box(2), 8.0, 4, 11 * 64),
], ids=["biharmonic", "box_p2"])
def test_the_row_sums_of_equal_axial_rows_are_summed_once(spec, ell, resolution, kept):
    # the placed axial bands repeat whole rows, so |A|_inf sums the first
    # row of each run of equal rows alone: the same row sums, bit for bit,
    # as over every axial row, and the same largest one; the p = 2 box keeps
    # 11 rows per row of its first axial factor
    system = assembled_cylinder(spec, ell=ell, resolution=resolution)
    once = assembly._kron_row_sums(system.kron_parts, spec.p)
    every = _every_row_sums(system.kron_parts, spec.p)
    assert len(once) == kept < len(every)
    assert np.array_equal(np.unique(once, axis=0), np.unique(every, axis=0))
    assert system.inf_norm() == every.max()


_FOLD_CASES = {
    **{name: (*_SYMMETRIC_CASES[name], None)
       for name in ("poisson", "varcoef", "biharmonic", "box3d_p1", "box3d_p2")},
    "poisson_a_0_1_0_0": (_EVEN_CASES["poisson_a_0_1_0_0"][0], 2.0, 5, None),
    # the fewest axial functions a factor allows: 2m + 1 cells, degree m
    "poisson_fewest": (_POISSON, 0.5, 3, 1),
    "biharmonic_fewest": (builtin_problem("biharmonic_strip"), 0.5, 5, 2),
}


@pytest.mark.parametrize("spec,ell,resolution,degree", _FOLD_CASES.values(),
                         ids=_FOLD_CASES.keys())
def test_the_folded_system_is_p_transpose_a_p(spec, ell, resolution, degree):
    # every block of an even section is folded along every axial axis (and
    # the biharmonic strip's along x2 too): P^T A P with P its extension
    system = assembled_cylinder(spec, ell=ell, resolution=resolution, degree=degree)
    A, b = oracle_csr(system).toarray(), system.rhs
    full = system.lower_band() if system.symmetric else system.general_band()
    for parities, block in system.parity_blocks():
        P = parity_extension(system, parities)
        got = oracle_csr(block).toarray()
        assert got.shape == (P.shape[1],) * 2 and block.ndofs == P.shape[1]
        assert np.abs(got - P.T @ A @ P).max() <= 2e-15 * np.abs(A).max()
        # p = 2 folds one axis after the other, so its sums of four run in
        # another order than P^T's; an odd block's load cancels, and is
        # bounded as in the parity block test below
        if any(parities):
            assert np.abs(block.rhs - P.T @ b).max() <= 2e-15 * np.abs(b).max()
        else:
            assert np.allclose(block.rhs, P.T @ b, rtol=1e-15, atol=0.0)
        y = np.random.default_rng(4).standard_normal(P.shape[1])
        assert np.array_equal(system.joined([(parities, block)], [y]), P @ y)
        x = np.random.default_rng(5).standard_normal(P.shape[1])
        assert (np.abs(block.matvec(x) - got @ x).max()
                <= 1e-15 * np.abs(got).max() * np.abs(x).max())
        # its written band has at most the full system's bandwidth over
        # half the rows per folded axis
        band = block.lower_band() if system.symmetric else block.general_band()
        assert band.shape[1] == P.shape[1] and band.shape[0] <= full.shape[0]


@pytest.mark.parametrize("dims,widths,axis", [
    ((9,), (5,), 0), ((8,), (3,), 0), ((2,), (3,), 0), ((3,), (7,), 0), ((4,), (9,), 0),
    ((6, 7), (3, 5), 0), ((6, 7), (5, 3), 1), ((5, 4), (5, 5), 0),
])
def test_the_band_fold_needs_no_mirror_symmetry(dims, widths, axis):
    # a random band, not mirror-symmetric, with NaN in its out-of-space
    # slots: the fold sums the four terms of P^T A P from in-space slots
    band = _raw_band(np.random.default_rng(6), dims, widths)
    folded = _folded_band(band, axis)
    P = np.ones((1, 1))
    for k, dim in enumerate(dims):
        P = np.kron(P, even_extension(dim) if k == axis else np.eye(dim))
    A = _to_csr(band).toarray()
    got = _to_csr(folded).toarray()
    assert np.abs(got - P.T @ A @ P).max() <= 1e-15 * np.abs(A).max()
    assert not np.isnan(folded[_in_space(folded.shape)]).any()


# ------------------------------------------------------------------ parity blocks


@pytest.mark.parametrize("dims,widths,axis", [
    ((9,), (5,), 0), ((8,), (3,), 0), ((2,), (3,), 0), ((3,), (7,), 0), ((4,), (9,), 0),
    ((6, 7), (3, 5), 0), ((6, 7), (5, 3), 1), ((5, 4), (5, 5), 0), ((5, 4), (7, 7), 1),
])
def test_the_odd_band_fold_needs_no_mirror_symmetry(dims, widths, axis):
    # as the even fold: the four terms of P^T A P, the middle two
    # subtracted, from in-space slots only; the centre of an odd N is left
    # out, and a folded factor may be narrower than its degree
    band = _raw_band(np.random.default_rng(7), dims, widths)
    folded = _folded_band(band, axis, odd=True)
    P = np.ones((1, 1))
    for k, dim in enumerate(dims):
        P = np.kron(P, odd_extension(dim) if k == axis else np.eye(dim))
    A = _to_csr(band).toarray()
    got = _to_csr(folded).toarray()
    assert got.shape == (P.shape[1],) * 2
    assert np.abs(got - P.T @ A @ P).max() <= 1e-15 * np.abs(A).max()
    assert not np.isnan(folded[_in_space(folded.shape)]).any()


_BIHARMONIC = builtin_problem("biharmonic_strip")


def _forced(spec, text):
    """spec with the forcing text."""
    return dataclasses.replace(spec, forcing=ScalarField.parse(text, spec.n))


# f = 1 + x2 reads x2, so its load keeps an odd part along it, and the
# biharmonic strip's cylinder systems keep both parity blocks
_BIHARMONIC_X2 = _forced(_BIHARMONIC, "1 + x2")
_BIHARMONIC_3D = parse_problem_config(
    "[problem]\nm = 2\nn = 3\np = 1\nomega = 0,1;0,2\n\n[coef]\n"
    "a_2_0_0_2_0_0 = 1\na_0_2_0_0_2_0 = 1\na_0_0_2_0_0_2 = 1\n"
    "a_2_0_0_0_2_0 = 1\na_0_2_0_2_0_0 = 1\n\n[forcing]\nf = 1 + x2 + x3\n",
    "biharmonic_3d")
# x3's coefficient and the forcing read x3, so they go through the kernel
# on x3's factor; x2 stays a parity axis, placed from the stencil
_VARCOEF_3D = parse_problem_config(
    "[problem]\nm = 2\nn = 3\np = 1\nomega = 0,1;0,2\n\n[coef]\n"
    "a_2_0_0_2_0_0 = 1\na_0_2_0_0_2_0 = 1\na_0_0_2_0_0_2 = 1 + x3^2\n"
    "a_2_0_0_0_2_0 = 1\na_0_2_0_2_0_0 = 1\n\n[forcing]\nf = 1 + x3\n", "varcoef_3d")
# symmetric, with the odd keys (1, 0) and (0, 1) on x1 and x2: no axial
# fold, and only x3 mirrored
_MIXED_3D = parse_problem_config(
    "[problem]\nm = 1\nn = 3\np = 1\nomega = 0,1;0,1\n\n[coef]\n"
    "a_1_0_0_1_0_0 = 1\na_0_1_0_0_1_0 = 1\na_0_0_1_0_0_1 = 1\n"
    "a_1_0_0_0_1_0 = 0.5\na_0_1_0_1_0_0 = 0.5\n\n[forcing]\nf = x2 + x3^2\n", "mixed_3d")
# nonsymmetric, with the odd axial key (1, 0): LU on parity blocks, no
# axial fold
_CONVECTION = _forced(_plus(_POISSON, {((1, 0), (0, 0)): "1"}), "1 + x2")
_BLOCK_CASES = {
    # (spec, ell, resolution, degree, mirrored), each forcing with an odd
    # part along every mirrored axis
    "biharmonic_odd_nc": (_BIHARMONIC_X2, 2.0, 8, None, (0,)),
    "biharmonic_even_nc": (_BIHARMONIC_X2, 1.0, 5, None, (0,)),
    "biharmonic_fewest": (_BIHARMONIC_X2, 0.5, 5, 2, (0,)),
    # x2 on (0, 1) has an even N_c, x3 on (0, 2) an odd one
    "biharmonic_3d": (_BIHARMONIC_3D, 1.0, 5, None, (0, 1)),
    "mixed_3d": (_MIXED_3D, 1.0, 4, None, (1,)),
    "convection": (_CONVECTION, 2.0, 5, None, (0,)),
}


@pytest.mark.parametrize("spec,ell,resolution,degree,mirrored", _BLOCK_CASES.values(),
                         ids=_BLOCK_CASES.keys())
def test_each_parity_block_is_p_transpose_a_p(spec, ell, resolution, degree, mirrored):
    # P folds every axial axis of an even section, then each parity axis
    system = assembled_cylinder(spec, ell=ell, resolution=resolution, degree=degree)
    assert system.section.mirrored == system.section.parity_axes == mirrored
    A, b = oracle_csr(system).toarray(), system.rhs
    blocks = system.parity_blocks()
    assert [parities for parities, _ in blocks] == list(
        itertools.product((False, True), repeat=len(mirrored)))
    rng = np.random.default_rng(8)
    ys, want = [], 0.0
    for parities, block in blocks:
        P = parity_extension(system, parities)
        got = oracle_csr(block).toarray()
        assert got.shape == (P.shape[1],) * 2 and block.ndofs == P.shape[1]
        assert np.abs(got - P.T @ A @ P).max() <= 4e-15 * np.abs(A).max()
        assert np.abs(block.rhs - P.T @ b).max() <= 2e-15 * np.abs(b).max()
        # the section's blocks equal their mirrors bitwise along the parity
        # axes, so the blocks are uncoupled up to the roundoff of the dense
        # products
        for other, _ in blocks:
            if other != parities:
                coupling = P.T @ A @ parity_extension(system, other)
                assert np.abs(coupling).max() <= 4e-15 * np.abs(A).max()
        assert block.general_band().shape[1] == P.shape[1]
        ys.append(rng.standard_normal(P.shape[1]))
        want = want + P @ ys[-1]
    assert np.array_equal(system.joined(blocks, ys), want)


def test_the_mirror_predicate_reads_every_pair():
    # a mirrored axis: no coefficient reads it, and alpha + beta is even on
    # it for every pair; only a section whose cylinder systems a banded
    # kernel solves keeps its mirrored axes as parity axes, and its
    # cylinder systems' blocks then carry one parity per parity axis; its
    # limit system has no blocks
    cases = {
        "biharmonic": (_BIHARMONIC, (0,), True),
        "varcoef": (builtin_problem("varcoef_strip"), (), False),
        "skew": (_plus(_POISSON, {((0, 1), (0, 0)): "1"}), (), False),
        "poisson_two_part": (_POISSON, (0,), False),
        "box3d_two_part": (_laplace_box(1), (0, 1), False),
        "box3d_sin_x1": (_laplace_box(1, "2 + sin(x1)"), (0, 1), False),
        "mixed_3d": (_MIXED_3D, (1,), True),
        "convection": (_CONVECTION, (0,), True),
    }
    for name, (spec, mirrored, blocks) in cases.items():
        section = CrossSection(spec, 5)
        assert section.mirrored == mirrored, name
        assert section.parity_axes == (mirrored if blocks else ()), name
        cylinder = assemble_cylinder(section, ell=1.0)
        folds = cylinder.parity_blocks()
        assert (folds is not None and len(folds[0][0]) > 0) is blocks, name
        assert assemble_limit(section).parity_blocks() is None


def test_a_block_with_a_zero_load_is_left_out():
    # a load that is exactly odd about the middle of (0, 1) folds to an even
    # load of exactly zero (b_i + b_m(i) = 0): that block is left out, and
    # joined gives the odd block's extension alone, even in x1, bitwise.
    # f = 1 + x2 keeps an odd part, so B - flip(B) is not zero
    system = assembled_cylinder(_BIHARMONIC_X2, ell=2.0, resolution=8)
    B = system.rhs.reshape(system._dims)
    system = dataclasses.replace(system, rhs=(B - np.flip(B, 1)).ravel())
    [(parities, block)] = system.parity_blocks()
    assert parities == (True,)
    y = np.random.default_rng(3).standard_normal(block.ndofs)
    y[0] = -0.0
    X = system.joined([(parities, block)], [y]).reshape(system._dims)
    assert np.array_equal(X, -np.flip(X, 1)) and np.array_equal(X, np.flip(X, 0))
    # the sum starts from the first block, not from +0.0, which would turn
    # its -0.0 into +0.0
    assert X[0, 0] == 0.0 and np.signbit(X[0, 0])


@pytest.mark.parametrize("forcing,blocks", [("1", 1), ("0.6344", 1), ("1 + x2", 2)])
def test_the_block_count_follows_the_forcing(forcing, blocks):
    # a forcing that does not read x2 is even in it: the section places its
    # load along x2 from the stencil, so the odd block's folded load is exactly
    # zero, before the axial fold and after it, and the block is left out;
    # a forcing that reads x2 keeps both blocks
    system = assembled_cylinder(_forced(_BIHARMONIC, forcing), ell=2.0, resolution=8)
    B = system.rhs.reshape(system._dims)
    assert [parities for parities, _ in system.parity_blocks()] == [(False,), (True,)][:blocks]
    for load in (B, _folded_rows(B, 0)):
        odd = _folded_rows(load, 1, odd=True)
        assert bool(np.all(odd == 0.0)) is (blocks == 1)


@pytest.mark.parametrize("omega,resolution", [
    ((0.0, 1.0), 12), ((0.0, 1.0), 32), ((100.0, 101.0), 32), ((1000.0, 1001.0), 32),
    ((15.89, 16.89), 48), ((-16.67, -15.67), 24),
])
def test_the_section_blocks_are_mirror_averaged(omega, resolution):
    # omega's knots and Gauss points mirror only up to roundoff: on
    # (15.89, 16.89) at 48 cells/unit the kernel's blocks differ from their
    # mirrors by 8e-13 of their largest entry.  The section places its
    # constant-coefficient blocks from the stencil, so each is its own
    # mirror average: equal to its signed mirror bitwise, and to the block
    # of the same omega translated to the origin, where the kernel's knots
    # round least, and within 1e-13 of the kernel's there; the limit system
    # reads them too
    spec = dataclasses.replace(_BIHARMONIC, omega=(omega,), name=None)
    section = CrossSection(spec, resolution)
    origin = CrossSection(dataclasses.replace(spec, omega=((0.0, omega[1] - omega[0]),)),
                          resolution)
    p, n = spec.p, spec.n
    terms = {}
    for (alpha, beta), coef in sorted(spec.coefficients.items()):
        terms.setdefault((alpha[:p], beta[:p]), []).append((alpha, beta, coef))
    assert section.keys == origin.keys == tuple(terms)
    for (alpha, beta), C, at_origin in zip(section.keys, section.blocks, origin.blocks):
        kernel = _galerkin(origin.factors, terms[alpha, beta], range(p, n), n)
        sign = (-1.0) ** sum(a + b for a, b in zip(*next(iter(terms[alpha, beta]))[:2]))
        assert np.array_equal(C, sign * np.flip(C))
        assert np.array_equal(C, at_origin)
        assert np.abs(C - kernel).max() <= 1e-13 * np.abs(kernel).max()
    zero_key = section.keys.index(((0,), (0,)))
    assert assemble_limit(section).nd_band is section.blocks[zero_key]


def test_a_variable_coefficient_keeps_its_fold_without_averaging():
    # x3's coefficient and the forcing read x3 only, so x2 stays the parity
    # axis: each block is the kernel's on x3 joined with bands placed from
    # the stencil along x2, equal to its x2 mirror bitwise, and the load of
    # f = 1 + x3 is even in x2, so its odd fold is exactly zero and one
    # block is solved; the sweep passes the backward-error gate (it read
    # 9.3e-17 and 1.1e-16)
    section = CrossSection(_VARCOEF_3D, 5)
    assert section.mirrored == section.parity_axes == (0,)
    for C in section.blocks:
        assert np.array_equal(C, np.flip(C, (0, 2)))
    system = assemble_cylinder(section, ell=2.0)
    assert not _folded_rows(system.rhs.reshape(system._dims), 1, odd=True).any()
    assert [parities for parities, _ in system.parity_blocks()] == [(False,)]
    records = run_sweep(SweepPlan(spec=_VARCOEF_3D, ells=(2.0, 4.0), resolution=5)).records
    assert all(0.0 < r.backward_error <= 1e-14 for r in records)


@pytest.mark.parametrize("coef,forcing,what", [
    ("1 + 1 / (x3 - 0.5)^2", "1", "matrix"), ("1", "1 / (x3 - 0.5)", "rhs"),
    ("1 / 0", "1", "matrix"),
], ids=["block", "load", "constant"])
def test_a_non_finite_block_or_load_is_refused_by_the_section(coef, forcing, what):
    # 13 cells put a Gauss node on x3 = 1/2, where the coefficient or the
    # forcing is infinite; the section checks the kernel's piece on x3 once,
    # before it joins it with x2's placed band (inf times its zero slots
    # would warn) or any system reads it, and names its stage.  The kernel
    # computes the infinity without a warning, which filterwarnings = error
    # would turn into a failure here; a constant coefficient of 1 / 0 is
    # checked before it scales the placed bands
    spec = parse_problem_config(
        "[problem]\nm = 1\nn = 3\np = 1\nomega = 0,1;0,1\n\n[coef]\n"
        f"a_1_0_0_1_0_0 = 1\na_0_1_0_0_1_0 = 1\na_0_0_1_0_0_1 = {coef}\n"
        f"a_1_0_0_0_0_0 = 1\n\n[forcing]\nf = {forcing}\n", "singular")
    with pytest.raises(AssemblyError, match=r"^cross-section for problem singular on the "
                                            r"cross-section \(l = inf\): assembled "
                                            rf"{what} contains non-finite"):
        CrossSection(spec, 13)


# ------------------------------------------------------------------ the axial stencil


_STENCIL_CASES = {
    # (spec, resolution, degree, ells): the 1-D axial pairs (0, 0), (0, 2),
    # (2, 0), (2, 2); the transposed odd pair (1, 0), (0, 1); the odd key
    # (1, 0) alone; and the two-axis bands of the p = 2 box
    **{f"biharmonic_{r}": (_BIHARMONIC, r, None, (2.0, 4.0)) for r in (12, 24, 48)},
    **{f"mixed_3d_{r}": (_MIXED_3D, r, None, (2.0,)) for r in (12, 24, 48)},
    **{f"convection_{r}": (_CONVECTION, r, None, (2.0,)) for r in (12, 24, 48)},
    **{f"box_p2_{r}": (_laplace_box(2), r, None, (2.0,)) for r in (12, 24)},
    # degree m = 1: the constraint drops a column of every row that a
    # stencil of 3 d cells would take for its interior row
    "convection_degree_1": (_CONVECTION, 12, 1, (2.0,)),
    # factors of fewer than 3 d + 1 cells, whose rows near one end also see
    # the other end's knots: 5, 7 and 9 cells at d = 3; 10 and 12 at d = 4;
    # 3 and 6 cells at d = 2 on both axes of the p = 2 box
    "biharmonic_short": (_BIHARMONIC, 5, None, (0.5, 0.7, 0.9)),
    "biharmonic_degree_4_short": (_BIHARMONIC, 5, 4, (1.0, 1.2)),
    "box_p2_short": (_laplace_box(2), 3, None, (0.5, 1.0)),
}


def _axial_pieces(spec, resolution, degree, ells):
    """(section, ell, factor, bands, load) per ell: the section's axial
    pieces on the axial factor of the cylinder of half-length ell."""
    section = CrossSection(spec, resolution, degree)
    for ell in ells:
        factor = section.cylinder_basis(ell).factors[0]
        yield (section, ell, factor, *section.axial(factor))


@pytest.mark.parametrize("case", _STENCIL_CASES)
def test_every_axial_band_and_load_equals_its_signed_mirror(case):
    # placed from the stencil, every axial band commutes with the
    # reflection of each axial axis k bitwise, up to the sign
    # (-1)^(alpha_k + beta_k), and the axial load is even; so are the
    # pieces of the system assemble_cylinder builds
    for section, ell, factor, bands, load in _axial_pieces(*_STENCIL_CASES[case]):
        p = section.spec.p
        for (alpha, beta), band in zip(section.keys, bands):
            for k in range(p):
                sign = (-1.0) ** (alpha[k] + beta[k])
                assert np.array_equal(band, sign * np.flip(band, (k, p + k))), (ell, alpha, beta)
        for k in range(p):
            assert np.array_equal(load, np.flip(load, k))
        system = assemble_cylinder(section, ell)
        assert all(np.array_equal(A, band) for (A, _), band in zip(system.kron_parts, bands))
        assert np.array_equal(system.rhs, np.multiply.outer(load, section.load).ravel())


@pytest.mark.parametrize("case", _STENCIL_CASES)
def test_every_axial_band_and_load_is_the_kernels(case):
    # the kernel on (-l, l) places its knots and Gauss points with the
    # rounding of numbers up to l, so it drifts from the stencil's unit
    # cells as l * resolution grows (4e-14 of the largest entry at l = 2 and
    # 48 cells/unit, 3e-13 at l = 16); where the transposed pair is a key
    # too, (a, b) is (b, a) transposed bitwise, as the kernel's is
    for section, ell, factor, bands, load in _axial_pieces(*_STENCIL_CASES[case]):
        factors = (factor,) * section.spec.p
        for (alpha, beta), band in zip(section.keys, bands):
            kernel = _galerkin(factors, [(alpha, beta, _unit)])
            assert band.shape == kernel.shape
            assert np.abs(band - kernel).max() <= 1e-13 * np.abs(kernel).max(), (ell, alpha, beta)
            if (beta, alpha) in section.keys and section.spec.p == 1:
                other = bands[section.keys.index((beta, alpha))]
                assert np.array_equal(transposed_band(band), other)
        kernel = _load(factors, _unit).reshape(load.shape)
        assert np.abs(load - kernel).max() <= 1e-13 * np.abs(kernel).max()


def test_the_leading_rows_are_the_same_at_every_l():
    # every cylinder of a sweep places its axial bands from one stencil at
    # one cell width, so the first half of the rows of A_l is bitwise that
    # of A_lmax
    pieces = list(_axial_pieces(_BIHARMONIC, 12, None, (2.0, 4.0, 8.0, 16.0)))
    *_, (_, _, _, top, top_load) = pieces
    for _, ell, factor, bands, load in pieces:
        half = factor.dim // 2
        for band, widest in zip(bands, top):
            assert np.array_equal(band[:half], widest[:half]), ell
        assert np.array_equal(load[:half], top_load[:half])


# ------------------------------------------------------------------ the band invariant


def _axial_bands(spec, degree):
    system = assembled_cylinder(spec, ell=1.0, resolution=5, degree=degree)
    return [A for A, _ in system.kron_parts]


def _parity_pieces(cases):
    pieces = []
    for spec, ell, resolution, degree, *_ in cases:
        system = assembled_cylinder(spec, ell=ell, resolution=resolution, degree=degree)
        pieces += [band for _, block in system.parity_blocks()
                   for band in itertools.chain(*block.kron_parts)]
    return pieces


def _grams(extent, cutoff=None):
    factor = SplineBasis1D(-2.0, 2.0, 8, 3, 2)
    return axis_grams(factor, extent, 3, 2, 4, cutoff)[1]


# every producer of a band; the folds act on the kernel's, the placed and
# the joined bands
_BANDS = {
    "axial_degree_m+1": lambda: (_axial_bands(_BIHARMONIC, 3)
                                 + _axial_bands(_laplace_box(2), 2)),
    "axial_degree_m+2": lambda: (_axial_bands(_BIHARMONIC, 4)
                                 + _axial_bands(_laplace_box(2), 3)),
    "cross_section_1d": lambda: CrossSection(_BIHARMONIC, 8).blocks,
    "cross_section_2d": lambda: (CrossSection(_laplace_box(1), 4).blocks
                                 + CrossSection(_BIHARMONIC_3D, 5).blocks),
    "axial_stencil": lambda: [
        band for case in ("biharmonic_short", "biharmonic_degree_4_short", "box_p2_short",
                          "mixed_3d_12")
        for section, _, factor, bands, _ in _axial_pieces(*_STENCIL_CASES[case])
        for band in (*bands, *section.stencil(factor.cells)[0].values())],
    "nd_box3d_sin_x1": lambda: [
        assembled_cylinder(_laplace_box(1, "2 + sin(x1)"), ell=1.0, resolution=4).nd_band],
    "placed_on_omega": lambda: [
        band for section in (CrossSection(_laplace_box(1), 4), CrossSection(_BIHARMONIC_3D, 5))
        for f in section.factors for band in section._placed_on(f)[0].values()],
    "joined_on_omega": lambda: CrossSection(_VARCOEF_3D, 5).blocks,
    "folded_even": lambda: (
        [_folded_band(A, axis) for A in _axial_bands(_laplace_box(2), 2) for axis in (0, 1)]
        + [_folded_band(A, 0) for A in _axial_bands(_BIHARMONIC, 2)]),
    "folded_odd": lambda: [_folded_band(C, axis, odd=True)
                           for C in CrossSection(_BIHARMONIC_3D, 5).blocks for axis in (0, 1)],
    "grams_sub_extent": lambda: _grams((-1.0, 1.0)),
    "grams_cutoff": lambda: _grams((-2.0, 2.0), (CutoffRho(3), 1.0)),
    "parity_blocks": lambda: _parity_pieces([*_BLOCK_CASES.values(),
                                             *_FOLD_CASES.values()]),
    "limit": lambda: [assembled_limit(spec, resolution=5).nd_band for spec in (
        _BIHARMONIC, _laplace_box(1), _box_spec(1), _MIXED_3D)],
}


@pytest.mark.parametrize("producer", _BANDS)
def test_every_band_is_zero_outside_its_space(producer):
    # the invariant of the band layout: a slot whose column falls outside
    # the space holds zero, so band_apply, matvec and _kron_row_sums read
    # every band as it is
    for band in _BANDS[producer]():
        outside = ~np.broadcast_to(_in_space(band.shape), band.shape)
        assert outside.any() and np.all(band[outside] == 0.0)


def test_a_systems_pieces_are_read_only():
    # the readers share them as they are, the limit system the section's
    system = assembled_cylinder(_laplace_box(1, "2 + sin(x1)"), ell=1.0, resolution=4)
    blocks = assembled_cylinder(_BIHARMONIC_3D, ell=1.0, resolution=5).parity_blocks()
    for s in (system, assembled_limit(_BIHARMONIC, resolution=5), *(b for _, b in blocks)):
        for band in (*itertools.chain(*s.kron_parts), s.nd_band):
            assert band is None or not band.flags.writeable
