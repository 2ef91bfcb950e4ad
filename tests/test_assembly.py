"""Assembly oracles.

The hand-derived hat-function system and the Kronecker-sum identity pin down
constant-coefficient assembly; a brute-force dense quadrature loop on any
number of axes (written here, sharing no code with the einsum engine or the
band layout) covers variable coefficients, coefficients that read the axial
variables, the fourth-order case and 3-D boxes.  On 3-D boxes the Kronecker
assembly is also checked against the einsum kernel run on all three axes.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from cylasym.assembly import (
    AssemblyError,
    _galerkin,
    _to_csr,
    assemble_cylinder,
    assemble_limit,
    cylinder_factors,
)
from cylasym.problem import ProblemSpec, ScalarField, analytic_limit, builtin_problem
from cylasym.splines import DiscreteField, composite_gauss


def _gauss(basis, ppc=None):
    return composite_gauss((basis.lo, basis.hi), basis.cells, ppc or basis.degree + 1)


def _dense_1d(basis, der, ppc=None):
    pts, wts = _gauss(basis, ppc)
    B = basis.basis_matrix(pts, der=der)
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
    system = assemble_limit(builtin_problem("poisson_strip"), resolution=4, degree=1)
    A = system.matrix.toarray()
    want = np.array([[8.0, -4.0, 0.0], [-4.0, 8.0, -4.0], [0.0, -4.0, 8.0]])
    assert np.allclose(A, want, atol=1e-12)
    assert np.allclose(system.rhs, 0.25, atol=1e-15)
    x = np.linalg.solve(system.matrix.toarray(), system.rhs)
    assert np.allclose(x, [3.0 / 32.0, 4.0 / 32.0, 3.0 / 32.0], atol=1e-14)


def test_kronecker_sum_identity():
    # constant-coefficient second order problem factorizes axis by axis
    spec = builtin_problem("poisson_strip")
    system = assemble_cylinder(spec, ell=1.0, resolution=4, degree=2)
    ax, cx = system.basis.factors
    A1 = _matrix_1d(ax, 1, 1)
    M1 = _matrix_1d(ax, 0, 0)
    A2 = _matrix_1d(cx, 1, 1)
    M2 = _matrix_1d(cx, 0, 0)
    want = np.kron(A1, M2) + np.kron(M1, A2)
    got = system.matrix.toarray()
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_rhs_factorizes_for_constant_forcing():
    spec = builtin_problem("poisson_strip")
    system = assemble_cylinder(spec, ell=1.0, resolution=4, degree=2)
    ax, cx = system.basis.factors
    B1, w1 = _dense_1d(ax, 0)
    B2, w2 = _dense_1d(cx, 0)
    want = np.outer(w1 @ B1, w2 @ B2).ravel()
    assert np.abs(system.rhs - want).max() <= 1e-13


def test_matrix_spd_and_symmetric():
    system = assemble_cylinder(builtin_problem("poisson_strip"), ell=1.0, resolution=4)
    A = system.matrix
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
        Bcol = _kron_rows([f.basis_matrix(pt, a) for f, (pt, _), a in zip(factors, rules, alpha)])
        Brow = _kron_rows([f.basis_matrix(pt, b) for f, (pt, _), b in zip(factors, rules, beta)])
        A += (Brow * (w * a_vals)[:, None]).T @ Bcol
    f_vals = np.broadcast_to(spec.forcing(tuple(X)), X[0].shape).ravel()
    B0 = _kron_rows([f.basis_matrix(pts, 0) for f, (pts, _) in zip(factors, rules)])
    rhs = B0.T @ (w * f_vals)
    return A, rhs


def _shared_cell_pattern(factors):
    """Which pairs of basis functions share a cell: B-splines are positive
    inside their support, so two share a cell iff their values overlap."""
    shared = np.ones((1, 1), dtype=bool)
    for f in factors:
        B = np.abs(f.basis_matrix(_gauss(f)[0]))
        shared = np.kron(shared, B.T @ B > 0)
    return shared


def test_variable_coefficient_matches_brute_force():
    spec = builtin_problem("varcoef_strip")
    system = assemble_cylinder(spec, ell=1.0, resolution=3, degree=2)
    want_A, want_rhs = _brute_force(system, spec)
    scale = np.abs(want_A).max()
    assert np.abs(system.matrix.toarray() - want_A).max() <= 1e-12 * scale
    assert np.abs(system.rhs - want_rhs).max() <= 1e-13 * max(1.0, np.abs(want_rhs).max())


def test_biharmonic_cylinder_matches_brute_force():
    # the mixed (2,0)/(0,2) pairs put off-diagonal blocks on the axial factor
    spec = builtin_problem("biharmonic_strip")
    system = assemble_cylinder(spec, ell=1.0, resolution=5, degree=3)
    want_A, want_rhs = _brute_force(system, spec)
    A = system.matrix
    assert (A != A.T).nnz == 0
    assert np.abs(A.toarray() - want_A).max() <= 1e-12 * np.abs(want_A).max()
    assert np.abs(system.rhs - want_rhs).max() <= 1e-13


def _mixed_axial_spec():
    # one pair reads the axial variable, the others do not; the (1,0)/(0,0)
    # pairs give the Kronecker part off-diagonal axial blocks
    texts = {
        ((1, 0), (1, 0)): "2 + sin(x1)",
        ((0, 1), (0, 1)): "1 + x2^2 / 2",
        ((0, 0), (0, 0)): "1 + x2",
        ((1, 0), (0, 0)): "x2",
        ((0, 0), (1, 0)): "x2",
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
    system = assemble_cylinder(spec, ell=1.0, resolution=3, degree=2)
    A = system.matrix
    assert system.symmetric
    assert (A != A.T).nnz == 0
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
    system = assemble_cylinder(spec, ell=1.0, resolution=3, degree=2)
    terms = [(a, b, spec.coefficients[(a, b)]) for a, b in sorted(spec.coefficients)]
    want = _to_csr(_galerkin(cylinder_factors(spec, 1.0, 3, 2), terms))
    got = system.matrix
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.abs(got.data - want.data).max() <= 1e-13 * np.abs(want.data).max()


@pytest.mark.parametrize("axial_text", [None, "2 + sin(x1)"])
@pytest.mark.parametrize("p", [1, 2])
def test_box_assembly_matches_brute_force(p, axial_text):
    # with axial_text one pair reads x1 and goes through the n-D kernel
    spec = _box_spec(p, axial_text)
    system = assemble_cylinder(spec, ell=1.0, resolution=3, degree=2)
    A = system.matrix
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
    system = assemble_cylinder(spec, ell=0.5, resolution=resolution, degree=degree)
    assert {f.cells for f in system.basis.factors} == {2 * spec.m + 1}
    want_A, want_rhs = _brute_force(system, spec)
    assert np.abs(system.matrix.toarray() - want_A).max() <= 1e-12 * np.abs(want_A).max()
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
        system = assemble_cylinder(spec, ell=2.0, resolution=6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    A = system.matrix
    assert peak <= 20 * (A.data.nbytes + A.indices.nbytes + A.indptr.nbytes)


class _Recorder:
    """A coefficient that records the point-grid shape of every evaluation."""

    def __init__(self, text, n):
        self._field = ScalarField.parse(text, n)
        self.expr = self._field.expr
        self.shapes = []

    def reads_axial(self, p):
        return self._field.reads_axial(p)

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
    system = assemble_cylinder(spec, ell=2.0, resolution=4, degree=2)
    full = tuple(f.cells * (f.degree + 1) for f in system.basis.factors)
    cross = full[1:]
    assert coefs[((1, 0), (1, 0))].shapes == [full]
    assert coefs[((0, 1), (0, 1))].shapes == [cross]
    assert coefs[((0, 0), (0, 0))].shapes == [cross]


def test_biharmonic_limit_matches_brute_force():
    spec = builtin_problem("biharmonic_strip")
    system = assemble_limit(spec, resolution=8, degree=3)
    basis = system.basis.factors[0]
    want = _matrix_1d(basis, 2, 2)
    assert np.abs(system.matrix.toarray() - want).max() <= 1e-11 * np.abs(want).max()


@pytest.mark.parametrize("name,degree", [("poisson_strip", 1), ("biharmonic_strip", 3)])
def test_limit_solution_converges_to_analytic(name, degree):
    # degree chosen so the polynomial solution is NOT in the spline space
    spec = builtin_problem(name)
    exact = analytic_limit(name)
    ts = np.linspace(0.05, 0.95, 19)
    errs = []
    for res in (8, 16):
        system = assemble_limit(spec, resolution=res, degree=degree)
        u = DiscreteField(system.basis, np.linalg.solve(system.matrix.toarray(), system.rhs))
        errs.append(np.abs(u.eval_points(ts[:, None], (0,)) - exact(ts, 0)).max())
    assert errs[0] > 1e-12
    assert errs[1] <= errs[0] / 3.5


@pytest.mark.parametrize("name,degree", [("poisson_strip", 2), ("biharmonic_strip", 4)])
def test_limit_solution_exact_when_space_contains_it(name, degree):
    # the analytic solutions are polynomials of degree 2m, so splines of that
    # degree reproduce them and Galerkin returns them to machine precision
    spec = builtin_problem(name)
    exact = analytic_limit(name)
    system = assemble_limit(spec, resolution=8, degree=degree)
    u = DiscreteField(system.basis, np.linalg.solve(system.matrix.toarray(), system.rhs))
    ts = np.linspace(0.0, 1.0, 33)
    assert np.abs(u.eval_points(ts[:, None], (0,)) - exact(ts, 0)).max() <= 1e-13


def test_solution_conforms_at_boundary():
    spec = builtin_problem("biharmonic_strip")
    system = assemble_cylinder(spec, ell=1.0, resolution=6, degree=3)
    u = DiscreteField(system.basis, np.linalg.solve(system.matrix.toarray(), system.rhs))
    ts = np.linspace(0.0, 1.0, 9)
    edge = np.stack([np.full(9, 1.0), ts], axis=1)  # axial boundary
    for alpha in [(0, 0), (0, 1)]:
        assert np.abs(u.eval_points(edge, alpha)).max() <= 1e-12
    side = np.stack([np.linspace(-1.0, 1.0, 9), np.zeros(9)], axis=1)
    for alpha in [(0, 0), (1, 0)]:
        assert np.abs(u.eval_points(side, alpha)).max() <= 1e-12


def test_assembly_deterministic():
    spec = builtin_problem("varcoef_strip")
    s1 = assemble_cylinder(spec, ell=2.0, resolution=4)
    s2 = assemble_cylinder(spec, ell=2.0, resolution=4)
    assert np.array_equal(s1.matrix.data, s2.matrix.data)
    assert np.array_equal(s1.matrix.indices, s2.matrix.indices)
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
        assemble_limit(spec, resolution=4)


def test_degree_below_m_rejected():
    with pytest.raises(AssemblyError, match="cannot conform"):
        assemble_cylinder(builtin_problem("biharmonic_strip"), ell=1.0, resolution=6, degree=1)
