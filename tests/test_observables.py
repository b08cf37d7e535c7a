import numpy as np
import pytest

from eqtoeplitz.geometry import ProjectiveModel
from eqtoeplitz.observables import Observable
from eqtoeplitz.symmetry import DiagonalSymmetry, TorusAction

from conftest import plain_sphere, sup_bound


def test_realness_validation():
    with pytest.raises(ValueError):
        Observable(u_terms={(1, 0): 1j})
    h = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        Observable(h_term=h)


@pytest.mark.parametrize("record, field, value, bad", [
    (ProjectiveModel(2), "kappa_x", 2.0, {"d": 0}),
    (TorusAction([[1, -1, -1]]), "W", [[2, 0, -1]], {"W": [1, -1, -1]}),
    (DiagonalSymmetry([0.0, 1.1, 3.7], theta_A=0.5), "phi", [0.5, 0.0, 1.0], {"phi": ["x"]}),
    (Observable(u_terms={(0, 1, 0): 1.0}), "h_term", [[1, 0, 0], [0, 0, 0], [0, 0, 0]],
     {"u_terms": {(0, -1, 0): 1.0}})],
    ids=["ProjectiveModel", "TorusAction", "DiagonalSymmetry", "Observable"])
def test_validated_records_rebuild_through_their_checks(record, field, value, bad):
    # a validated record is rebuilt through its constructor, never `_replace`,
    # which would skip the coercion: the new field is a read-only array of the
    # record's dtype, the others carry over, and bad input is still refused
    fields = record._asdict()
    rebuilt = type(record)(**{**fields, field: value})
    got = getattr(rebuilt, field)
    if isinstance(got, np.ndarray):
        assert not got.flags.writeable and np.array_equal(got, value)
        assert got.dtype == (fields[field].dtype if fields[field] is not None else complex)
    else:
        assert got == value
    assert all(getattr(rebuilt, k) is v or getattr(rebuilt, k) == v
               for k, v in fields.items() if k != field)
    with pytest.raises(AttributeError):
        setattr(rebuilt, field, value)
    with pytest.raises(ValueError):
        type(record)(**{**fields, **bad})


def test_value_matches_manual():
    f = Observable(u_terms={(2, 0): 1.5, (0, 1): -0.5})
    rng = np.random.default_rng(1)
    pts = plain_sphere(64, 1, rng)
    u = np.abs(pts) ** 2
    manual = 1.5 * u[:, 0] ** 2 - 0.5 * u[:, 1]
    assert np.allclose(f.value(pts), manual, atol=1e-14)


def test_h_term_real_valued():
    h = np.array([[0.2, 0.1 + 0.3j], [0.1 - 0.3j, -0.4]])
    f = Observable(h_term=h)
    rng = np.random.default_rng(2)
    pts = plain_sphere(128, 1, rng)
    vals = f.value(pts)
    assert np.max(np.abs(np.imag(vals))) == 0.0
    manual = np.real(np.einsum("ab,na,nb->n", h, pts, pts.conj()))
    assert np.allclose(vals, manual)


def test_g_average_filters_unequal_weights():
    h = np.ones((3, 3), complex)
    f = Observable(h_term=h)
    act = TorusAction([[1, -1, -1]])
    avg = f.g_average(act)
    # coordinates 1 and 2 share a weight; 0 differs
    expect = np.array([[1, 0, 0], [0, 1, 1], [0, 1, 1]], dtype=complex)
    assert np.array_equal(avg.h_term, expect)
    # trivial group keeps everything
    act0 = TorusAction(np.zeros((0, 3), dtype=np.int64))
    assert np.array_equal(f.g_average(act0).h_term, h)


def test_integral_closed_forms():
    m1, m2 = ProjectiveModel(1), ProjectiveModel(2)
    u0 = Observable.coordinate_modulus(0, 2)
    assert u0.integral_over_M(m1) == pytest.approx(m1.vol_M / 2, rel=1e-14)
    u1 = Observable.coordinate_modulus(1, 3)
    assert u1.integral_over_M(m2) == pytest.approx(m2.vol_M / 3, rel=1e-14)
    f = Observable(u_terms={(2, 1, 0): 1.0})
    # int u0^2 u1 = vol * 2! 2! 1! / 5!
    assert f.integral_over_M(m2) == pytest.approx(m2.vol_M * 2 * 2 / 120, rel=1e-13)


def test_integral_against_plain_mc():
    m2 = ProjectiveModel(2)
    f = Observable(u_terms={(1, 1, 0): 2.0, (0, 0, 3): -1.0},
                   h_term=np.diag([0.3, 0.0, -0.2]).astype(complex))
    rng = np.random.default_rng(4)
    pts = plain_sphere(400_000, 2, rng)
    mc = m2.vol_M * np.mean(f.value(pts))
    assert mc == pytest.approx(f.integral_over_M(m2), abs=4e-3)


def test_sup_bound():
    f = Observable(u_terms={(1, 0): 2.0}, h_term=np.diag([0.5, -0.5]).astype(complex))
    rng = np.random.default_rng(5)
    pts = plain_sphere(1000, 1, rng)
    assert np.max(np.abs(f.value(pts))) <= sup_bound(f) + 1e-12
