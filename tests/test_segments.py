import math

import pytest

from mmopam.errors import DomainError
from mmopam.family import CanonicalParams
from mmopam.pam import detect_signature, iterate_orbit
from mmopam.segments import AffineMap, SegmentSpec, associated_pam, segment_affine

from oracles import segment_quadrature

PARAMS_1_3 = (0.8743, 0.0240, 30.1744, -90.4070)  # realizes the 1^3 target map


def test_affine_map_call_and_identity():
    m = AffineMap(2.0, -1.0)
    assert m(3.0) == 5.0


def test_segment_spec_validation():
    with pytest.raises(DomainError):
        SegmentSpec(1.0, 1.0)


@pytest.mark.parametrize("rho_name", ["fixed_rho", "quad_rho"])
def test_closed_form_matches_quadrature(rho_name, request, geometry):
    rho = request.getfixturevalue(rho_name)
    params = CanonicalParams(*PARAMS_1_3, rho)
    for seg in (SegmentSpec(*passage) for branch in geometry.branches for passage in branch):
        cf = segment_affine(params, seg)
        qd = segment_quadrature(params, seg)
        assert math.isclose(cf.slope, qd.slope, rel_tol=1e-9, abs_tol=1e-10)
        assert math.isclose(cf.offset, qd.offset, rel_tol=1e-9, abs_tol=1e-8)


def test_branch_slopes_positive(fixed_rho, geometry):
    pam = associated_pam(CanonicalParams(*PARAMS_1_3, fixed_rho), geometry)
    assert pam.a11 > 0.0
    assert pam.a21 > 0.0


def test_associated_pam_realizes_target(fixed_rho, geometry):
    # the frozen parameters reproduce their target map to the print precision
    params = CanonicalParams(*PARAMS_1_3, fixed_rho)
    pam = associated_pam(params, geometry)
    assert math.isclose(pam.a11, 0.3, abs_tol=2e-4)
    assert math.isclose(pam.a12, 7.0, abs_tol=5e-3)
    assert math.isclose(pam.a21, 0.9, abs_tol=2e-4)
    assert math.isclose(pam.a22, -2.0, abs_tol=5e-3)
    assert str(detect_signature(iterate_orbit(pam, -0.5))) == "1^3"
