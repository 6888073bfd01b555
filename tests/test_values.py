"""The contract of the package's value classes.

Each class compares equal by its fields and is unequal to any other class,
prints as ``Name(field=value, ...)``, hashes by its fields when frozen and is
unhashable otherwise, refuses assignment to a frozen field, takes its fields
by position or keyword with their defaults, and raises the same DomainError
messages for values outside its domain.
"""

import math
import re
from array import array

import pytest

from mmopam.errors import DomainError
from mmopam.family import CanonicalParams, ManifoldGeometry, RhoSpec, compute_geometry
from mmopam.pam import MuInterval, OrbitResult, PamCoefficients, Signature, TransformedPam
from mmopam.plotting import Axes
from mmopam.radau import RadauSolution, SolverStats
from mmopam.segments import AffineMap, SegmentSpec
from mmopam.simulate import HybridResult, SimConfig, TimeSeries
from mmopam.tables import MuWindowBenchmarkRow, RowReport, SynthesisBenchmarkRow, TableReport

FIXED = RhoSpec("fixed_rational")
ZERO_STATS = "SolverStats(steps=0, rejected=0, nfev=0, njev=0, nlu=0, newton_failures=0)"
GEOMETRY = dict(x1=-2.0, x2=-1.0, x3=0.0, x4=1.0, xhat1=1.6, xhat3=1.5, xhat4=-2.5,
                y1=0.24382878089816726, y2=-0.4334834785096159, y3=0.0, y4=-0.4334834785096159)

# (class, every field by keyword in field order, one field changed to another valid value, frozen, repr)
CASES = [
    (PamCoefficients, dict(a11=0.3, a12=7.0, a21=0.9, a22=-2.0), ("a12", 1.0), True,
     "PamCoefficients(a11=0.3, a12=7.0, a21=0.9, a22=-2.0)"),
    (TransformedPam, dict(a=0.3, b=0.9, mu=7.0, l=-9.0), ("l", -5.0), True,
     "TransformedPam(a=0.3, b=0.9, mu=7.0, l=-9.0)"),
    (Signature, dict(segments=((1, 3), (2, 1))), ("segments", ((1, 3),)), True,
     "Signature(segments=((1, 3), (2, 1)))"),
    (OrbitResult, dict(iterates=[0.5, -1.0], transient_length=1, period=2, converged=True), ("period", None), False,
     "OrbitResult(iterates=[0.5, -1.0], transient_length=1, period=2, converged=True)"),
    (MuInterval, dict(lower=1.0, upper=2.0, lower_closed=False, upper_closed=True), ("lower_closed", True), True,
     "MuInterval(lower=1.0, upper=2.0, lower_closed=False, upper_closed=True)"),
    (RhoSpec, dict(variant="quadratic", p=1.0, q=1.0), ("q", 2.0), True,
     "RhoSpec(variant='quadratic', p=1.0, q=1.0)"),
    (CanonicalParams, dict(alpha=0.8743, beta=0.024, kappa=30.1744, lam=-90.407, rho=FIXED), ("lam", -73.0), True,
     "CanonicalParams(alpha=0.8743, beta=0.024, kappa=30.1744, lam=-90.407, "
     "rho=RhoSpec(variant='fixed_rational', p=None, q=None))"),
    (ManifoldGeometry, GEOMETRY, ("y3", 0.5), True,
     "ManifoldGeometry(x1=-2.0, x2=-1.0, x3=0.0, x4=1.0, xhat1=1.6, xhat3=1.5, xhat4=-2.5, "
     "y1=0.24382878089816726, y2=-0.4334834785096159, y3=0.0, y4=-0.4334834785096159)"),
    (SegmentSpec, dict(x_start=1.0, x_end=2.0), ("x_end", 3.0), True,
     "SegmentSpec(x_start=1.0, x_end=2.0)"),
    (AffineMap, dict(slope=0.5, offset=1.0), ("offset", 2.0), True,
     "AffineMap(slope=0.5, offset=1.0)"),
    (SynthesisBenchmarkRow,
     dict(signature="1^1", a11=0.3, a12=1.0, a21=0.9, a22=-2.0, alpha=0.8743, beta=0.024, kappa=27.2674, lam=-64.5764),
     ("kappa", 27.0), True,
     "SynthesisBenchmarkRow(signature='1^1', a11=0.3, a12=1.0, a21=0.9, a22=-2.0, alpha=0.8743, beta=0.024, "
     "kappa=27.2674, lam=-64.5764)"),
    (MuWindowBenchmarkRow, dict(signature="1^2", a=0.3, b=0.9, l=-5.0, mu_lo=2.9262, mu_hi=3.5055, mu_actual=3.0),
     ("mu_hi", 3.5), True,
     "MuWindowBenchmarkRow(signature='1^2', a=0.3, b=0.9, l=-5.0, mu_lo=2.9262, mu_hi=3.5055, mu_actual=3.0)"),
    (RowReport, dict(label="1^1", passed=True, details={"dev": 0.5}), ("passed", False), False,
     "RowReport(label='1^1', passed=True, details={'dev': 0.5})"),
    (TableReport, dict(name="t", rows=[RowReport("a", False, {})]), ("rows", []), False,
     "TableReport(name='t', rows=[RowReport(label='a', passed=False, details={})])"),
    (Axes, dict(x_min=0.0, x_max=1.0, y_min=-1.0, y_max=2.0), ("y_max", 3.0), True,
     "Axes(x_min=0.0, x_max=1.0, y_min=-1.0, y_max=2.0)"),
    (SolverStats, dict(steps=0, rejected=0, nfev=0, njev=0, nlu=0, newton_failures=0), ("nlu", 3), False,
     ZERO_STATS),
    (RadauSolution, dict(t=[0.0], y=[(1.3, 0.0, -0.5)], crossings=[], stats=SolverStats()),
     ("crossings", [(0.5, 0.5, 0.0, 0.0)]), False,
     f"RadauSolution(t=[0.0], y=[(1.3, 0.0, -0.5)], crossings=[], stats={ZERO_STATS})"),
    (SimConfig, dict(eps=1e-7, delta=5e-3, max_slow_time=40.0, initial_state=None), ("initial_state", (1.3, 0.0, 0.0)),
     True, "SimConfig(eps=1e-07, delta=0.005, max_slow_time=40.0, initial_state=None)"),
    (TimeSeries, dict(t=array("d", [0.0, 1.0]), x=[1.0, 2.0], y=[0.0, 0.0], z=[0.5, 0.25], crossing_states=[],
                      solver_stats=None, jump_stats=SolverStats(steps=2)), ("jump_stats", None), False,
     "TimeSeries(t=array('d', [0.0, 1.0]), x=[1.0, 2.0], y=[0.0, 0.0], z=[0.5, 0.25], crossing_states=[], "
     "solver_stats=None, jump_stats=SolverStats(steps=2, rejected=0, nfev=0, njev=0, nlu=0, newton_failures=0))"),
    (HybridResult, dict(returns=[-0.5, 1.0], signature=Signature(((1, 1),)), period=2, solver_stats=None),
     ("period", 3), False,
     "HybridResult(returns=[-0.5, 1.0], signature=Signature(segments=((1, 1),)), period=2, solver_stats=None)"),
]
IDS = [case[0].__name__ for case in CASES]


def test_every_value_class_is_in_the_contract():
    from mmopam.errors import FrozenValue, Value

    classes = {cls for base in (Value, FrozenValue) for cls in base.__subclasses__()} - {FrozenValue}
    assert classes == {case[0] for case in CASES}
    assert len(CASES) == 20


@pytest.mark.parametrize("cls, kwargs, changed, frozen, text", CASES, ids=IDS)
class TestValueContract:
    def test_repr(self, cls, kwargs, changed, frozen, text):
        value = cls(**kwargs)
        assert repr(value) == text
        if type(value).__str__ is object.__str__:
            assert str(value) == text  # how simulate prints its SolverStats lines

    def test_construction_by_position_or_keyword(self, cls, kwargs, changed, frozen, text):
        value = cls(**kwargs)
        assert {name: getattr(value, name) for name in kwargs} == kwargs
        assert cls(*kwargs.values()) == value
        assert list(vars(value)) == list(kwargs)  # the fields are the instance's only attributes

    def test_equality_by_fields(self, cls, kwargs, changed, frozen, text):
        value, same = cls(**kwargs), cls(**kwargs)
        assert value == same and not value != same
        name, other = changed
        assert value != cls(**{**kwargs, name: other})
        # another class with the same field values is never equal, a subclass included
        sub = type("Sub", (cls,), {})(**kwargs)
        assert value != sub and sub != value
        assert value.__eq__(sub) is NotImplemented
        assert value.__eq__(tuple(kwargs.values())) is NotImplemented
        assert value != tuple(kwargs.values())

    def test_hash(self, cls, kwargs, changed, frozen, text):
        value = cls(**kwargs)
        if frozen:
            assert hash(value) == hash(cls(**kwargs)) == hash(tuple(getattr(value, name) for name in kwargs))
        else:
            with pytest.raises(TypeError, match="unhashable type"):
                hash(value)

    def test_assignment(self, cls, kwargs, changed, frozen, text):
        value = cls(**kwargs)
        name, other = changed
        if frozen:
            for field in kwargs:
                with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
                    setattr(value, field, other)
                with pytest.raises(AttributeError, match=f"^cannot delete field '{field}'$"):
                    delattr(value, field)
            with pytest.raises(AttributeError):
                value.extra = 1
            assert value == cls(**kwargs)
        else:
            setattr(value, name, other)
            assert getattr(value, name) == other


def test_signature_is_stored_in_canonical_rotation():
    assert Signature(segments=((2, 1), (1, 3))).segments == ((1, 3), (2, 1))


def test_different_classes_with_equal_values_differ():
    assert SegmentSpec(1.0, 2.0) != AffineMap(1.0, 2.0)
    assert PamCoefficients(0.3, 7.0, 0.9, -2.0) != TransformedPam(0.3, 7.0, 0.9, -2.0)


def test_defaults():
    # a default is read on the class too, as the CLI reads SimConfig.delta
    assert (SimConfig.eps, SimConfig.delta, SimConfig.max_slow_time, SimConfig.initial_state) == (1e-7, 5e-3, 40.0, None)
    assert (RhoSpec.p, RhoSpec.q, TimeSeries.solver_stats, TimeSeries.jump_stats, HybridResult.solver_stats) == (
        None, None, None, None, None)
    assert SolverStats.steps == SolverStats.newton_failures == 0
    assert SimConfig() == SimConfig(eps=1e-7, delta=5e-3, max_slow_time=40.0, initial_state=None)
    cfg = SimConfig(eps=1e-6, delta=1e-2, initial_state=(1.3, 0.0, -5e-3))
    assert (cfg.max_slow_time, cfg.initial_state) == (40.0, (1.3, 0.0, -5e-3))
    assert SolverStats(nfev=2) == SolverStats(0, 0, 2, 0, 0, 0)
    assert RhoSpec("fixed_rational") == RhoSpec("fixed_rational", None, None)
    assert RhoSpec("quadratic", **{"p": 1.0, "q": 2.0}) == RhoSpec("quadratic", 1.0, 2.0)
    # list and counter defaults are fresh per instance
    a, b = RadauSolution([0.0], [(1.3, 0.0, -0.5)]), RadauSolution([0.0], [(1.3, 0.0, -0.5)])
    assert a == RadauSolution([0.0], [(1.3, 0.0, -0.5)], [], SolverStats())
    assert a.crossings is not b.crossings and a.stats is not b.stats
    s, u = TimeSeries([0.0], [1.0], [0.0], [0.0]), TimeSeries([0.0], [1.0], [0.0], [0.0])
    assert (s.crossing_states, s.solver_stats, s.jump_stats) == ([], None, None)
    assert s.crossing_states is not u.crossing_states
    assert HybridResult([], None, None).solver_stats is None


def test_canonical_params_field_is_a_per_instance_cache():
    params, twin = (CanonicalParams(0.8743, 0.024, 30.1744, -90.407, FIXED) for _ in range(2))
    text = repr(params)
    assert params.field is params.field
    assert twin.field is not params.field
    assert params == twin and hash(params) == hash(twin)
    assert repr(params) == text


def test_solver_stats_add_every_counter():
    names = re.findall(r"(\w+)=", ZERO_STATS)
    assert repr(SolverStats()) == ZERO_STATS  # a new counter shows in the repr, so it joins this test
    for name in names:
        total = SolverStats(**{name: 1})
        total += SolverStats(**{name: 2})
        assert total == SolverStats(**{name: 3}), name
    total = SolverStats(*range(1, 7))
    alias = total
    total += SolverStats(*range(10, 70, 10))
    assert total is alias
    assert total == SolverStats(11, 22, 33, 44, 55, 66)


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: PamCoefficients(NAN, 1.0, 0.9, -2.0), "map coefficients must be finite, got (nan, 1.0, 0.9, -2.0)"),
        (lambda: PamCoefficients(-0.3, 7.0, 0.9, -2.0), "branch slopes must be positive, got a11=-0.3, a21=0.9"),
        (lambda: TransformedPam(0.3, 0.9, INF, -9.0),
         "map coefficients must be finite, got a=0.3, b=0.9, mu=inf, l=-9.0"),
        (lambda: Signature(()), "signature needs at least one (L, s) segment"),
        (lambda: Signature(((0, 1),)), "invalid signature segment (0, 1)"),
        (lambda: Signature(((1, 0), (1, 1))), "s = 0 only allowed for the pure-LAO pattern 1^0"),
        (lambda: RhoSpec("quadratic", p=1.0), "quadratic rho needs p and q"),
        (lambda: RhoSpec("fixed_rational", p=1.0, q=1.0), "fixed_rational rho takes no (p, q)"),
        (lambda: RhoSpec("cubic"), "unknown rho variant 'cubic'"),
        (lambda: RhoSpec("quadratic", p=0.0, q=0.0), "rho vanishes on [-3.0, 2.0]"),
        (lambda: RhoSpec("quadratic", p=NAN, q=1.0), "rho needs finite p and q, got p=nan, q=1.0"),
        (lambda: CanonicalParams(NAN, 0.0, 0.0, 0.0, FIXED),
         "vector-field parameters must be finite, got alpha=nan, beta=0.0, kappa=0.0, lambda=0.0"),
        (lambda: SegmentSpec(1.0, 1.0), "segment endpoints must differ"),
        (lambda: SimConfig(eps=0.0), "eps must lie in (0, 1e-3], got 0.0"),
        (lambda: SimConfig(delta=0.5), "delta must lie in (0, 1e-1], got 0.5"),
        (lambda: SimConfig(max_slow_time=INF), "max_slow_time must be positive and finite, got inf"),
        (lambda: SimConfig(initial_state=(1.0, 2.0)),
         "initial_state must be None or three finite numbers, got (1.0, 2.0)"),
        (lambda: TimeSeries([0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [0.0, 0.0]),
         "sample times must be strictly increasing"),
    ],
)
def test_domain_error_messages(build, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        build()


def test_geometry_is_the_design_constant():
    assert compute_geometry(None) == ManifoldGeometry(**GEOMETRY)
