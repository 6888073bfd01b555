"""Exception hierarchy shared by all mmopam modules, the two JSON checks that raise it, and the value-class base."""


class MmopamError(Exception):
    """Base class for all package errors."""


class DomainError(MmopamError):
    """Input outside the admissible parameter domain."""


class DiscontinuityHit(MmopamError):
    """An iterate or jump value landed on (or numerically at) the map's jump at Z = 0."""


class NotPeriodic(MmopamError):
    """A periodic pattern was required but none was detected.

    ``series`` is the partial time series when the integration itself came up short, else None.
    """

    def __init__(self, message: str, series=None):
        super().__init__(message)
        self.series = series


class SingularSystem(MmopamError):
    """A 2x2 solve in the synthesis pipeline is singular relative to the scale of its terms."""


class SynthesisVerificationFailure(MmopamError):
    """The synthesized vector field's associated map does not reproduce the target."""


class StepSizeUnderflow(MmopamError):
    """The stiff integrator failed to advance; typically a canard passage."""


class NonFiniteState(MmopamError):
    """The integrated state left the finite range."""


class RootFindingFailure(MmopamError):
    """Brent's method was given no sign change, or did not converge."""


def json_float(obj, key) -> float:
    """``float(obj[key])``; a missing key or a value that float() rejects raises DomainError."""
    try:
        return float(obj[key])
    except (LookupError, TypeError, ValueError):
        raise DomainError(f"{key!r} must be a number in {obj!r}") from None


def check_z0(obj: dict) -> None:
    """Accept a JSON object whose ``"z0"`` is absent or 0; any other value raises DomainError."""
    if obj.get("z0", 0.0) != 0.0:
        raise DomainError(f"z0 is fixed at 0, got {obj['z0']!r}")


class Value:
    """Base of the package's value classes: equality and repr over the class's ``_fields``.

    Instances of the same class are equal when their fields are; against any other class
    ``==`` returns NotImplemented. Instances are unhashable; :class:`FrozenValue` hashes by
    the fields. Each subclass writes its own ``__init__``.
    """

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"


class FrozenValue(Value):
    """A :class:`Value` hashed by its fields, whose attributes cannot be assigned or deleted.

    ``__init__`` stores the fields in ``vars(self)``.
    """

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
