"""Exception types, the finite-input check, the value-type base and the
CSV table writer shared across the package.

The package's value types derive from ``Record``: slotted classes whose
fields are validated and set once, at construction.  They live here,
in the one module every other imports, so that a module needing no
line-space geometry (``analysis``) does not load ``line_space``.
"""

import cmath


class LineGeoError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(LineGeoError, ValueError):
    """Input outside an operation's domain (non-finite, wrong range,
    mismatched base points, inconsistent initial data)."""


class ChartExitError(DomainError):
    """The result leaves the stereographic chart: a rotation sends the
    direction past the chart bound, the south pole included."""


class NoOrbitError(DomainError):
    """No real radial motion exists: the integral ratio I1/I2^2 lies
    below the minimum of the effective potential."""


class ConvergenceError(LineGeoError, RuntimeError):
    """An iterative evaluation (series summation) did not converge
    within its configured budget."""


def finite_complex(name, value) -> complex:
    """``value`` as a complex; DomainError unless both parts are finite."""
    value = complex(value)
    if not cmath.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


def write_table(header, rows, stream):
    """Write a CSV table to ``stream``: ``header``, then one line per row
    of ``rows`` (tuples, as many values as the header names columns), each
    value to 17 significant digits (round-trips).  Each row is formatted
    as the stream takes it, so the table is never copied."""
    row = ",".join(["%.17g"] * (header.count(",") + 1)) + "\n"
    stream.write(header + "\n")
    stream.writelines(row % values for values in rows)


class Record:
    """Base of the value types: an immutable record of named fields.

    A subclass names its fields in ``__slots__``, whose setters are bound
    once per class as ``_setters``.  Its ``__init__`` validates (one
    finiteness test for all fields; ``finite_complex`` names the first bad
    one), then sets each field once through its setter, directly or via
    ``_init_fields``.  Records compare, hash and print by type and field
    values; copies and pickles are rebuilt from those without validation.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._setters = tuple([getattr(cls, name).__set__ for name in cls.__slots__])

    def _values(self):
        return tuple([getattr(self, name) for name in self.__slots__])

    def _init_fields(self, *values):
        """Set every field once, in ``__slots__`` order."""
        for setter, value in zip(self._setters, values):
            setter(self, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return _rebuild, (type(self), self._values())


def _rebuild(cls, values):
    """A ``Record`` of type ``cls`` holding ``values``, not validated."""
    record = object.__new__(cls)
    record._init_fields(*values)
    return record
