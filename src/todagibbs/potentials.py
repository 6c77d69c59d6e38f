"""Confining potentials.

Every ensemble and variational problem in this package uses a confinement of
the form W(x) = x^2/2 + V(x).  V has one representation: an even polynomial
``coeffs`` (ascending powers, positive leading coefficient) that an optional
table overrides by its linear interpolant on the table's range.

* V = 0 is the polynomial with no terms and no table.
* A polynomial V has no table.
* A tabulated V is a continuous function given at the table's nodes; its
  ``coeffs`` are the envelope, V outside the table.  Construction requires
  the two to agree within ``slack`` at both table edges.

The checks made at construction (finite entries, an even polynomial whose
leading coefficient is positive, or a constant one) already make W bounded
below and tending to +infinity, so no potential is probed for confinement
afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class NonConfiningError(ValueError):
    """W = x^2/2 + V grows too slowly for ``domain_auto`` to bound its tail."""

    exit_code = 1  # the command line's status for it: invalid input


def _poly_eval(coeffs: tuple[float, ...], x):
    # ascending powers, evaluated with Horner
    acc = np.zeros_like(np.asarray(x, dtype=float))
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _validate_even_poly(coeffs: tuple[float, ...]) -> tuple[float, ...]:
    arr = np.asarray(coeffs, dtype=float)
    if arr.size == 0:
        return ()
    if not np.all(np.isfinite(arr)):
        raise ValueError("polynomial coefficients must be finite")
    # trim trailing zeros
    nz = np.nonzero(arr)[0]
    if nz.size == 0:
        return ()
    arr = arr[: nz[-1] + 1]
    degree = arr.size - 1
    if degree % 2 != 0:
        raise ValueError(f"potential polynomial must have even degree, got {degree}")
    if degree > 0 and arr[-1] <= 0:
        raise ValueError("leading coefficient must be positive")
    if np.any(arr[1::2] != 0.0):
        raise ValueError("potential polynomial must be even (odd coefficients zero)")
    return tuple(float(c) for c in arr)


@dataclass(frozen=True)
class Potential:
    """The V part of the confinement W(x) = x^2/2 + V(x).

    V is the even polynomial ``coeffs`` (ascending powers; none for V = 0),
    except on the range of the table ``table_x``, ``table_v`` (empty for a
    polynomial V), where it is the table's linear interpolant.  Use the
    constructors :meth:`zero`, :meth:`polynomial`, :meth:`tabulated` rather
    than instantiating directly.
    """

    coeffs: tuple[float, ...] = ()
    table_x: tuple[float, ...] = field(default=(), repr=False)
    table_v: tuple[float, ...] = field(default=(), repr=False)
    slack: float = 0.0

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls) -> "Potential":
        return cls()

    @classmethod
    def polynomial(cls, coeffs) -> "Potential":
        """Even polynomial, coefficients in ascending powers; trailing zeros are dropped."""
        return cls(coeffs=_validate_even_poly(tuple(np.atleast_1d(coeffs))))

    @classmethod
    def tabulated(cls, xs, vs, envelope_coeffs=(), slack=1e-2) -> "Potential":
        xs = np.asarray(xs, dtype=float)
        vs = np.asarray(vs, dtype=float)
        if xs.ndim != 1 or xs.size < 2 or xs.shape != vs.shape:
            raise ValueError("tabulated potential needs matching 1-d x and v arrays")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(vs))):
            raise ValueError("tabulated potential entries must be finite")
        if np.any(np.diff(xs) <= 0):
            raise ValueError("tabulation grid must be strictly increasing")
        env = _validate_even_poly(tuple(np.atleast_1d(envelope_coeffs)))
        slack = float(slack)
        # a NaN or infinite slack would let every edge gap below pass
        if not (np.isfinite(slack) and slack >= 0):
            raise ValueError(f"slack must be finite and nonnegative, got {slack}")
        pot = cls(
            coeffs=env,
            table_x=tuple(float(v) for v in xs),
            table_v=tuple(float(v) for v in vs),
            slack=slack,
        )
        # handoff consistency: table and envelope must agree at the edges
        for edge in (xs[0], xs[-1]):
            gap = abs(pot(edge) - _poly_eval(env, edge))
            if gap > pot.slack:
                raise ValueError(
                    f"tabulated V and envelope disagree by {gap:.3g} at x={edge:.3g}, "
                    f"exceeds slack {pot.slack:.3g}"
                )
        return pot

    # -- predicates ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not (self.coeffs or self.table_x)

    @property
    def is_polynomial(self) -> bool:
        return not self.table_x

    @property
    def is_tabulated(self) -> bool:
        return bool(self.table_x)

    # -- evaluation ----------------------------------------------------

    def __call__(self, x):
        """Evaluate V(x): the polynomial, or the table's interpolant on its range."""
        x = np.asarray(x, dtype=float)
        if not self.table_x:
            return _poly_eval(self.coeffs, x)
        xs = np.asarray(self.table_x)
        return np.where((x >= xs[0]) & (x <= xs[-1]),
                        np.interp(x, xs, np.asarray(self.table_v)),
                        _poly_eval(self.coeffs, x))

    def confinement(self, x):
        """W(x) = x^2/2 + V(x)."""
        x = np.asarray(x, dtype=float)
        return 0.5 * x * x + self(x)

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        if self.is_tabulated:
            return {
                "type": "tabulated",
                "x": list(self.table_x),
                "v": list(self.table_v),
                "envelope": list(self.coeffs),
                "slack": self.slack,
            }
        if self.is_zero:
            return {"type": "zero"}
        return {"type": "polynomial", "coeffs": list(self.coeffs)}

    @classmethod
    def from_dict(cls, spec: dict) -> "Potential":
        """The potential of a JSON spec as ``to_dict`` writes it; a missing key raises KeyError."""
        form = spec.get("type")
        if form == "zero":
            return cls.zero()
        if form == "polynomial":
            return cls.polynomial(_numbers(spec, "coeffs"))
        if form == "tabulated":
            slack = spec.get("slack", 1e-2)
            if not _is_number(slack):
                raise ValueError(f"slack must be a number, got {slack!r}")
            return cls.tabulated(_numbers(spec, "x"), _numbers(spec, "v"),
                                 _numbers(spec, "envelope", []), slack)
        raise ValueError(f"unknown potential type: {form!r}")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _numbers(spec: dict, key: str, default=None) -> list:
    """spec[key], which must be a JSON list of numbers; ``default`` when absent, if given."""
    value = spec[key] if default is None else spec.get(key, default)
    if not (isinstance(value, list) and all(_is_number(v) for v in value)):
        raise ValueError(f"{key} must be a list of numbers, got {value!r}")
    return value
