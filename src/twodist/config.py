"""Runtime configuration: size limits and numerical tolerances.

Precedence is CLI flags > environment variables (``TWODIST_`` prefix) >
defaults.  Library code reads the active configuration through
:func:`get_config`; tests and the CLI install their own via
:func:`set_config` or the :func:`override` context manager.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from fractions import Fraction


@dataclass(frozen=True)
class Config:
    # Vertex limit of every command.  The exact work (walk polynomials,
    # certified roots) grows polynomially in n, not exponentially; 16
    # keeps each command well under a second, and --max-n or
    # TWODIST_MAX_N lifts it for larger graphs.
    max_n: int = 16
    # Slack when testing membership of t in the feasible window.
    feas_slack: float = 1e-9
    # Tolerance for classifying observed distances as "short" or "long".
    dist_tol: float = 1e-7
    # Width to which root enclosures are refined before being reported.
    tau_width: Fraction = Fraction(1, 10**13)
    # Width target for the squared-circumradius enclosure.
    r2_width: Fraction = Fraction(1, 10**12)

    def __post_init__(self):
        if self.max_n < 1:
            raise ValueError(f"max_n must be >= 1, got {self.max_n}")
        for field in fields(self):
            value = getattr(self, field.name)
            if isinstance(value, float) and not 0 <= value < math.inf:
                raise ValueError(f"{field.name} must be finite and >= 0, got {value}")

    @classmethod
    def from_env(cls) -> "Config":
        kwargs = {}
        max_n = os.environ.get("TWODIST_MAX_N")
        tol = os.environ.get("TWODIST_TOL")
        try:
            if max_n is not None:
                kwargs["max_n"] = int(max_n)
            if tol is not None:
                kwargs["dist_tol"] = kwargs["feas_slack"] = float(tol)
            return cls(**kwargs)
        except ValueError as exc:
            raise ValueError(f"TWODIST_MAX_N/TWODIST_TOL: {exc}") from None


_active: Config | None = None


def get_config() -> Config:
    global _active
    if _active is None:
        _active = Config.from_env()
    return _active


def set_config(cfg: Config) -> None:
    global _active
    _active = cfg


@contextmanager
def override(**changes):
    """Temporarily replace fields of the active configuration."""
    global _active
    old = get_config()
    _active = replace(old, **changes)
    try:
        yield _active
    finally:
        _active = old
