"""Seek-time model.

The classic three-parameter curve (Lee/Katz): for a seek of ``d >= 1``
cylinders,

    t(d) = single + alpha * sqrt(d - 1) + beta * (d - 1)

— square-root-dominated arm acceleration for short seeks, linear coast for
long ones.  :meth:`SeekModel.fitted` solves alpha and beta from the drive's
published single-cylinder, average (over uniformly random request pairs),
and full-stroke seek times, which is all Table 2 gives us for the HP 2247.
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError


class SeekModel:
    """Seek time as a function of cylinder distance.

    >>> m = SeekModel(cylinders=1981, single_ms=2.9, alpha=0.2, beta=0.004)
    >>> m.seek_time(0)
    0.0
    >>> m.seek_time(1)
    2.9
    """

    def __init__(
        self, cylinders: int, single_ms: float, alpha: float, beta: float
    ):
        if cylinders < 2:
            raise ConfigurationError("need at least 2 cylinders")
        if single_ms < 0 or alpha < 0 or beta < 0:
            raise ConfigurationError("seek parameters must be nonnegative")
        self.cylinders = cylinders
        self.single_ms = single_ms
        self.alpha = alpha
        self.beta = beta

    def seek_time(self, distance: int) -> float:
        """Milliseconds to move the arm ``distance`` cylinders.

        The simulator reads the curve through the drive's precomputed
        seek table (:class:`~repro.disk.drive.ServiceTables`), which is
        its cache.
        """
        if distance < 0:
            raise ConfigurationError(f"negative seek distance {distance}")
        if distance == 0:
            return 0.0
        return (
            self.single_ms
            + self.alpha * math.sqrt(distance - 1)
            + self.beta * (distance - 1)
        )

    def average_seek_time(self) -> float:
        """Mean seek time over independent uniform start/end cylinders,
        conditioned on actually moving (distance >= 1)."""
        c = self.cylinders
        total = 0.0
        weight = 0
        for d in range(1, c):
            w = 2 * (c - d)  # number of ordered pairs at distance d
            total += w * self.seek_time(d)
            weight += w
        return total / weight

    @classmethod
    def fitted(
        cls,
        cylinders: int,
        single_ms: float,
        average_ms: float,
        max_ms: float,
    ) -> "SeekModel":
        """Solve alpha/beta to hit the published average and full-stroke
        times exactly.

        >>> m = SeekModel.fitted(1981, 2.9, 10.0, 18.0)
        >>> round(m.average_seek_time(), 6)
        10.0
        >>> round(m.seek_time(1980), 6)
        18.0
        """
        if not single_ms < average_ms < max_ms:
            raise ConfigurationError(
                "need single < average < max seek times"
            )
        c = cylinders
        # Conditional expectations of sqrt(d-1) and (d-1) for d >= 1.
        weight = 0
        e_sqrt = 0.0
        e_lin = 0.0
        for d in range(1, c):
            w = 2 * (c - d)
            weight += w
            e_sqrt += w * math.sqrt(d - 1)
            e_lin += w * (d - 1)
        e_sqrt /= weight
        e_lin /= weight
        dmax = c - 1
        # alpha * e_sqrt + beta * e_lin = average - single
        # alpha * sqrt(dmax-1) + beta * (dmax-1) = max - single
        a1, b1, r1 = e_sqrt, e_lin, average_ms - single_ms
        a2, b2, r2 = math.sqrt(dmax - 1), dmax - 1, max_ms - single_ms
        det = a1 * b2 - a2 * b1
        if abs(det) < 1e-12:
            raise ConfigurationError("degenerate seek fit")
        alpha = (r1 * b2 - r2 * b1) / det
        beta = (a1 * r2 - a2 * r1) / det
        if alpha < 0 or beta < 0:
            raise ConfigurationError(
                f"published times imply a non-physical curve"
                f" (alpha={alpha:.4f}, beta={beta:.6f})"
            )
        return cls(cylinders, single_ms, alpha, beta)

    def __repr__(self) -> str:
        return (
            f"SeekModel(cylinders={self.cylinders}, single={self.single_ms},"
            f" alpha={self.alpha:.4f}, beta={self.beta:.6f})"
        )
