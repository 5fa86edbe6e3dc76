"""Exception types shared across the package."""


class DispgeoError(Exception):
    """Base class for all package-specific errors."""


class InvalidGenerator(DispgeoError, ValueError):
    """A letter index is zero or exceeds the rank of the free group."""


class RankMismatch(DispgeoError, ValueError):
    """Two words from free groups of different ranks were combined."""


class NotAlmostCyclicallyReduced(DispgeoError, ValueError):
    """An operation required an almost cyclically reduced element."""


class HypothesisViolated(DispgeoError, ValueError):
    """A stated hypothesis fails; ``index`` names the first offender when known."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class NotPingPong(DispgeoError, ValueError):
    """A pair fails one of the three ping-pong conditions.

    ``condition`` is 1, 2 or 3 (the first condition that fails) and
    ``margin`` the slack of that condition: negative, or -100 delta for
    an empty word, which fails condition 1 at any delta.
    """

    def __init__(self, condition, margin):
        super().__init__(condition, margin)
        self.condition = condition
        self.margin = margin

    def __str__(self):
        return (f"not a ping-pong pair: condition {self.condition} fails "
                f"(margin {self.margin})")


class PingPongNotFound(DispgeoError, ValueError):
    """No power up to the search cap produced a ping-pong pair."""


class SelectionFailed(DispgeoError, RuntimeError):
    """None of the three selector candidates is almost cyclically reduced.

    At delta = 0 on a free group this cannot happen; seeing it signals an
    implementation bug rather than bad input.
    """


class SingularInput(DispgeoError, ValueError):
    """A matrix was numerically singular where an invertible one was needed."""


class EigenFailure(DispgeoError, RuntimeError):
    """The dense eigenvalue solver failed to converge."""


class NoDominantEigenvalue(DispgeoError, ValueError):
    """Top eigenvalue modulus is not simple and real within tolerance."""


class SeparationFailed(DispgeoError, ValueError):
    """Attracting point is closer than ``r`` to the repelling hyperplane."""

    def __init__(self, separation, r):
        super().__init__(separation, r)
        self.separation = separation
        self.r = r

    def __str__(self):
        return f"separation {self.separation} < r = {self.r}"


class ContractionFailed(DispgeoError, ValueError):
    """A sample point far from the hyperplane is not mapped near the
    attracting point."""

    def __init__(self, witness, distance, epsilon):
        super().__init__(witness, distance, epsilon)
        self.witness = witness
        self.distance = distance
        self.epsilon = epsilon

    def __str__(self):
        return (f"contraction fails at {self.witness}: "
                f"distance {self.distance} > epsilon = {self.epsilon}")


class ResourceExceeded(DispgeoError, RuntimeError):
    """An enumeration passed its configured size cap.

    ``count`` is the size at the moment the cap was hit.
    """

    def __init__(self, message, count):
        super().__init__(message, count)
        self.count = count

    def __str__(self):
        return str(self.args[0])


class SoundnessFailure(DispgeoError, RuntimeError):
    """A cross-check found what a certificate excludes: a bug, not a cap."""


class IdentityInput(DispgeoError, ValueError):
    """The identity matrix is not a valid input here."""


class TorsionInput(DispgeoError, ValueError):
    """A torsion (finite-order) matrix is not a valid input here."""


class DimensionUnsupported(DispgeoError, ValueError):
    """Matrix dimension outside the supported range."""


class NoModulusFound(DispgeoError, ValueError):
    """No prime modulus below the cap keeps every class representative
    away from the identity (impossible for genuine nonidentity inputs)."""


class ParseError(DispgeoError, ValueError):
    """Structured text input could not be parsed; carries position info."""
