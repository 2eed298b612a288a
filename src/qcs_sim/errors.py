"""Exception types shared across the simulator."""


class QcsSimError(Exception):
    """Base class for simulator-specific errors."""


class ConfigError(QcsSimError):
    """A scenario configuration violates a documented invariant.

    Raised during config loading/validation and for cross-reference
    failures (e.g. a species with no oscillator phase entry). Maps to
    CLI exit code 2.
    """


class InsufficientSamplesError(QcsSimError, ValueError):
    """A measurement record has too few pairs for phase estimation."""


class AmbiguityError(QcsSimError, ValueError):
    """The configured phase advance exceeds the unambiguous +/- pi window."""


class DegenerateCountsError(QcsSimError, RuntimeError):
    """Quadrature counts sit at the circle center and carry no phase.

    For pure equatorial states this cannot happen in expectation; seeing
    it signals a model violation (e.g. an incoherent mixture was measured).
    """
