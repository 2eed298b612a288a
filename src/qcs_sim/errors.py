"""Exception types shared across the simulator: one per cause a run can fail for."""


class QcsSimError(Exception):
    """Base class for simulator-specific errors."""


class ConfigError(QcsSimError, ValueError):
    """A scenario configuration violates a documented invariant.

    Raised by every config check, loaded or built in Python: a field's type
    or range, a cross-reference (e.g. a species with no oscillator phase
    entry), a run argument, and a protocol's rejection of a config, such as
    an ambiguous syntonize rate, always before the first trial. A ValueError
    subclass; the only error that maps to CLI exit code 2.
    """


class DegenerateCountsError(QcsSimError, RuntimeError):
    """A trial's counts carry no phase estimate.

    Chance reaches it two ways: a quadrature holds fewer pairs than the
    estimator needs, or the counts sit at the circle center. The ensemble
    floor makes the first rare (about 5e-10 per epoch); a shuffled type
    list or a large sigma_pair makes the second reachable. Maps to CLI
    exit code 3.
    """
