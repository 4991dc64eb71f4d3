"""Exception types raised by the gainloss pipeline.

Every stage raises a subclass of :class:`GainLossError`, so callers (and the
command line driver) can separate bad input from numerical failure without
string matching.
"""

from __future__ import annotations


class GainLossError(Exception):
    """Base class for all errors raised by this package."""


def outcome(make, *args, **kwargs):
    """``make(*args, **kwargs)``, or the :class:`GainLossError` it raises."""
    try:
        return make(*args, **kwargs)
    except GainLossError as exc:
        return exc


class InputError(GainLossError):
    """Bad user-supplied data or configuration (CLI exit code 2)."""


class MalformedRowError(InputError):
    """A CSV row could not be parsed as (ISO date, positive float)."""


class DuplicateDateError(InputError):
    """The same date appears twice in one price series."""


class NonPositivePriceError(InputError):
    """A close price of zero or below has no logarithm."""


class EmptySeriesError(InputError):
    """An operation received a series with no rows."""


class ZeroVarianceError(InputError):
    """A variance-based quantity was requested from a constant series."""


class WindowTooLargeError(InputError):
    """A rolling window or slice is shorter than one step or exceeds the
    available observations."""


class NonPositiveRhoError(InputError):
    """The barrier level rho must be strictly positive."""


class EmptySideError(InputError):
    """One side (gain or loss) has no uncensored hitting times."""


class ExcessCensoringError(InputError):
    """Too large a fraction of first-passage paths never crossed the barrier."""


class DegenerateSampleSizesError(InputError):
    """Effect-size pooling needs at least two observations per side."""


class DomainError(GainLossError):
    """A density or transform was evaluated outside its mathematical domain."""


class NonFiniteError(GainLossError):
    """NaN or inf where a finite number is needed: a log density, or a series value."""


class AdaptationFailedError(GainLossError):
    """A chain's warmup never reached a workable acceptance rate."""

    def __init__(self, chain: int, accept_rate: float):
        self.chain = chain
        self.accept_rate = accept_rate
        super().__init__(
            f"chain {chain}: mean acceptance {accept_rate:.4f} stayed below 0.1 "
            "during warmup"
        )

    def __reduce__(self):
        # the default rebuilds from the message alone, which __init__ refuses;
        # a chain run in a worker process sends its error back pickled
        return type(self), (self.chain, self.accept_rate), self.__dict__


class TooFewSamplesError(GainLossError):
    """A posterior summary needs more draws than were supplied."""


class DegenerateChainsError(GainLossError):
    """Convergence statistics are undefined when a chain has zero variance."""


class MalformedReportError(InputError):
    """A report or scan file lacks the fields a plot needs."""
