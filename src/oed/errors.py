"""Exception types shared across the package, and the run-time bound.

The CLI maps these onto exit codes: input problems exit 2, resource caps
exit 3, internal cross-check failures exit 4. ``check_price`` is the one
refusal of an engine, sweep or scan whose estimated run time is over
DP_SECONDS.
"""

# The longest estimated run, in seconds, of any priced engine or scan; work
# priced over it is refused with CapError before it starts.
DP_SECONDS = 60


class ParseError(ValueError):
    """Input text does not conform to a supported graph format."""


class GraphError(ValueError):
    """Attempt to construct an invalid graph (self-loop, duplicate edge, ...)."""


class CapError(RuntimeError):
    """A stated resource cap (edge or vertex limit) would be exceeded."""


class EngineDisagreement(RuntimeError):
    """Two computation paths that must agree produced different results."""


def check_price(estimate: str, seconds: float) -> None:
    """Raise CapError, quoting ``estimate``, when ``seconds`` is over DP_SECONDS."""
    if seconds > DP_SECONDS:
        raise CapError(f"{estimate}, at most {DP_SECONDS} s is supported")
