"""Exception types raised by the analytical solvers and the simulator."""


class V2xMacError(Exception):
    """Base class for all package errors."""


class InvalidArgument(V2xMacError, ValueError):
    """An argument lies outside the domain the function is defined on."""


class NonStochasticMatrix(V2xMacError):
    """A transition-matrix row does not sum to 1 or has entries outside [0, 1]."""


class NoConvergence(V2xMacError):
    """The steady-state solve failed to reach the required residual."""


class UnknownChainKind(V2xMacError):
    """build_chain received an unrecognized chain identifier."""


class DegenerateTransmitProbability(V2xMacError):
    """P_t = 0 leaves the generator chain with no exit from the blocked states."""


class DegenerateQueue(V2xMacError):
    """The queue rates define no explicit chain, or the queue can fill but never drain."""


class SaturatedQueue(V2xMacError):
    """A closed form whose queue is never empty in double precision.

    The C-V2X MAC at P_qne = 0, or at a P_qne at which its normalization
    underflows; the device queue at rates at which its P_qe underflows to 0.
    """


class ChannelSaturated(V2xMacError):
    """theta = 1 makes the 802.11p closed form undefined."""


class NoFixedPoint(V2xMacError):
    """The coupled root search found no sign change or ran out of evaluations.

    `trace` holds every evaluated (P_t, P_t - G(P_t)) pair, in order.
    """

    def __init__(self, message, trace=()):
        super().__init__(message)
        self.trace = tuple(trace)


class ResourceExhaustion(V2xMacError):
    """More vehicles than candidate resources; the collision formula is invalid."""


class ModelValidityError(V2xMacError):
    """A formula was evaluated outside the region where its terms stay in [0, 1]."""


class NoTransmitter(V2xMacError):
    """Access probability is zero; the collision probability is undefined."""


class EmptySystem(V2xMacError):
    """P_qe = 1; there are no packets, so the average delay is undefined."""


class InvalidDuration(V2xMacError):
    """Simulation duration or replication count is out of range."""


class SimulatorInvariant(V2xMacError):
    """The discrete-event simulator reached a state its own rules exclude."""


class ConfigParseError(V2xMacError):
    """A scenario configuration file failed to parse or validate."""

    def __init__(self, message, line=None, field=None):
        detail = message
        if field is not None:
            detail = f"{field}: {detail}"
        if line is not None:
            detail = f"line {line}: {detail}"
        super().__init__(detail)
        self.line = line
        self.field = field
