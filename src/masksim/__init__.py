"""masksim: deterministic smart-mask compliance simulation framework.

A DAG ledger with authenticated message channels is the communication
backbone; a personalised feedback controller prices token bonds that
incentivise mask wearing; an agent-based epidemic model, a UWB indoor
positioning pipeline and a gas-sensor mask detector provide the physical
layer.  Everything is reproducible bit-for-bit from a single seed.
"""

from .bus import Gateway, MessageBus
from .controller import (ComplianceController, ControllerParams, LOGISTIC,
                         Link, simulate_compliance)
from .epidemic import EpidemicSeries, Health, World, WorldConfig
from .escrow import EscrowBank, PenaltyPolicy
from .ledger import (ChannelMode, ChannelReader, MamChannel, Tangle,
                     channel_address, mam_fetch)
from .positioning import (Anchor, FixResult, TwrTimestamps, distance,
                          multilaterate, simulate_exchange, time_of_flight)
from .sensing import (CombineRule, DetectorConfig, GasSample, MaskDetector,
                      StreamLevels, synth_stream)

__version__ = "0.1.0"

__all__ = [
    "Anchor", "ChannelMode", "ChannelReader", "CombineRule",
    "ComplianceController", "ControllerParams", "DetectorConfig",
    "EpidemicSeries", "EscrowBank", "FixResult", "GasSample", "Gateway",
    "Health", "LOGISTIC", "Link", "MamChannel", "MaskDetector", "MessageBus",
    "PenaltyPolicy", "StreamLevels", "Tangle", "TwrTimestamps", "World",
    "WorldConfig", "channel_address", "distance", "mam_fetch",
    "multilaterate", "simulate_compliance", "simulate_exchange",
    "synth_stream", "time_of_flight",
]
