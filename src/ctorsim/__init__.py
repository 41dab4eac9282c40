"""Trial-based simulator and exact analytics for bridge blocking in
single-circuit (otor), multi-circuit (mtor), and coded multi-circuit
(ctor) onion routing."""

from .analytics import (
    ResourceLimitError,
    SweepRow,
    binomial,
    enumerate_oracle,
    p_block_lnc,
    sweep,
)
from .censor import (
    BridgePool,
    CampaignResult,
    CensorScenario,
    ConsistencyError,
    TrialOutcome,
    derive_rng,
    derive_seed,
    interrupted_by_rule,
    run_campaign,
    run_trial,
    select_bridges,
)
from .codec import (
    CELL_SIZE,
    CodedCell,
    CodeParams,
    Generation,
    GeneratorMatrix,
    UnrecoverableGeneration,
    Variant,
    build_generator,
    decode_generation,
    decode_generations,
    encode_generation,
    encode_generations,
    reassemble_message,
    split_message,
)
from .onion import (
    Circuit,
    CircuitSet,
    CodedMessage,
    LayeredCell,
    OnionRouter,
    TransferResult,
    build_circuits,
    encode_message,
    peel_layer,
    run_transfer,
    transmit,
    wrap_layers,
)

__version__ = "0.1.0"
