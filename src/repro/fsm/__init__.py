"""FSM substrate: KISS2 state machines, state encoding with sequential
don't-cares, and synthesis through the bi-decomposition engine."""

from repro.fsm.machine import FSM, FSMError, Transition
from repro.fsm.kiss import parse_kiss, write_kiss
from repro.fsm.encode import (EncodedFSM, binary_codes, encode_fsm,
                              one_hot_codes)
from repro.fsm.synthesize import (SynthesizedFSM, check_against_fsm,
                                  synthesize_fsm)

__all__ = [
    "FSM", "FSMError", "Transition",
    "parse_kiss", "write_kiss",
    "EncodedFSM", "binary_codes", "encode_fsm", "one_hot_codes",
    "SynthesizedFSM", "check_against_fsm", "synthesize_fsm",
]
