"""ISI-reducing single error correcting codes for molecular communication,
with an absorbing-receiver diffusion channel model and experiment harness."""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .bits import bits_to_str, parse_bits
from .codebook import (
    Codebook,
    CodeSpec,
    build_codebook,
    density_profile,
    design_for_rate,
    export_codebook_csv,
    message_matrix,
    parity_weight_cap,
    verify_min_distance,
)
from .codec import BatchCodec, decode, encode, swap_gain
from .channel import (
    ChannelParams,
    calibrate_threshold,
    codeword_isi_bound,
    detect,
    detection_threshold,
    expected_isi,
    hitting_prob,
    load_channel_config,
    simulate_stream,
    slot_law,
    slot_probs,
    stream_average_isi,
    streaming_expected_isi,
)
from .harness import (
    ExperimentConfig,
    TrialReport,
    make_coder,
    run_ber_experiment,
    run_isi_experiment,
    write_report,
)

# the imported public names, without the submodules the imports also bind
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
