"""ISI-reducing single error correcting codes for molecular communication,
with an absorbing-receiver diffusion channel model and experiment harness."""

__version__ = "0.1.0"

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
    rank_in_weight_class,
    unrank_in_weight_class,
    verify_min_distance,
    weight_class_matrix,
)
from .codec import (
    BatchCodec,
    EncodedWord,
    decode,
    encode,
    post_encode,
    pre_decode,
)
from .channel import (
    ChannelParams,
    calibrate_threshold,
    codeword_isi_bound,
    detect,
    expected_isi,
    hitting_prob,
    isi_of_sequence,
    load_channel_config,
    simulate_stream,
    slot_probs,
    stream_average_isi,
    streaming_expected_isi,
    swap_gain,
)
from .harness import (
    ExperimentConfig,
    TrialReport,
    make_coder,
    run_ber_experiment,
    run_isi_experiment,
    write_report,
)

__all__ = [name for name in dir() if not name.startswith("_")]
