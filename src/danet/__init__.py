"""Deep attractor networks for single-channel source separation.

A desk-scale, numpy-only implementation: STFT front-end, oracle masks,
a small trainable embedding network with a closed-form backward pass,
attractor and anchored-attractor mask estimation, three
test-phase separation strategies, SI-SNR scoring, and a deterministic
synthetic-mixture corpus.
"""

from .adanet import (
    assignments_from_anchors,
    detect_active_sources,
    enumerate_subsets,
    pit_loss,
    select_attractor_set,
)
from .attractor import (
    estimate_masks,
    form_attractors,
    reconstruction_loss,
    similarity_scores,
    threshold_vector,
)
from .autograd import Tensor
from .checkpoint import Checkpoint, TrainerState, checkpoint_load, checkpoint_save
from .data import (
    DatasetManifest,
    MixtureSpec,
    SourceSpec,
    build_manifest,
    generate_dataset,
    mix_at_snr,
    render_mixture,
    synth_source,
)
from .dsp import (
    Waveform,
    flatten_tf,
    istft,
    log_magnitude,
    reconstruct,
    stft,
    unflatten_tf,
)
from .inference import (
    AnchoredStrategy,
    FixedStrategy,
    KMeansStrategy,
    embed_mixture,
    fixed_attractors,
    kmeans,
    pca_project,
    separate,
)
from .masks import ibm, irm, wfm
from .metrics import ScoreReport, score_with_permutation, si_snr, si_snr_improvement, snr
from .nn import AdamState, EmbedNet, EmbedNetConfig, adam_step
from .training import (
    TrainSettings,
    TrainingDiverged,
    train,
    train_step,
    training_loss,
)
from .wavio import wav_read, wav_read_pcm, wav_write

__version__ = "0.1.0"
