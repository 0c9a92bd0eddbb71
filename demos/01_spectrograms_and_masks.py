"""Spectrograms and ideal masks on one synthetic two-source mixture.

Builds a mixture of two harmonic sources, checks the STFT round-trip,
then separates with the three oracle masks and scores each against the
references.  The WFM numbers here are the performance ceiling that any
trained model is measured against.
"""

import numpy as np

from danet import (
    MixtureSpec,
    SourceSpec,
    flatten_tf,
    ibm,
    irm,
    istft,
    magnitude,
    reconstruct,
    render_mixture,
    score_with_permutation,
    stft,
    wfm,
)
from danet.dsp import WINDOW_LEN

# Two sources an octave-ish apart, slowly amplitude-modulated.
spec = MixtureSpec(
    sources=(
        SourceSpec(f0=130.0, n_harmonics=8, am_rate=3.0, duration=2.0, seed=11),
        SourceSpec(f0=220.0, n_harmonics=8, am_rate=5.0, duration=2.0, seed=12),
    ),
    snr_db=2.0,
    seed=0,
)
mixture, sources = render_mixture(spec)
print(f"mixture: {len(mixture)} samples at {mixture.sample_rate} Hz")

# Analysis/synthesis is exact away from the first/last window.
spec_mix = stft(mixture)
rebuilt = istft(spec_mix)
interior = slice(WINDOW_LEN, len(rebuilt) - WINDOW_LEN)
err = np.abs(rebuilt.samples[interior] - mixture.samples[interior]).max()
print(f"STFT round-trip interior error: {err:.2e}")

# Oracle masks from the reference magnitudes.
src_flat = np.stack([flatten_tf(magnitude(stft(s))) for s in sources])
for name, oracle in [("IBM", ibm), ("IRM", irm), ("WFM", wfm)]:
    masks = oracle(src_flat)
    estimates = [reconstruct(masks[i], spec_mix) for i in range(2)]
    n = len(estimates[0])
    refs = [s.samples[:n] for s in sources]
    rep = score_with_permutation(estimates, refs, mixture.samples[:n])
    print(
        f"{name}: SI-SNRi {rep.mean_si_snri:6.2f} dB "
        f"(per source: {', '.join(f'{v:.2f}' for v in rep.si_snri)})"
    )
