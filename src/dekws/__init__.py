"""Class-incremental keyword spotting with dark-experience replay.

The training objective combines cross-entropy on the current task with
rehearsal (cross-entropy on labels replayed from a reservoir-sampled
buffer) and logit distillation (mean squared error against the pre-softmax
outputs stored when each example was seen). A from-scratch MFCC frontend,
a minimal reverse-mode autodiff engine, and a TC-ResNet-8 backbone make the
package self-contained.
"""

from .autodiff import (
    AdamState,
    GradCheckReport,
    Tensor,
    adam_step,
    batchnorm1d,
    conv1d,
    cross_entropy_loss,
    global_avg_pool,
    grad_check,
    init_adam,
    linear,
    mse_logit_loss,
    no_grad,
    relu,
)
from .buffer import BufferEntry, ReservoirBuffer
from .dataset import (
    FeaturizedDataset,
    Manifest,
    SyntheticSpec,
    TaskSpec,
    Waveform,
    build_task_schedule,
    deterministic_split,
    load_gsc,
    load_synthetic,
    read_wav_pcm16,
    scan_gsc_layout,
    synthesize_dataset,
    write_wav_pcm16,
)
from .dsp import FeatureMatrix, MfccConfig, log_mel_energies, mfcc, pad_or_trim, stft_power
from .engine import (
    RunResult,
    StepBreakdown,
    TrainConfig,
    combined_loss,
    run_baseline,
    run_schedule,
    train_step,
)
from .metrics import (
    AccuracyMatrix,
    MetricsReport,
    build_report,
    compute_acc,
    compute_bwt,
    evaluate_task_accuracy,
)
from .model import TcResNet8, TcResNet8Config

__version__ = "0.1.0"
