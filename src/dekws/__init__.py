"""Class-incremental keyword spotting with dark-experience replay.

The training objective combines cross-entropy on the current task with
rehearsal (cross-entropy on labels replayed from a reservoir-sampled
buffer) and logit distillation (mean squared error against the pre-softmax
outputs stored when each example was seen). A from-scratch MFCC frontend,
a minimal reverse-mode autodiff engine, and a TC-ResNet-8 backbone make the
package self-contained.
"""

__version__ = "0.1.0"
