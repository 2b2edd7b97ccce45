"""Hyperbolic backward-compatible training (HBCT).

Lorentz-model geometry, entailment-cone and uncertainty-weighted contrastive
alignment losses written once over batched arrays, toy encoder training on a
built-in reverse-mode array autodiff tape, and a retrieval/compatibility
evaluation harness.
"""

from .manifold import (LorentzPoint, ManifoldConfig, TangentVector,
                       expm_origin, geodesic_distance, lift, logm_origin,
                       lorentz_inner, project_tangent, rescale_clip, uncertainty)
from .losses import (AlignmentConfig, aperture, base_loss,
                     contrastive_loss, entailment_loss, exterior_angle,
                     infonce_loss, mean_distortion_loss, mlr_logits, total_loss)
from .encoder import (ClipPolicy, EncoderModel, TrainConfig, embed, embed_batch,
                      load_checkpoint, save_checkpoint, train_new, train_old)
from .evaluation import (CompatReport, EmbeddingSet, cmc_at_k,
                         compatibility_matrix, mean_average_precision, p_com,
                         p_up, retrieve)
from .scenarios import (Dataset, ExperimentConfig, ScenarioSpec,
                        SyntheticDatasetSpec, generate_dataset, run_matrix,
                        run_scenario, run_single, run_sweep, run_variants)
from .errors import (DegenerateBaselineError, HbctError, InvalidArgumentError,
                     NumericalDomainError, TrainingFailureError)

__version__ = "0.1.0"
