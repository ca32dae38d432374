"""Trajectory social-privacy toolkit: co-location social-link inference,
3D-mobility-model k-anonymity, and generative trajectory publishing."""

from .core import (Cell, GridSpec, LocalProjection, StayRecord, Trajectory,
                   cell_center, cells_of, group_trajectories, haversine_m,
                   parse_stays, serialize_stays, time_slot, to_cell)
from .colocation import (CoEvent, CoLocationConfig, PairEvents,
                         coevent_score, extract_coevents,
                         extract_pair_coevents)
from .features import (FEATURE_NAMES, PairFeatures, Standardizer,
                       cell_visit_entropy, compute_features, project)
from .fusion import DenseNet, TrainConfig, backprop_grads, evaluate, train
from .mobility import (InfluenceParams, MobilityModel3D, combined_influence,
                       fit_gmm, fit_mobility_model, sample_location,
                       social_influence, temporal_influence)
from .anonymize import (AnonymityPolicy, AnonymitySet, audit_anonymity_set,
                        generate_dummy, k_anonymize, trajectory_stats)
from .publish import (SemanticModel, StayEmbedding, decode_embedding,
                      embed_trajectory, fit_semantic, purpose_posteriors,
                      similarity_report, train_toy_gan)
from .harness import (World, WorldConfig, build_pair_dataset,
                      fit_world_models, generate_world, pair_dataset,
                      publish_synthetic, release_similarity, run_attack,
                      run_defense, sample_negative_pairs)

__version__ = "0.1.0"
