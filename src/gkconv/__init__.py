"""Graph kernel convolution networks with learnable structural masks.

Node features are kernel similarities between small learnable mask
graphs and each node's r-hop neighborhood; masks are trained by
randomized discrete descent, features are quantized into labels between
layers, and a small MLP over sum-pooled features does the classifying.
"""

from .graphs import (EgoSubgraph, GraphError, LabelDictionary, LabeledGraph,
                     connected_components, ego_subgraph, to_dot)
from .kernels import (GRAPHLET3, WL_SUBTREE, KernelConfig, WlColorTable,
                      kernel_matrix, wl_indistinguishable)
from .quantizer import Codebook, CodebookStateError, assign, fit_update
from .model import (ForwardEngine, LayerConfig, ModelParams, NetworkConfig,
                    StructuralMask)
from .drd import (EditProbabilities, apply_edit, drd_step_batched,
                  init_mask_bank)
from .head import (LossReport, MlpParams, Readout, batch_loss, gradients,
                   init_mlp, readout)
from .data import (GraphDataset, MotifSpec, Split, fetch_benchmark,
                   generate_motif_dataset, generate_triangle_cycle_dataset,
                   load_benchmark, make_motif, save_benchmark,
                   split_holdout, split_kfold)
from .experiment import (CvResult, ExpressivenessReport, GridResult,
                         RunReport, TrainConfig, TrainingDiverged,
                         build_network, cross_validate, expressiveness_report,
                         export_mask_dots, grid_search, init_params,
                         mask_significance, train)
from .checkpoint import load_checkpoint, save_checkpoint

__version__ = "0.1.0"
