"""Workloads: the DNN models and representative layers of the paper's evaluation.

* :mod:`repro.workloads.layers` — :class:`LayerSpec`, the description of one
  SpMSpM layer (dimensions + sparsities) and its materialisation into
  synthetic compressed matrices.
* :mod:`repro.workloads.models` — the eight DNN models of Table 2
  (AlexNet, SqueezeNet, VGG-16, ResNet-50, SSD-ResNets, SSD-MobileNets,
  DistilBERT, MobileBERT) reconstructed layer by layer from the published
  architectures and the table's sparsity statistics.
* :mod:`repro.workloads.representative` — the nine representative layers of
  Table 6 used by the layer-wise evaluation (Figs. 13-16).
"""

from repro.workloads.layers import LayerSpec, materialize_layer
from repro.workloads.models import (
    MODEL_REGISTRY,
    ModelSpec,
    get_model,
)
from repro.workloads.representative import REPRESENTATIVE_LAYERS, get_representative_layer

__all__ = [
    "LayerSpec",
    "materialize_layer",
    "ModelSpec",
    "MODEL_REGISTRY",
    "get_model",
    "REPRESENTATIVE_LAYERS",
    "get_representative_layer",
]
