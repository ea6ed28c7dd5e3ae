"""The eight DNN models of Table 2, reconstructed layer by layer.

The paper evaluates end-to-end execution of eight sparse DNN models taken
from MLPerf plus a few extras: AlexNet, SqueezeNet, VGG-16, ResNet-50,
SSD-ResNets, SSD-MobileNets, DistilBERT and MobileBERT.  Table 2 reports, per
model, the number of SpMSpM layers and the average sparsity of the two
operands; the layer dimensions themselves come from the published network
architectures (convolutions lowered to GEMM with im2col, attention and MLP
blocks as plain GEMMs).

Operand convention (the same as the paper's Table 2 and Table 6): each layer
is expressed as ``C[M, N] = A[M, K] x B[K, N]`` with **A the weights**
(M = output channels, K = input channels x kernel area) and **B the
activations** (K x N with N = spatial positions or tokens).  The per-model
average sparsities of Table 2 are applied to the corresponding operand
(weight sparsity to A, activation sparsity to B), with a deterministic
per-layer jitter so that — as in the paper — the best dataflow varies from
layer to layer within a model.  Weights are assumed to be stored offline in
both CSR and CSC (as the paper does), so the inter-layer format constraint
falls on the activation operand.

Full-size layer dimensions are kept in the specs; the benchmark harness
scales them down (together with the on-chip memory capacities) to keep the
pure-Python simulation tractable.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.sparse.generate import SparsityPattern
from repro.workloads.layers import LayerSpec


@dataclass(frozen=True)
class ModelSpec:
    """One DNN model: an ordered chain of SpMSpM layers plus Table 2 metadata."""

    name: str
    short_name: str
    domain: str
    layers: tuple[LayerSpec, ...]
    #: Average weight sparsity reported in Table 2 (column AvSpA, in [0, 1]).
    table2_weight_sparsity: float
    #: Average activation sparsity reported in Table 2 (column AvSpB, in [0, 1]).
    table2_activation_sparsity: float
    #: CPU MKL cycles reported in Table 2 (in millions), for reference only.
    table2_cpu_megacycles: float
    notes: str = ""

    @property
    def num_layers(self) -> int:
        """Number of SpMSpM layers in the chain."""
        return len(self.layers)


# ----------------------------------------------------------------------
# Construction helpers
# ----------------------------------------------------------------------
def _jitter(name: str, base: float, spread: float, lo: float = 0.01, hi: float = 0.99) -> float:
    """Deterministic per-layer sparsity jitter around the model average."""
    digest = hashlib.sha256(name.encode()).digest()
    unit = int.from_bytes(digest[:4], "little") / 2**32  # [0, 1)
    value = base + (unit - 0.5) * 2.0 * spread
    return min(hi, max(lo, value))


def _conv_layer(
    model: str,
    index: int,
    *,
    spatial: int,
    cin: int,
    cout: int,
    kernel: int,
    act_sparsity: float,
    weight_sparsity: float,
    act_pattern: SparsityPattern = SparsityPattern.UNIFORM,
    weight_pattern: SparsityPattern = SparsityPattern.ROW_SKEWED,
) -> LayerSpec:
    """A convolution lowered to GEMM: A = weights (cout x cin*k*k), B = activations."""
    name = f"{model}/L{index}"
    return LayerSpec(
        name=name,
        m=cout,
        k=cin * kernel * kernel,
        n=spatial,
        sparsity_a=_jitter(name + ":w", weight_sparsity, 0.08),
        sparsity_b=_jitter(name + ":a", act_sparsity, 0.12),
        pattern_a=weight_pattern,
        pattern_b=act_pattern,
    )


def _fc_layer(
    model: str,
    index: int,
    *,
    tokens: int,
    cin: int,
    cout: int,
    act_sparsity: float,
    weight_sparsity: float,
) -> LayerSpec:
    """A fully-connected / attention projection GEMM: A = weights, B = activations."""
    name = f"{model}/L{index}"
    return LayerSpec(
        name=name,
        m=cout,
        k=cin,
        n=tokens,
        sparsity_a=_jitter(name + ":w", weight_sparsity, 0.06),
        sparsity_b=_jitter(name + ":a", act_sparsity, 0.10),
    )


# ----------------------------------------------------------------------
# Model definitions
# ----------------------------------------------------------------------
def _alexnet() -> ModelSpec:
    """AlexNet: 5 convolutions + 2 FC layers (Table 2: 7 layers, 70% / 48%)."""
    act, wgt = 0.48, 0.70
    shapes = [
        # (spatial, cin, cout, kernel)
        (55 * 55, 3, 96, 11),
        (27 * 27, 96, 256, 5),
        (13 * 13, 256, 384, 3),
        (13 * 13, 384, 384, 3),
        (13 * 13, 384, 256, 3),
    ]
    layers = [
        _conv_layer("alexnet", i, spatial=s, cin=ci, cout=co, kernel=k,
                    act_sparsity=act, weight_sparsity=wgt)
        for i, (s, ci, co, k) in enumerate(shapes)
    ]
    layers.append(_fc_layer("alexnet", 5, tokens=16, cin=9216, cout=4096,
                            act_sparsity=act, weight_sparsity=wgt))
    layers.append(_fc_layer("alexnet", 6, tokens=16, cin=4096, cout=4096,
                            act_sparsity=act, weight_sparsity=wgt))
    return ModelSpec(
        name="AlexNet", short_name="A", domain="CV",
        layers=tuple(layers),
        table2_weight_sparsity=0.70, table2_activation_sparsity=0.48,
        table2_cpu_megacycles=63.41,
        notes="5 conv + 2 FC layers; FC layers evaluated at batch 16.",
    )


def _squeezenet() -> ModelSpec:
    """SqueezeNet v1.1: conv1 + 8 fire modules (3 GEMMs each) + conv10 = 26 layers."""
    act, wgt = 0.31, 0.70
    layers: list[LayerSpec] = []
    index = 0
    layers.append(_conv_layer("squeezenet", index, spatial=111 * 111, cin=3, cout=64,
                              kernel=3, act_sparsity=act, weight_sparsity=wgt))
    index += 1
    # (spatial, cin, squeeze, expand) per fire module of SqueezeNet v1.1.
    fire_configs = [
        (55 * 55, 64, 16, 64),
        (55 * 55, 128, 16, 64),
        (27 * 27, 128, 32, 128),
        (27 * 27, 256, 32, 128),
        (13 * 13, 256, 48, 192),
        (13 * 13, 384, 48, 192),
        (13 * 13, 384, 64, 256),
        (13 * 13, 512, 64, 256),
    ]
    for spatial, cin, squeeze, expand in fire_configs:
        layers.append(_conv_layer("squeezenet", index, spatial=spatial, cin=cin,
                                  cout=squeeze, kernel=1,
                                  act_sparsity=act, weight_sparsity=wgt))
        index += 1
        layers.append(_conv_layer("squeezenet", index, spatial=spatial, cin=squeeze,
                                  cout=expand, kernel=1,
                                  act_sparsity=act, weight_sparsity=wgt))
        index += 1
        layers.append(_conv_layer("squeezenet", index, spatial=spatial, cin=squeeze,
                                  cout=expand, kernel=3,
                                  act_sparsity=act, weight_sparsity=wgt))
        index += 1
    layers.append(_conv_layer("squeezenet", index, spatial=13 * 13, cin=512, cout=1000,
                              kernel=1, act_sparsity=act, weight_sparsity=wgt))
    return ModelSpec(
        name="SqueezeNet", short_name="SQ", domain="CV",
        layers=tuple(layers),
        table2_weight_sparsity=0.70, table2_activation_sparsity=0.31,
        table2_cpu_megacycles=26.6,
        notes="conv1 + 8 fire modules (squeeze/expand1x1/expand3x3) + conv10.",
    )


def _vgg16() -> ModelSpec:
    """VGG-16 evaluated on its 8 largest convolution stages (Table 2: 8 layers)."""
    act, wgt = 0.80, 0.90
    shapes = [
        (224 * 224, 64, 64, 3),
        (112 * 112, 64, 128, 3),
        (112 * 112, 128, 128, 3),
        (56 * 56, 128, 256, 3),
        (56 * 56, 256, 256, 3),
        (28 * 28, 256, 512, 3),
        (28 * 28, 512, 512, 3),
        (14 * 14, 512, 512, 3),
    ]
    layers = [
        _conv_layer("vgg16", i, spatial=s, cin=ci, cout=co, kernel=k,
                    act_sparsity=act, weight_sparsity=wgt)
        for i, (s, ci, co, k) in enumerate(shapes)
    ]
    return ModelSpec(
        name="VGG-16", short_name="V", domain="CV",
        layers=tuple(layers),
        table2_weight_sparsity=0.90, table2_activation_sparsity=0.80,
        table2_cpu_megacycles=0.90,
        notes="Eight representative convolution stages of VGG-16.",
    )


def _resnet50() -> ModelSpec:
    """ResNet-50: the 54 convolution GEMMs of the four residual stages."""
    act, wgt = 0.52, 0.89
    layers: list[LayerSpec] = []
    index = 0
    # (spatial, bottleneck width, blocks) for conv2_x .. conv5_x.
    stages = [
        (56 * 56, 64, 3),
        (28 * 28, 128, 4),
        (14 * 14, 256, 6),
        (7 * 7, 512, 3),
    ]
    for spatial, width, blocks in stages:
        for block in range(blocks):
            cin = width * 4 if block else max(64, width * 2)
            # 1x1 reduce, 3x3, 1x1 expand — the three GEMMs of a bottleneck.
            layers.append(_conv_layer("resnet50", index, spatial=spatial, cin=cin,
                                      cout=width, kernel=1,
                                      act_sparsity=act, weight_sparsity=wgt))
            index += 1
            layers.append(_conv_layer("resnet50", index, spatial=spatial, cin=width,
                                      cout=width, kernel=3,
                                      act_sparsity=act, weight_sparsity=wgt))
            index += 1
            layers.append(_conv_layer("resnet50", index, spatial=spatial, cin=width,
                                      cout=width * 4, kernel=1,
                                      act_sparsity=act, weight_sparsity=wgt))
            index += 1
    # 54 layers total: 3 GEMMs x (3 + 4 + 6 + 3) blocks = 48, plus the six
    # projection shortcuts of the stage transitions.
    for spatial, width in ((56 * 56, 64), (28 * 28, 128), (14 * 14, 256), (7 * 7, 512)):
        layers.append(_conv_layer("resnet50", index, spatial=spatial, cin=width * 2,
                                  cout=width * 4, kernel=1,
                                  act_sparsity=act, weight_sparsity=wgt))
        index += 1
    layers.append(_conv_layer("resnet50", index, spatial=112 * 112, cin=3, cout=64,
                              kernel=7, act_sparsity=act, weight_sparsity=wgt))
    index += 1
    layers.append(_fc_layer("resnet50", index, tokens=16, cin=2048, cout=1000,
                            act_sparsity=act, weight_sparsity=wgt))
    return ModelSpec(
        name="ResNet-50", short_name="R", domain="CV",
        layers=tuple(layers),
        table2_weight_sparsity=0.89, table2_activation_sparsity=0.52,
        table2_cpu_megacycles=26.64,
        notes="48 bottleneck GEMMs + 4 projection shortcuts + stem + classifier.",
    )


def _ssd_resnet() -> ModelSpec:
    """SSD with a ResNet-34 backbone (object detection): 37 layers."""
    act, wgt = 0.49, 0.89
    layers: list[LayerSpec] = []
    index = 0
    backbone = [
        (150 * 150, 64, 64, 3),
        (150 * 150, 64, 64, 3),
        (75 * 75, 64, 128, 3),
        (75 * 75, 128, 128, 3),
        (75 * 75, 128, 128, 3),
        (75 * 75, 128, 128, 3),
        (38 * 38, 128, 256, 3),
        (38 * 38, 256, 256, 3),
        (38 * 38, 256, 256, 3),
        (38 * 38, 256, 256, 3),
        (38 * 38, 256, 256, 3),
        (38 * 38, 256, 256, 3),
    ]
    for spatial, cin, cout, k in backbone:
        layers.append(_conv_layer("ssd_resnet", index, spatial=spatial, cin=cin,
                                  cout=cout, kernel=k,
                                  act_sparsity=act, weight_sparsity=wgt))
        index += 1
    extra_heads = [
        (38 * 38, 256, 256, 1), (38 * 38, 256, 512, 3),
        (19 * 19, 512, 256, 1), (19 * 19, 256, 512, 3),
        (10 * 10, 512, 128, 1), (10 * 10, 128, 256, 3),
        (5 * 5, 256, 128, 1), (5 * 5, 128, 256, 3),
        (3 * 3, 256, 128, 1), (3 * 3, 128, 256, 3),
    ]
    for spatial, cin, cout, k in extra_heads:
        layers.append(_conv_layer("ssd_resnet", index, spatial=spatial, cin=cin,
                                  cout=cout, kernel=k,
                                  act_sparsity=act, weight_sparsity=wgt))
        index += 1
    detection_heads = [
        (38 * 38, 512, 16, 3), (38 * 38, 512, 324, 3),
        (19 * 19, 512, 24, 3), (19 * 19, 512, 486, 3),
        (10 * 10, 256, 24, 3), (10 * 10, 256, 486, 3),
        (5 * 5, 256, 24, 3), (5 * 5, 256, 486, 3),
        (3 * 3, 256, 16, 3), (3 * 3, 256, 324, 3),
        (1, 256, 16, 3), (1, 256, 324, 3),
        (38 * 38, 256, 486, 3), (19 * 19, 256, 486, 3), (10 * 10, 128, 324, 3),
    ]
    for spatial, cin, cout, k in detection_heads:
        layers.append(_conv_layer("ssd_resnet", index, spatial=spatial, cin=cin,
                                  cout=cout, kernel=k,
                                  act_sparsity=act, weight_sparsity=wgt))
        index += 1
    return ModelSpec(
        name="SSD-ResNets", short_name="S-R", domain="OR",
        layers=tuple(layers[:37]),
        table2_weight_sparsity=0.89, table2_activation_sparsity=0.49,
        table2_cpu_megacycles=0.50,
        notes="ResNet-34 backbone + SSD extra feature maps + detection heads.",
    )


def _ssd_mobilenet() -> ModelSpec:
    """SSD with a MobileNet-v1 backbone: 29 GEMM layers (pointwise convs + heads)."""
    act, wgt = 0.35, 0.74
    layers: list[LayerSpec] = []
    index = 0
    # MobileNet pointwise (1x1) convolutions carry almost all the MACs; the
    # depthwise stages are folded into their activation sparsity.
    pointwise = [
        (150 * 150, 32, 64), (75 * 75, 64, 128), (75 * 75, 128, 128),
        (38 * 38, 128, 256), (38 * 38, 256, 256), (19 * 19, 256, 512),
        (19 * 19, 512, 512), (19 * 19, 512, 512), (19 * 19, 512, 512),
        (19 * 19, 512, 512), (19 * 19, 512, 512), (10 * 10, 512, 1024),
        (10 * 10, 1024, 1024),
    ]
    for spatial, cin, cout in pointwise:
        layers.append(_conv_layer("ssd_mobilenet", index, spatial=spatial, cin=cin,
                                  cout=cout, kernel=1,
                                  act_sparsity=act, weight_sparsity=wgt))
        index += 1
    extras = [
        (10 * 10, 1024, 256, 1), (5 * 5, 256, 512, 3),
        (5 * 5, 512, 128, 1), (3 * 3, 128, 256, 3),
        (3 * 3, 256, 128, 1), (2 * 2, 128, 256, 3),
        (2 * 2, 256, 64, 1), (1, 64, 128, 3),
    ]
    for spatial, cin, cout, k in extras:
        layers.append(_conv_layer("ssd_mobilenet", index, spatial=spatial, cin=cin,
                                  cout=cout, kernel=k,
                                  act_sparsity=act, weight_sparsity=wgt))
        index += 1
    heads = [
        (19 * 19, 512, 12, 1), (19 * 19, 512, 273, 1),
        (10 * 10, 1024, 24, 1), (10 * 10, 1024, 546, 1),
        (5 * 5, 512, 24, 1), (5 * 5, 512, 546, 1),
        (3 * 3, 256, 24, 1), (3 * 3, 256, 546, 1),
    ]
    for spatial, cin, cout, k in heads:
        layers.append(_conv_layer("ssd_mobilenet", index, spatial=spatial, cin=cin,
                                  cout=cout, kernel=k,
                                  act_sparsity=act, weight_sparsity=wgt))
        index += 1
    return ModelSpec(
        name="SSD-Mobilenets", short_name="S-M", domain="OR",
        layers=tuple(layers[:29]),
        table2_weight_sparsity=0.74, table2_activation_sparsity=0.35,
        table2_cpu_megacycles=1.65,
        notes="MobileNet-v1 pointwise convolutions + SSD extras and heads.",
    )


def _distilbert() -> ModelSpec:
    """DistilBERT: 6 transformer blocks x 6 GEMMs = 36 layers (seq len 384)."""
    act, wgt = 0.0004, 0.50  # Table 2: AvSpB 0.04% — activations are nearly dense.
    hidden, ff, seq = 768, 3072, 384
    layers: list[LayerSpec] = []
    index = 0
    for _ in range(6):
        block = [
            (seq, hidden, hidden),  # Q projection
            (seq, hidden, hidden),  # K projection
            (seq, hidden, hidden),  # V projection
            (seq, hidden, hidden),  # attention output projection
            (seq, hidden, ff),      # feed-forward up
            (seq, ff, hidden),      # feed-forward down
        ]
        for tokens, cin, cout in block:
            layers.append(_fc_layer("distilbert", index, tokens=tokens, cin=cin,
                                    cout=cout, act_sparsity=act, weight_sparsity=wgt))
            index += 1
    return ModelSpec(
        name="DistilBERT", short_name="DB", domain="NLP",
        layers=tuple(layers),
        table2_weight_sparsity=0.50, table2_activation_sparsity=0.0004,
        table2_cpu_megacycles=0.94,
        notes="6 blocks x (QKV + output + 2 FFN) projections, sequence length 384.",
    )


def _mobilebert() -> ModelSpec:
    """MobileBERT: 24 bottleneck blocks x 13 GEMMs + embeddings = 316 layers."""
    act, wgt = 0.11, 0.50
    hidden, intra, ff, seq = 512, 128, 512, 8  # MLPerf mobile configuration
    layers: list[LayerSpec] = []
    index = 0
    for _ in range(24):
        block = [
            (seq, hidden, intra),   # bottleneck input projection
            (seq, intra, intra),    # Q
            (seq, intra, intra),    # K
            (seq, intra, intra),    # V
            (seq, intra, intra),    # attention output
            (seq, intra, ff),       # FFN 1 up
            (seq, ff, intra),       # FFN 1 down
            (seq, intra, ff),       # FFN 2 up
            (seq, ff, intra),       # FFN 2 down
            (seq, intra, ff),       # FFN 3 up
            (seq, ff, intra),       # FFN 3 down
            (seq, intra, hidden),   # bottleneck output projection
            (seq, hidden, hidden),  # residual mixing
        ]
        for tokens, cin, cout in block:
            layers.append(_fc_layer("mobilebert", index, tokens=tokens, cin=cin,
                                    cout=cout, act_sparsity=act, weight_sparsity=wgt))
            index += 1
    extras = [
        (seq, 128, hidden), (seq, hidden, hidden), (seq, hidden, hidden),
        (seq, hidden, 2),
    ]
    for tokens, cin, cout in extras:
        layers.append(_fc_layer("mobilebert", index, tokens=tokens, cin=cin,
                                cout=cout, act_sparsity=act, weight_sparsity=wgt))
        index += 1
    return ModelSpec(
        name="MobileBERT", short_name="MB", domain="NLP",
        layers=tuple(layers),
        table2_weight_sparsity=0.50, table2_activation_sparsity=0.11,
        table2_cpu_megacycles=0.01,
        notes="24 bottleneck blocks x 13 GEMMs + embedding/classifier GEMMs.",
    )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def _build_registry() -> dict[str, ModelSpec]:
    models = [
        _alexnet(),
        _squeezenet(),
        _vgg16(),
        _resnet50(),
        _ssd_resnet(),
        _ssd_mobilenet(),
        _distilbert(),
        _mobilebert(),
    ]
    return {model.short_name: model for model in models}


#: All eight models keyed by their Table 2 short name (A, SQ, V, R, S-R, S-M, DB, MB).
MODEL_REGISTRY: dict[str, ModelSpec] = _build_registry()


def get_model(name: str) -> ModelSpec:
    """Look up a model by short name (``"A"``) or full name (``"AlexNet"``)."""
    if name in MODEL_REGISTRY:
        return MODEL_REGISTRY[name]
    for model in MODEL_REGISTRY.values():
        if model.name.lower() == name.lower():
            return model
    raise KeyError(
        f"unknown model {name!r}; available: "
        + ", ".join(f"{m.short_name} ({m.name})" for m in MODEL_REGISTRY.values())
    )
