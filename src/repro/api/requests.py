"""Declarative request objects of the public API.

A request is plain, hashable data describing *what* to compute, decoupled
from *how* it is executed:

* :class:`SweepSpec` — a grid of (model | representative layer) x design
  simulations, optionally with accelerator-configuration overrides and a
  pinned operand scale.  It compiles down to the flat
  :class:`~repro.runtime.SimJob` grid the batched runtime executes.
* :class:`FigureQuery` — "give me the rows of figure/table X of the paper",
  resolved against the figure registry (:mod:`repro.api.figures`).

Because requests are frozen and content-hashable (:meth:`SweepSpec.key`),
they can identify cached work across processes and, later, travel to remote
executors — the same design that makes :class:`~repro.runtime.SimJob`
cache-addressable.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, fields as dataclass_fields, replace

from repro.experiments.end_to_end import sample_model_chain
from repro.experiments.settings import ExperimentSettings
from repro.arch.config import AcceleratorConfig
from repro.runtime import CPU_DESIGN, DESIGN_ORDER, SimJob
from repro.workloads.models import MODEL_REGISTRY, get_model
from repro.workloads.representative import REPRESENTATIVE_LAYERS, get_representative_layer

#: Configuration fields a sweep may override (every scalar field of
#: :class:`AcceleratorConfig`; the nested DRAM record is not sweepable).
_OVERRIDABLE_CONFIG_FIELDS = frozenset(
    f.name for f in dataclass_fields(AcceleratorConfig) if f.name != "dram"
)

#: Designs a sweep may name (the four accelerators plus the CPU baseline).
SWEEPABLE_DESIGNS = DESIGN_ORDER + (CPU_DESIGN,)


def _names_tuple(value: str | Iterable[str] | None) -> tuple[str, ...]:
    """Normalise a name list argument ("SQ", ["SQ", "V"], None) to a tuple."""
    if value is None:
        return ()
    if isinstance(value, str):
        return tuple(part.strip() for part in value.split(",") if part.strip())
    return tuple(value)


def _overrides_tuple(
    value: Mapping[str, object] | Iterable[tuple[str, object]] | None,
) -> tuple[tuple[str, object], ...]:
    """Normalise configuration overrides to a sorted tuple of pairs."""
    if value is None:
        return ()
    items = value.items() if isinstance(value, Mapping) else value
    return tuple(sorted((str(name), val) for name, val in items))


def _overridden(
    config: AcceleratorConfig, overrides: tuple[tuple[str, object], ...]
) -> AcceleratorConfig:
    """``config`` with ``overrides`` applied; overriding ``num_multipliers``
    re-derives ``num_adders`` unless that is overridden too."""
    fields_ = dict(overrides)
    if "num_multipliers" in fields_ and "num_adders" not in fields_:
        fields_["num_adders"] = fields_["num_multipliers"] - 1
    return replace(config, **fields_) if fields_ else config


@dataclass(frozen=True)
class SweepSpec:
    """A declarative (workloads x designs x config overrides) simulation grid.

    Workloads are named either by Table 2 model short name (``models``,
    expanded to their sampled layer chains under the session's settings) or
    by Table 6 representative layer name (``layers``).  Constructor arguments
    are normalised, so ``SweepSpec(models="SQ,V")``,
    ``SweepSpec(models=["SQ", "V"])`` and
    ``SweepSpec(config_overrides={"num_multipliers": 16})`` all work and
    produce hashable, order-canonical specs.
    """

    #: Designs to simulate (any of the four accelerators plus ``CPU-MKL``).
    designs: tuple[str, ...] = DESIGN_ORDER
    #: Table 2 model short names whose (sampled) layer chains to sweep.
    models: tuple[str, ...] = ()
    #: Table 6 representative layer names to sweep.
    layers: tuple[str, ...] = ()
    #: Accelerator-configuration overrides applied over the session settings'
    #: config (stored as a sorted tuple of pairs so the spec stays hashable).
    #: Overriding ``num_multipliers`` re-derives ``num_adders`` automatically
    #: unless it is overridden too.
    config_overrides: tuple[tuple[str, object], ...] = ()
    #: Operand scale factor.  ``None`` (default) applies the session
    #: settings' MAC-budget scaling policy (and scales the SRAM capacities to
    #: match); an explicit value pins the operand scale and leaves the
    #: configuration unscaled — the ablation-sweep semantics.
    scale: float | None = None
    #: Cap on sampled layers per model (``None``: the settings' cap).
    max_layers_per_model: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "designs", _names_tuple(self.designs))
        object.__setattr__(self, "models", _names_tuple(self.models))
        object.__setattr__(self, "layers", _names_tuple(self.layers))
        object.__setattr__(
            self, "config_overrides", _overrides_tuple(self.config_overrides)
        )
        if not self.designs:
            raise ValueError("a sweep needs at least one design")
        for design in self.designs:
            if design not in SWEEPABLE_DESIGNS:
                raise ValueError(
                    f"unknown design {design!r}; expected one of {SWEEPABLE_DESIGNS}"
                )
        if not self.models and not self.layers:
            raise ValueError("a sweep needs at least one model or layer")
        for model in self.models:
            if model not in MODEL_REGISTRY:
                from repro.dse.workloads import has_workload

                hint = (
                    f"; {model!r} is a registered DSE workload — "
                    "run it with `python -m repro dse`"
                    if has_workload(model)
                    else ""
                )
                raise ValueError(
                    f"unknown model {model!r}; expected one of "
                    f"{tuple(MODEL_REGISTRY)}{hint}"
                )
        known_layers = {spec.name for spec in REPRESENTATIVE_LAYERS}
        for layer in self.layers:
            if layer not in known_layers:
                raise ValueError(
                    f"unknown layer {layer!r}; expected one of {sorted(known_layers)}"
                )
        for name, _value in self.config_overrides:
            if name not in _OVERRIDABLE_CONFIG_FIELDS:
                raise ValueError(
                    f"unknown config override {name!r}; expected one of "
                    f"{sorted(_OVERRIDABLE_CONFIG_FIELDS)}"
                )
        # Build the overridden Table 5 config once, so a bad geometry (a zero
        # cache line, say) is a validation error, not a failure mid-sweep.
        _overridden(AcceleratorConfig(), self.config_overrides)
        if self.scale is not None and self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.max_layers_per_model is not None and self.max_layers_per_model < 1:
            raise ValueError("max_layers_per_model must be positive")

    # ------------------------------------------------------------------
    def compile(
        self, settings: ExperimentSettings
    ) -> tuple[list[SimJob], list[dict[str, str]]]:
        """Lower the spec to a flat job grid under ``settings``.

        Returns the jobs plus one metadata dict per job (``model``, ``layer``,
        ``design``) that the response record uses to label result rows.
        """
        if self.config_overrides:
            settings = replace(
                settings, config=_overridden(settings.config, self.config_overrides)
            )

        workloads: list[tuple[str, object, float, object]] = []  # (model, spec, scale, config)
        for name in self.layers:
            spec = get_representative_layer(name)
            scale = self.scale if self.scale is not None else settings.layer_scale(spec)
            config = settings.config if self.scale is not None else settings.scaled_config(scale)
            workloads.append(("", spec, scale, config))
        for name in self.models:
            sampled, scale, config = sample_model_chain(
                get_model(name), settings, self.max_layers_per_model
            )
            if self.scale is not None:
                # A pinned scale overrides the chain policy's scale and keeps
                # the (possibly overridden) configuration unscaled.
                scale, config = self.scale, settings.config
            for spec in sampled:
                workloads.append((name, spec, scale, config))

        jobs: list[SimJob] = []
        meta: list[dict[str, str]] = []
        for model_name, spec, scale, config in workloads:
            seed = spec.deterministic_seed(settings.seed_salt)
            for design in self.designs:
                jobs.append(
                    SimJob(
                        design=design,
                        config=config,
                        spec=spec,
                        scale=scale,
                        seed=seed,
                        layer_name=spec.name,
                    )
                )
                meta.append({"model": model_name, "layer": spec.name, "design": design})
        return jobs, meta

    # ------------------------------------------------------------------
    def to_record(self) -> dict[str, object]:
        """JSON-safe dict form."""
        return {
            "designs": list(self.designs),
            "models": list(self.models),
            "layers": list(self.layers),
            "config_overrides": [list(pair) for pair in self.config_overrides],
            "scale": self.scale,
            "max_layers_per_model": self.max_layers_per_model,
        }

    @classmethod
    def from_record(cls, record: dict) -> "SweepSpec":
        """Inverse of :meth:`to_record`."""
        fields_ = dict(record)
        fields_["config_overrides"] = [tuple(pair) for pair in fields_["config_overrides"]]
        return cls(**fields_)

    def key(self) -> str:
        """Stable content hash identifying this spec across processes."""
        encoded = json.dumps(self.to_record(), sort_keys=True)
        return hashlib.sha256(encoded.encode()).hexdigest()


@dataclass(frozen=True)
class FigureQuery:
    """A request for the rows of one reproduced figure or table.

    The identifier is normalised on construction, so ``FigureQuery("fig12")``,
    ``FigureQuery("Fig. 12")`` and ``FigureQuery("12")`` all name the same
    figure.  Resolution against the registry happens when a
    :class:`~repro.api.session.Session` answers the query, so constructing a
    query for an unknown figure fails fast only at answer time.
    """

    figure: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "figure", normalize_figure_id(self.figure))

    def to_record(self) -> dict[str, object]:
        """JSON-safe dict form."""
        return {"figure": self.figure}

    @classmethod
    def from_record(cls, record: dict) -> "FigureQuery":
        """Inverse of :meth:`to_record`."""
        return cls(**record)

    def key(self) -> str:
        """Stable content hash identifying this query across processes.

        The same shape as :meth:`SweepSpec.key` — the serving front-end uses
        it to coalesce concurrent identical queries and to address their
        background jobs.  A ``"kind"`` discriminator inside the hashed
        payload keeps the two request kinds' key spaces disjoint.
        """
        encoded = json.dumps({"kind": "figure", **self.to_record()}, sort_keys=True)
        return hashlib.sha256(encoded.encode()).hexdigest()


def normalize_figure_id(identifier: str) -> str:
    """Canonical figure id: lowercase, no punctuation, no leading zeros.

    ``"Fig. 12"``, ``"figure12"`` and ``"12"`` all normalise to ``"fig12"``;
    ``"fig01"`` normalises to ``"fig1"``.
    """
    cleaned = "".join(ch for ch in identifier.lower() if ch.isalnum())
    if cleaned.startswith("figure"):
        cleaned = "fig" + cleaned[len("figure"):]
    if cleaned.isdigit():
        cleaned = f"fig{cleaned}"
    prefix = cleaned.rstrip("0123456789")
    number = cleaned[len(prefix):]
    if not prefix or not number:
        raise ValueError(f"not a figure identifier: {identifier!r}")
    return f"{prefix}{int(number)}"
