"""Saving and loading experiment configurations as JSON.

A characterization is fully determined by its
:class:`~repro.config.ExperimentConfig` (including the seed), so a
saved config file *is* a reproducible experiment manifest.  The
benchmarks' provenance story — "which exact machine/workload produced
this figure?" — reduces to keeping these files next to the outputs.

Round-trip guarantee: ``config_from_dict(config_to_dict(c)) == c`` for
every config expressible in :mod:`repro.config` (tested, including all
presets).
"""

from __future__ import annotations

import dataclasses
import functools
import json
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro.config import (
    BranchPredictorConfig,
    CacheGeometry,
    DegradationPolicy,
    DiskConfig,
    ExperimentConfig,
    FaultConfig,
    FaultEvent,
    GcCostModel,
    JvmConfig,
    MachineConfig,
    PipelineLatencies,
    PrefetcherConfig,
    ResponseTimeRequirements,
    RetryPolicy,
    SamplingConfig,
    SharingProfile,
    TopologyConfig,
    TransactionSpec,
    TranslationConfig,
    WorkloadConfig,
)

#: Format marker written into every file, checked on load.
FORMAT = "repro.experiment-config/1"


#: Leaf types returned as they are (``asdict`` would deep-copy them,
#: which for these immutable values returns the same object).
_LEAF_TYPES = frozenset({bool, int, float, str, type(None)})


@functools.cache
def _field_names(cls: type) -> Optional[Tuple[str, ...]]:
    """A dataclass's field names in declaration order; None otherwise."""
    if not dataclasses.is_dataclass(cls):
        return None
    return tuple(f.name for f in dataclasses.fields(cls))


def _plain(value: Any) -> Any:
    """``value`` as ``dataclasses.asdict`` would convert it.

    Dataclasses become dicts in field order, tuples and lists keep
    their type and dicts are rebuilt, each with converted items.
    """
    cls = type(value)
    if cls in _LEAF_TYPES:
        return value
    names = _field_names(cls)
    if names is not None:
        return {name: _plain(getattr(value, name)) for name in names}
    if cls is tuple or cls is list:
        return cls([_plain(item) for item in value])
    if cls is dict:
        return {key: _plain(item) for key, item in value.items()}
    return value


def config_to_dict(config: ExperimentConfig) -> Dict[str, Any]:
    """Serialize to plain JSON-compatible data.

    The same tree as ``dataclasses.asdict(config)``, walked with a
    field-name table per class instead of ``asdict``'s deep copies.
    """
    data = _plain(config)
    data["_format"] = FORMAT
    return data


def _build(cls, data: Dict[str, Any]):
    """Construct a flat frozen dataclass from its dict."""
    return cls(**data)


def config_from_dict(data: Dict[str, Any]) -> ExperimentConfig:
    """Reconstruct an :class:`ExperimentConfig` from serialized data.

    Raises:
        ValueError: on a missing or unknown format marker.
    """
    data = dict(data)
    marker = data.pop("_format", None)
    if marker != FORMAT:
        raise ValueError(f"not a repro config file (format={marker!r})")

    m = data["machine"]
    machine = MachineConfig(
        l1i=_build(CacheGeometry, m["l1i"]),
        l1d=_build(CacheGeometry, m["l1d"]),
        translation=_build(TranslationConfig, m["translation"]),
        branch=_build(BranchPredictorConfig, m["branch"]),
        prefetcher=_build(PrefetcherConfig, m["prefetcher"]),
        latencies=_build(PipelineLatencies, m["latencies"]),
        topology=_build(TopologyConfig, m["topology"]),
    )

    j = dict(data["jvm"])
    j["gc"] = _build(GcCostModel, j["gc"])
    jvm = JvmConfig(**j)

    w = dict(data["workload"])
    w["transactions"] = tuple(
        TransactionSpec(**spec) for spec in w["transactions"]
    )
    w["disk"] = _build(DiskConfig, w["disk"])
    w["requirements"] = _build(ResponseTimeRequirements, w["requirements"])
    w["sharing"] = _build(SharingProfile, w["sharing"])
    workload = WorkloadConfig(**w)

    sampling = _build(SamplingConfig, data["sampling"])

    # Configs saved before the resilience subsystem existed have no
    # "faults" section; they load with the (zero-cost) default.
    if "faults" in data:
        f = dict(data["faults"])
        faults = FaultConfig(
            events=tuple(_build(FaultEvent, e) for e in f["events"]),
            retry=_build(RetryPolicy, f["retry"]),
            degradation=_build(DegradationPolicy, f["degradation"]),
        )
    else:
        faults = FaultConfig()

    return ExperimentConfig(
        seed=data["seed"],
        machine=machine,
        jvm=jvm,
        workload=workload,
        sampling=sampling,
        faults=faults,
    )


def save_config(config: ExperimentConfig, path: Union[str, Path]) -> None:
    """Write the config as pretty-printed JSON."""
    Path(path).write_text(
        json.dumps(config_to_dict(config), indent=2, sort_keys=True) + "\n"
    )


def load_config(path: Union[str, Path]) -> ExperimentConfig:
    """Load a config previously written by :func:`save_config`."""
    return config_from_dict(json.loads(Path(path).read_text()))
