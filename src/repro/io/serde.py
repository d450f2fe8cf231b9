"""Dict/JSON (de)serialization for the core spec objects.

The dict schemas are stable and versioned (``"schema": 1``); unknown
fields are rejected loudly so stale files fail fast instead of silently
evaluating the wrong design.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Union

from repro.arch.level import ComputeLevel, StorageLevel
from repro.arch.spec import Architecture
from repro.exceptions import SpecError
from repro.mapping.loop import Loop
from repro.mapping.nest import LevelNest, Mapping
from repro.problem.tensor import ProjectionTerm, TensorSpec
from repro.problem.workload import Workload

SCHEMA_VERSION = 1


def _require(data: Dict[str, Any], kind: str) -> None:
    if data.get("schema") != SCHEMA_VERSION:
        raise SpecError(
            f"{kind}: expected schema {SCHEMA_VERSION}, got {data.get('schema')!r}"
        )
    if data.get("kind") != kind:
        raise SpecError(f"expected kind {kind!r}, got {data.get('kind')!r}")


# ---------------------------------------------------------------- workload


def workload_to_dict(workload: Workload) -> Dict[str, Any]:
    """Serialize a workload (dims + tensor projections)."""
    return {
        "schema": SCHEMA_VERSION,
        "kind": "workload",
        "name": workload.name,
        "dims": {dim: size for dim, size in workload.dims},
        "tensors": [
            {
                "name": tensor.name,
                "is_output": tensor.is_output,
                "bits_per_element": tensor.bits_per_element,
                "ranks": [
                    [
                        {"dim": term.dim, "coefficient": term.coefficient}
                        for term in rank
                    ]
                    for rank in tensor.ranks
                ],
            }
            for tensor in workload.tensors
        ],
    }


def workload_from_dict(data: Dict[str, Any]) -> Workload:
    """Rebuild a workload serialized by :func:`workload_to_dict`."""
    _require(data, "workload")
    tensors = [
        TensorSpec(
            name=entry["name"],
            is_output=entry["is_output"],
            bits_per_element=entry["bits_per_element"],
            ranks=tuple(
                tuple(
                    ProjectionTerm(term["dim"], term["coefficient"])
                    for term in rank
                )
                for rank in entry["ranks"]
            ),
        )
        for entry in data["tensors"]
    ]
    return Workload.create(data["name"], data["dims"], tensors)


# ------------------------------------------------------------ architecture


def architecture_to_dict(arch: Architecture) -> Dict[str, Any]:
    """Serialize an architecture (levels, fanouts, capacities)."""
    levels: List[Dict[str, Any]] = []
    for level in arch.levels:
        levels.append(
            {
                "name": level.name,
                "capacity_words": level.capacity_words,
                "word_bits": level.word_bits,
                "keeps": sorted(level.keeps) if level.keeps is not None else None,
                "per_tensor_capacity": (
                    dict(level.per_tensor_capacity)
                    if level.per_tensor_capacity is not None
                    else None
                ),
                "fanout": level.fanout,
                "fanout_x": level.fanout_x,
                "fanout_y": level.fanout_y,
                "spatial_dims": (
                    sorted(level.spatial_dims)
                    if level.spatial_dims is not None
                    else None
                ),
                "bandwidth_words_per_cycle": level.bandwidth_words_per_cycle,
            }
        )
    return {
        "schema": SCHEMA_VERSION,
        "kind": "architecture",
        "name": arch.name,
        "levels": levels,
        "compute": {
            "name": arch.compute.name,
            "word_bits": arch.compute.word_bits,
            "ops_per_cycle": arch.compute.ops_per_cycle,
        },
        "mesh_x": arch.mesh_x,
        "mesh_y": arch.mesh_y,
    }


def architecture_from_dict(data: Dict[str, Any]) -> Architecture:
    """Rebuild an architecture serialized by :func:`architecture_to_dict`."""
    _require(data, "architecture")
    levels = tuple(
        StorageLevel.build(
            name=entry["name"],
            capacity_words=entry["capacity_words"],
            word_bits=entry["word_bits"],
            keeps=set(entry["keeps"]) if entry["keeps"] is not None else None,
            per_tensor_capacity=entry["per_tensor_capacity"],
            fanout=entry["fanout"],
            fanout_x=entry["fanout_x"],
            fanout_y=entry["fanout_y"],
            spatial_dims=(
                set(entry["spatial_dims"])
                if entry["spatial_dims"] is not None
                else None
            ),
            bandwidth_words_per_cycle=entry["bandwidth_words_per_cycle"],
        )
        for entry in data["levels"]
    )
    compute = ComputeLevel(
        name=data["compute"]["name"],
        word_bits=data["compute"]["word_bits"],
        ops_per_cycle=data["compute"]["ops_per_cycle"],
    )
    return Architecture(
        name=data["name"],
        levels=levels,
        compute=compute,
        mesh_x=data["mesh_x"],
        mesh_y=data["mesh_y"],
    )


# ------------------------------------------------------------------ mapping


def mapping_to_dict(mapping: Mapping) -> Dict[str, Any]:
    """Serialize a mapping (loop nests with remainders and axes)."""

    def loop_entry(loop: Loop) -> Dict[str, Any]:
        return {
            "dim": loop.dim,
            "bound": loop.bound,
            "remainder": loop.remainder,
            "axis": loop.axis,
        }

    return {
        "schema": SCHEMA_VERSION,
        "kind": "mapping",
        "bypass": sorted(list(pair) for pair in mapping.bypass),
        "levels": [
            {
                "level": nest.level_name,
                "temporal": [loop_entry(l) for l in nest.temporal],
                "spatial": [loop_entry(l) for l in nest.spatial],
            }
            for nest in mapping.levels
        ],
    }


def mapping_from_dict(data: Dict[str, Any]) -> Mapping:
    """Rebuild a mapping serialized by :func:`mapping_to_dict`."""
    _require(data, "mapping")
    nests = []
    for entry in data["levels"]:
        temporal = tuple(
            Loop(l["dim"], l["bound"], l["remainder"], spatial=False)
            for l in entry["temporal"]
        )
        spatial = tuple(
            Loop(l["dim"], l["bound"], l["remainder"], spatial=True, axis=l["axis"])
            for l in entry["spatial"]
        )
        nests.append(
            LevelNest(
                level_name=entry["level"], temporal=temporal, spatial=spatial
            )
        )
    bypass = frozenset(tuple(pair) for pair in data.get("bypass", ()))
    return Mapping(levels=tuple(nests), bypass=bypass)


# --------------------------------------------------------------- JSON files


def write_text_atomic(path: Union[str, Path], text: str) -> None:
    """Write ``text`` to ``path`` atomically.

    The content goes to a temporary file in the *same directory* (so the
    final rename never crosses filesystems), is fsynced, and then renamed
    over the target with ``os.replace``. A crash at any point leaves
    either the old file or the new file — never a truncated hybrid.
    """
    target = Path(path)
    parent = target.parent if str(target.parent) else Path(".")
    fd, tmp_name = tempfile.mkstemp(
        dir=parent, prefix=f".{target.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def save_json(obj: Dict[str, Any], path: Union[str, Path]) -> None:
    """Write a serialized spec to ``path`` (pretty-printed JSON).

    The write is atomic (temp file + ``os.replace``): a kill mid-write
    never leaves a truncated or corrupt results file behind.
    """
    write_text_atomic(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def load_json(path: Union[str, Path]) -> Dict[str, Any]:
    """Read a serialized spec (a JSON object) from ``path``.

    Raises :class:`SpecError` naming ``path`` when the file cannot be
    read, is not JSON, or holds something other than an object.
    """
    try:
        data = json.loads(Path(path).read_text())
    except OSError as error:
        raise SpecError(f"{path}: cannot read ({error.strerror or error})") from error
    except ValueError as error:
        raise SpecError(f"{path}: not valid JSON ({error})") from error
    if not isinstance(data, dict):
        raise SpecError(f"{path}: expected a JSON object, got {type(data).__name__}")
    return data
