"""Versioned JSON interchange for generators, step functions, and model specs.

All persisted artifacts carry ``"format": 1``.  Complex scalars are encoded
as two-element ``[re, im]`` arrays, never strings; matrices are row-major
nested lists of such pairs.  Vectors in h (x) k follow the channel-major
layout documented in :mod:`qscocycle.generator`, so the L block serializes
as its stacked channel blocks.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .cocycle import StepFunction
from .generator import BlockGenerator

FORMAT_VERSION = 1


class SchemaError(ValueError):
    """Malformed persisted artifact; the message names the offending field."""


def encode_complex(z: complex) -> list:
    z = complex(z)
    return [z.real, z.imag]


def encode_matrix(a: np.ndarray) -> list:
    a = np.asarray(a, dtype=np.complex128)
    return [[encode_complex(z) for z in row] for row in a]


def is_number(obj) -> bool:
    """A JSON number; ``true``/``false`` load as ``bool``, an ``int`` subclass."""
    return isinstance(obj, (int, float)) and not isinstance(obj, bool)


def decode_int(obj, field: str) -> int:
    """An integer field; bools, strings and non-integral numbers are rejected."""
    if not is_number(obj) or (isinstance(obj, float) and not obj.is_integer()):
        raise SchemaError(f"field {field!r} must be an integer, got {obj!r}")
    return int(obj)


def decode_complex(obj, field: str) -> complex:
    if not isinstance(obj, (list, tuple)) or len(obj) != 2 or not all(map(is_number, obj)):
        raise SchemaError(f"field {field!r} must hold complex entries as [re, im]")
    return complex(obj[0], obj[1])


def decode_matrix(obj, field: str, shape: tuple[int, int]) -> np.ndarray:
    if not isinstance(obj, list):
        raise SchemaError(f"field {field!r} must be a list of rows")
    rows, cols = shape
    if len(obj) != rows:
        raise SchemaError(f"field {field!r} must have {rows} rows, got {len(obj)}")
    out = np.zeros(shape, dtype=np.complex128)
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != cols:
            raise SchemaError(f"field {field!r} row {i} must have {cols} entries")
        for j, entry in enumerate(row):
            out[i, j] = decode_complex(entry, f"{field}[{i}][{j}]")
    return out


def _require(payload: dict, field: str):
    if field not in payload:
        raise SchemaError(f"missing field {field!r}")
    return payload[field]


def _check_format(payload: dict):
    fmt = _require(payload, "format")
    if fmt != FORMAT_VERSION:
        raise SchemaError(f"field 'format' must be {FORMAT_VERSION}, got {fmt!r}")


def load_json(path) -> dict:
    with Path(path).open("r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise SchemaError("top-level JSON value must be an object")
    return payload


def dump_json(payload: dict, path) -> None:
    with Path(path).open("w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def generator_to_payload(F: BlockGenerator) -> dict:
    return {
        "format": FORMAT_VERSION,
        "kind": "generator",
        "dim_h": F.dim_h,
        "dim_k": F.dim_k,
        "K": encode_matrix(F.K),
        "L": encode_matrix(F.L),
        "M": encode_matrix(F.M),
        "C": encode_matrix(F.C),
    }


def generator_from_payload(payload: dict) -> BlockGenerator:
    _check_format(payload)
    dim_h = decode_int(_require(payload, "dim_h"), "dim_h")
    dim_k = decode_int(_require(payload, "dim_k"), "dim_k")
    K = decode_matrix(_require(payload, "K"), "K", (dim_h, dim_h))
    L = decode_matrix(_require(payload, "L"), "L", (dim_h * dim_k, dim_h))
    M = decode_matrix(_require(payload, "M"), "M", (dim_h, dim_h * dim_k))
    C = decode_matrix(_require(payload, "C"), "C", (dim_h * dim_k, dim_h * dim_k))
    return BlockGenerator(dim_h=dim_h, dim_k=dim_k, K=K, L=L, M=M, C=C)


def save_generator(F: BlockGenerator, path) -> None:
    dump_json(generator_to_payload(F), path)


def load_generator(path) -> BlockGenerator:
    return generator_from_payload(load_json(path))


def step_to_payload(f: StepFunction) -> dict:
    return {
        "format": FORMAT_VERSION,
        "kind": "step_function",
        "dim_k": f.dim_k,
        "breakpoints": [float(t) for t in f.breakpoints],
        "values": [[encode_complex(z) for z in row] for row in f.values],
        "support_end": float(f.support_end),
    }


def step_from_payload(payload: dict) -> StepFunction:
    _check_format(payload)
    dim_k = decode_int(_require(payload, "dim_k"), "dim_k")
    bps = _require(payload, "breakpoints")
    vals = _require(payload, "values")
    end = _require(payload, "support_end")
    if dim_k < 0:
        raise SchemaError(f"field 'dim_k' must be nonnegative, got {dim_k}")
    if not isinstance(bps, list) or not all(map(is_number, bps)):
        raise SchemaError("field 'breakpoints' must be a list of numbers")
    if not isinstance(vals, list) or len(vals) != len(bps):
        raise SchemaError("field 'values' must list one k-vector per breakpoint")
    rows = []
    for i, row in enumerate(vals):
        if not isinstance(row, list) or len(row) != dim_k:
            raise SchemaError(f"field 'values[{i}]' must have {dim_k} entries")
        rows.append([decode_complex(entry, f"values[{i}][{j}]") for j, entry in enumerate(row)])
    if not is_number(end):
        raise SchemaError("field 'support_end' must be a number")
    values = np.array(rows, dtype=np.complex128).reshape(len(rows), dim_k)
    return StepFunction(np.asarray(bps, dtype=np.float64), values, float(end))


def save_step(f: StepFunction, path) -> None:
    dump_json(step_to_payload(f), path)


def load_step(path) -> StepFunction:
    return step_from_payload(load_json(path))
