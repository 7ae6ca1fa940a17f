"""Versioned JSON interchange for generators, step functions, and model specs.

All persisted artifacts carry ``"format": 1``.  Complex scalars are encoded
as two-element ``[re, im]`` arrays, never strings; matrices are row-major
nested lists of such pairs.  Vectors in h (x) k follow the channel-major
layout documented in :mod:`qscocycle.generator`, so the L block serializes
as its stacked channel blocks.
"""

from __future__ import annotations

import json
from itertools import chain
from pathlib import Path

import numpy as np

from .cocycle import StepFunction
from .generator import BlockGenerator

FORMAT_VERSION = 1


class SchemaError(ValueError):
    """Malformed persisted artifact; the message names the offending field."""


def encode_matrix(a: np.ndarray) -> list:
    """Nested lists of ``[re, im]`` pairs, one level per axis of ``a``."""
    a = np.asarray(a, dtype=np.complex128)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def is_number(obj) -> bool:
    """A JSON number; ``true``/``false`` load as ``bool``, an ``int`` subclass."""
    return isinstance(obj, (int, float)) and not isinstance(obj, bool)


def decode_int(obj, field: str) -> int:
    """An integer field; bools, strings and non-integral numbers are rejected."""
    if not is_number(obj) or (isinstance(obj, float) and not obj.is_integer()):
        raise SchemaError(f"field {field!r} must be an integer, got {obj!r}")
    return int(obj)


def _is_pair(obj) -> bool:
    return isinstance(obj, list) and len(obj) == 2 and is_number(obj[0]) and is_number(obj[1])


def _sequence(obj, name: str, length, dtype) -> np.ndarray:
    if is_number(obj) and length is not None:
        return np.full(length, obj, dtype=dtype)
    complex_ok = dtype is np.complex128
    if not isinstance(obj, list) or not all(is_number(e) or complex_ok and _is_pair(e) for e in obj):
        kind = "numbers or [re, im] pairs" if complex_ok else "real numbers"
        raise SchemaError(f"field {name!r} must be a number or a list of {kind}")
    if length is not None and len(obj) != length:
        raise SchemaError(f"field {name!r} must have {length} entries, got {len(obj)}")
    return np.array([complex(*e) if isinstance(e, list) else e for e in obj], dtype=dtype)


def _matrix(obj, name: str, shape) -> np.ndarray:
    if not (isinstance(obj, list) and all(isinstance(row, list) for row in obj) and (obj or shape)):
        raise SchemaError(f"field {name!r} must be a nonempty list of rows")
    rows, cols = shape or (len(obj), len(obj[0]))
    if len(obj) != rows or any(len(row) != cols for row in obj):
        raise SchemaError(f"field {name!r} must be a {rows} x {cols} matrix")
    # The exact types of the entries and their numbers, in C-level passes,
    # settle the usual input; the per-entry walk runs only to name the first
    # bad entry, or to accept a number that subclasses int or float.
    entries = list(chain.from_iterable(obj))
    if not (
        set(map(type, entries)) <= {list}
        and set(map(len, entries)) <= {2}
        and set(map(type, chain.from_iterable(entries))) <= {int, float}
    ):
        for i, row in enumerate(obj):
            for j, entry in enumerate(row):
                if not _is_pair(entry):
                    raise SchemaError(f"field '{name}[{i}][{j}]' must hold complex entries as [re, im]")
    # Every entry is a pair of numbers: row-major [re, im], viewed as complex.
    numbers = np.fromiter(chain.from_iterable(entries), np.float64, 2 * rows * cols)
    return numbers.view(np.complex128).reshape(rows, cols)


def _huge_entry(obj, name: str, depth: int) -> str:
    """``name`` extended by the index of the first entry, ``depth`` list
    levels down in row-major order, that holds an integer too large for a
    double."""
    if depth and isinstance(obj, list):
        for i, entry in enumerate(obj):
            try:
                np.array(entry, dtype=np.float64)
            except OverflowError:
                return _huge_entry(entry, f"{name}[{i}]", depth - 1)
    return name


# List levels above an entry: a ``matrix`` entry is one [re, im] pair.
_ENTRY_DEPTH = {"real": 0, "reals": 1, "complexes": 1, "matrix": 2}


def read_field(payload: dict, name: str, kind: str, shape=None):
    """``payload[name]`` as one kind, or a ``SchemaError`` naming the field.

    Kinds: ``"count"`` (integer >= 0), ``"real"``, ``"reals"`` and
    ``"complexes"`` (lists of ``shape`` entries, any length if None; a number
    broadcasts; complex entries are numbers or ``[re, im]``) and ``"matrix"``
    (rows of ``[re, im]``, of ``shape`` if given).  JSON ``true``/``false`` are
    not numbers, and an integer too large for a double is refused by the name
    of its entry; finiteness is left to the objects built from the values.
    """
    if name not in payload:
        raise SchemaError(f"missing field {name!r}")
    obj = payload[name]
    if kind == "count":
        value = decode_int(obj, name)
        if not value >= 0:
            raise SchemaError(f"field {name!r} must be nonnegative, got {value}")
        return value
    try:
        if kind == "real":
            if not is_number(obj):
                raise SchemaError(f"field {name!r} must be a number, got {obj!r}")
            return float(obj)
        if kind == "matrix":
            return _matrix(obj, name, shape)
        return _sequence(obj, name, shape, {"reals": np.float64, "complexes": np.complex128}[kind])
    except OverflowError:
        entry = _huge_entry(obj, name, _ENTRY_DEPTH[kind])
        raise SchemaError(f"field {entry!r} holds an integer that does not fit in a double") from None


def check_format(payload: dict) -> None:
    version = read_field(payload, "format", "count")
    if version != FORMAT_VERSION:
        raise SchemaError(f"field 'format' must be {FORMAT_VERSION}, got {version!r}")


def load_json(path) -> dict:
    with Path(path).open("r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError:
            raise
        except ValueError as exc:
            # Bytes that are not UTF-8, or an integer past Python's digit limit.
            raise SchemaError(f"file is not valid JSON: {exc}") from None
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
    check_format(payload)
    dh, dk = read_field(payload, "dim_h", "count"), read_field(payload, "dim_k", "count")
    shapes = {"K": (dh, dh), "L": (dh * dk, dh), "M": (dh, dh * dk), "C": (dh * dk, dh * dk)}
    blocks = {name: read_field(payload, name, "matrix", shape) for name, shape in shapes.items()}
    return BlockGenerator(dim_h=dh, dim_k=dk, **blocks)


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
        "values": encode_matrix(f.values),
        "support_end": float(f.support_end),
    }


def step_from_payload(payload: dict) -> StepFunction:
    check_format(payload)
    dim_k = read_field(payload, "dim_k", "count")
    breakpoints = read_field(payload, "breakpoints", "reals")
    values = read_field(payload, "values", "matrix", (len(breakpoints), dim_k))
    return StepFunction(breakpoints, values, read_field(payload, "support_end", "real"))


def save_step(f: StepFunction, path) -> None:
    dump_json(step_to_payload(f), path)


def load_step(path) -> StepFunction:
    return step_from_payload(load_json(path))
