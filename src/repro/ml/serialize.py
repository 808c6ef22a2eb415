"""Save/load model parameters as JSON-able state records.

JSON-serialisable *state records* (:func:`module_state_record` /
:func:`load_module_state`) are how the serving layer embeds trained model
weights in a versioned net snapshot
(:func:`repro.kg.serialize.save_snapshot`).  A record carries a
fingerprint of the module's architecture (parameter names + shapes, plus
an arbitrary config dict), and loading validates it first — weights can
never be silently poured into a mismatched architecture.
"""

from __future__ import annotations

import base64
import hashlib
import json
from typing import Any, Mapping

import numpy as np

from ..errors import DataError
from .module import Module

#: Parameter arrays travel as little-endian float64 bytes inside records.
_DTYPE = "<f8"


def state_to_jsonable(state: Mapping[str, np.ndarray]) -> dict[str, Any]:
    """A state dict as a JSON-serialisable payload (exact float64 bytes).

    Arrays travel as base64 little-endian float64, so a round trip through
    :func:`state_from_jsonable` is bit-identical — a snapshot-restored
    model computes exactly what the in-memory one did.
    """
    payload: dict[str, Any] = {}
    for name, array in state.items():
        data = np.ascontiguousarray(array, dtype=_DTYPE)
        payload[name] = {
            "shape": list(data.shape),
            "data": base64.b64encode(data.tobytes()).decode("ascii"),
        }
    return payload


def state_from_jsonable(payload: Mapping[str, Any]) -> dict[str, np.ndarray]:
    """Rebuild a state dict from :func:`state_to_jsonable` output.

    Raises:
        DataError: If the payload is malformed (missing fields, byte
            count disagreeing with the recorded shape, bad base64).
    """
    state: dict[str, np.ndarray] = {}
    for name, record in payload.items():
        try:
            raw = base64.b64decode(record["data"])
            shape = tuple(int(dim) for dim in record["shape"])
            array = np.frombuffer(raw, dtype=_DTYPE).astype(np.float64)
            state[str(name)] = array.reshape(shape)
        except (KeyError, TypeError, ValueError) as error:
            raise DataError(
                f"malformed parameter record {name!r}: {error}"
            ) from error
    return state


def module_fingerprint(module: Module,
                       config: Mapping[str, Any] | None = None) -> str:
    """Digest of a module's architecture (parameter names/shapes + config).

    Two modules share a fingerprint exactly when their parameter trees
    (dotted names and shapes) and the supplied config dict agree — the
    precondition for a state record of one to load into the other.
    """
    spec = {
        "params": sorted(
            (name, list(param.shape))
            for name, param in module.named_parameters()
        ),
        "config": dict(config or {}),
    }
    digest = hashlib.sha256(
        json.dumps(spec, sort_keys=True).encode("utf-8")
    ).hexdigest()
    return digest[:16]


def module_state_record(module: Module,
                        config: Mapping[str, Any] | None = None
                        ) -> dict[str, Any]:
    """A self-validating, JSON-serialisable record of a module's weights.

    Args:
        module: The trained module.
        config: Arbitrary JSON-able facts about how the module was built
            (model kind, hyperparameters...); folded into the fingerprint
            so a load into a differently-configured module fails loudly.
    """
    config = dict(config or {})
    return {
        "fingerprint": module_fingerprint(module, config),
        "config": config,
        "params": state_to_jsonable(module.state_dict()),
    }


def load_module_state(module: Module, record: Mapping[str, Any]) -> None:
    """Load a :func:`module_state_record` into ``module``, validating first.

    Raises:
        DataError: If the record is malformed, or its fingerprint does not
            match ``module``'s architecture + the record's config — i.e.
            the weights were trained on a different model shape.
    """
    try:
        recorded = str(record["fingerprint"])
        config = dict(record.get("config") or {})
        params = record["params"]
    except (KeyError, TypeError, ValueError) as error:
        raise DataError(f"malformed module state record: {error}") from error
    expected = module_fingerprint(module, config)
    if recorded != expected:
        raise DataError(
            f"model state fingerprint {recorded!r} does not match the "
            f"target module's architecture fingerprint {expected!r}; "
            "refusing to load mismatched weights"
        )
    state = state_from_jsonable(params)
    try:
        module.load_state_dict(state)
    except (KeyError, ValueError) as error:
        raise DataError(
            f"module state record does not fit the module: {error}"
        ) from error
