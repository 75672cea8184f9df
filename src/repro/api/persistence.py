"""Versioned model persistence: config + trained state as one ``.npz`` file.

uHD's single-iteration training makes a fitted model tiny and fully
deterministic: the Sobol codebook is a pure function of the config seed,
so the only *learned* state is the ``(num_classes, dim)`` int64 class
accumulator matrix.  A saved model is therefore just

* a format header (magic name, integer version, model class name),
* the model's config (JSON — every field of the frozen dataclass), and
* the raw integer accumulators (plus a couple of scalar counters).

``load`` rebuilds the encoder from the config (construction, not
training — no training data is ever re-encoded) and injects the
accumulators, so predictions after a round-trip are **bit-exact** on
every backend: the packed class words are re-derived lazily from the
same integers the reference path compares against.

File layout notes
-----------------
The header keys are dunder-named so they can never collide with a model
payload key.  Files are written through an open file handle so the path
is stored exactly as given (``np.savez`` would append ``.npz`` itself).
``allow_pickle`` stays False end-to-end: a model file can be loaded from
an untrusted source without executing anything.

Anything structurally wrong — not a zip, missing header, wrong magic,
version from the future, missing payload keys, wrong model class —
raises :class:`ModelFormatError` with a message naming the problem.
"""

from __future__ import annotations

import io
import json
import threading
import zipfile
from dataclasses import asdict, fields
from typing import TYPE_CHECKING, Any, BinaryIO, Mapping

import numpy as np

from .registry import BACKENDS

if TYPE_CHECKING:  # pragma: no cover
    from .estimator import Estimator

__all__ = [
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "ModelFormatError",
    "save_model",
    "load_model",
    "config_to_json",
    "config_from_json",
    "saved_backend",
]

#: magic string in every model file header; ``load_model`` rejects files
#: whose magic differs (e.g. an arbitrary ``.npz``) with ModelFormatError
FORMAT_NAME = "uhd-model"
#: integer format version this build writes; readers accept 1..FORMAT_VERSION
#: and refuse files from the future with ModelFormatError
FORMAT_VERSION = 1

_FORMAT_KEY = "__format__"
_VERSION_KEY = "__version__"
_MODEL_KEY = "__model__"

#: np.load parses every .npy header with ast.literal_eval, and CPython
#: 3.11's AST conversion is not thread-safe: concurrent parses can fail
#: with "SystemError: AST constructor recursion depth mismatch".  Router
#: deployments load their model files on concurrent threads.
_NPZ_READ_LOCK = threading.Lock()

#: model-class registry: name -> lazy importer (keeps this module cycle-free)
_MODEL_IMPORTS = {
    "UHDClassifier": lambda: _import("repro.core.model", "UHDClassifier"),
    "StreamingUHD": lambda: _import("repro.core.streaming", "StreamingUHD"),
    "BaselineHDC": lambda: _import("repro.hdc.baseline", "BaselineHDC"),
    "CentroidClassifier": lambda: _import("repro.hdc.classifier", "CentroidClassifier"),
}


def _import(module: str, attr: str) -> type:
    import importlib

    return getattr(importlib.import_module(module), attr)


class ModelFormatError(Exception):
    """A model file is corrupted, mis-versioned, or of the wrong kind.

    Example::

        from repro.api import ModelFormatError, load_model

        try:
            model = load_model("maybe-a-model.npz")
        except ModelFormatError as exc:
            print(f"refusing to serve: {exc}")
    """


def saved_backend(name: Any) -> str:
    """The backend-table name a model file's recorded backend loads onto.

    The one place every load path (config JSON and the bare centroid
    classifier) resolves a saved backend name.  The retired
    ``"threaded"`` backend ran the packed kernels over threads; its
    arithmetic is packed's, bit for bit, so its files load as
    ``"packed"``.  Any other name outside
    :data:`repro.api.registry.BACKENDS` raises :class:`ModelFormatError`.
    """
    if name == "threaded":
        return "packed"
    if name not in BACKENDS:
        raise ModelFormatError(
            f"model was saved with backend {name!r}, which is not one of "
            f"{BACKENDS}"
        )
    return name


def config_to_json(config: Any) -> str:
    """Frozen config dataclass -> canonical JSON string."""
    return json.dumps(asdict(config), sort_keys=True)


def config_from_json(payload: str, config_cls: type) -> Any:
    """Inverse of :func:`config_to_json`, tolerant of *older* configs.

    Unknown keys (a file written by a newer minor revision) raise;
    missing keys fall back to the dataclass defaults so old files keep
    loading when a new field with a default is added.
    """
    try:
        raw = json.loads(payload)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"config payload is not valid JSON: {exc}") from exc
    if "backend" in raw:
        raw["backend"] = saved_backend(raw["backend"])
    known = {f.name for f in fields(config_cls)}
    unknown = set(raw) - known
    if unknown:
        raise ModelFormatError(
            f"config has fields {sorted(unknown)} unknown to "
            f"{config_cls.__name__} — file written by a newer version?"
        )
    try:
        return config_cls(**raw)
    except (ValueError, TypeError) as exc:  # corrupt field values
        raise ModelFormatError(
            f"saved config does not validate: {exc}"
        ) from exc


def _save_arrays(model: "Estimator") -> dict[str, np.ndarray]:
    name = type(model).__name__
    if name not in _MODEL_IMPORTS:
        raise TypeError(
            f"don't know how to persist {name!r}; persistable models: "
            f"{sorted(_MODEL_IMPORTS)}"
        )
    payload = model._save_payload()
    arrays: dict[str, np.ndarray] = {
        _FORMAT_KEY: np.array(FORMAT_NAME),
        _VERSION_KEY: np.array(FORMAT_VERSION, dtype=np.int64),
        _MODEL_KEY: np.array(name),
    }
    for key, value in payload.items():
        if key.startswith("__"):
            raise ValueError(f"payload key {key!r} collides with the header namespace")
        arrays[key] = np.asarray(value)
    return arrays


def save_model(model: "Estimator", path: Any) -> None:
    """Write a fitted model to ``path`` (versioned, compressed ``.npz``).

    ``path`` may be a string/``os.PathLike`` or an open binary file
    object.  Raises ``RuntimeError`` if the model has not been fitted
    (an unfitted model has no state worth a file).  Only config and
    learned state are written: the encoder's gather table is derived
    state that :func:`load_model` rebuilds, so it is never stored.

    Example::

        from repro.api import save_model

        model.fit(train_images, train_labels)
        save_model(model, "mnist-2048.npz")     # == model.save(...)
    """
    arrays = _save_arrays(model)
    if hasattr(path, "write"):
        np.savez_compressed(path, **arrays)
        return
    with open(path, "wb") as handle:
        np.savez_compressed(handle, **arrays)


def _read_arrays(path: Any) -> dict[str, np.ndarray]:
    stream: BinaryIO
    if hasattr(path, "read"):
        stream = io.BytesIO(path.read())
    else:
        with open(path, "rb") as handle:  # missing file -> FileNotFoundError as-is
            stream = io.BytesIO(handle.read())
    try:
        with _NPZ_READ_LOCK, np.load(stream, allow_pickle=False) as data:
            return {key: data[key] for key in data.files}
    except (ValueError, OSError, zipfile.BadZipFile, KeyError) as exc:
        raise ModelFormatError(f"not a readable model file: {exc}") from exc


def _check_header(arrays: Mapping[str, np.ndarray]) -> str:
    for key in (_FORMAT_KEY, _VERSION_KEY, _MODEL_KEY):
        if key not in arrays:
            raise ModelFormatError(f"missing header field {key!r} — not a uHD model file")
    try:
        magic = arrays[_FORMAT_KEY].item()
        version = int(arrays[_VERSION_KEY])
        model = str(arrays[_MODEL_KEY].item())
    except (ValueError, TypeError) as exc:  # wrong-typed / multi-element fields
        raise ModelFormatError(f"malformed header field: {exc}") from exc
    if magic != FORMAT_NAME:
        raise ModelFormatError(
            f"bad format magic {magic!r} (expected {FORMAT_NAME!r})"
        )
    if version < 1 or version > FORMAT_VERSION:
        raise ModelFormatError(
            f"model format version {version} is not supported "
            f"(this build reads versions 1..{FORMAT_VERSION})"
        )
    return model


def load_model(
    path: Any, expected: type | None = None, backend: str | None = None
) -> "Estimator":
    """Rebuild a fitted model saved by :func:`save_model`.

    ``expected`` (used by the per-class ``load`` classmethods) pins the
    model class; a file holding some other model raises
    :class:`ModelFormatError` instead of returning a surprise type.
    Loading reconstructs the encoder from config — it never touches or
    re-encodes training data.

    ``backend`` re-homes the loaded model onto another backend-table
    entry (``model.with_backend``), trained state intact —
    the single code path the CLI and the serving layer share, so they
    can never re-home inconsistently.
    Raises ``ValueError`` for a model type that cannot switch backends.

    Only ``path`` is read: any other file next to it (such as a
    ``<model>.npz.tables`` sidecar older builds wrote) is ignored, and
    the encoder builds its gather table on first use.

    Example — warm-start a server, bit-exact with the saver::

        from repro.api import load_model

        warm = load_model("mnist-2048.npz")     # no retraining, no data
        fast = load_model("mnist-2048.npz", backend="packed")
        labels = warm.predict(images)
    """
    arrays = _read_arrays(path)
    name = _check_header(arrays)
    if name not in _MODEL_IMPORTS:
        raise ModelFormatError(f"file holds unknown model class {name!r}")
    if expected is not None and name != expected.__name__:
        raise ModelFormatError(
            f"file holds a {name}, not a {expected.__name__}"
        )
    cls = _MODEL_IMPORTS[name]()
    payload = {k: v for k, v in arrays.items() if not k.startswith("__")}
    try:
        model = cls._from_payload(payload)
    except KeyError as exc:
        raise ModelFormatError(
            f"model file is missing payload field {exc.args[0]!r} — truncated "
            "or written by an incompatible build"
        ) from exc
    if backend is not None:
        if model.backend != backend:
            if not hasattr(model, "with_backend"):
                raise ValueError(
                    f"{name} cannot be re-homed onto backend {backend!r} "
                    "(no with_backend); save it with the desired backend "
                    "instead"
                )
            model = model.with_backend(backend)
    return model
