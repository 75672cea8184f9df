"""Public estimator API: backends, persistence, and the estimator contract.

This package is the stable surface a serving system builds against:

* :class:`~repro.api.estimator.Estimator` — the fit/predict/score/save/load
  protocol every model in repro satisfies.
* The **backend table** (:func:`get_backend` / :func:`list_backends`,
  entries of type :class:`~repro.api.registry.Backend`) — the closed
  choice ``auto | packed | reference`` that ``UHDConfig.backend``
  validates against.
* **Model persistence** (:func:`save_model` / :func:`load_model` /
  :class:`ModelFormatError`) — versioned ``.npz`` round-trips that are
  bit-exact and never re-encode training data.  A file holds config and
  accumulators only: the encoder and its gather table are rebuilt from
  the config on load, never stored.

Quickstart::

    from repro import UHDClassifier, UHDConfig, load_dataset
    from repro.api import load_model

    data = load_dataset("mnist", n_train=2000, n_test=500).grayscale()
    model = UHDClassifier(data.num_pixels, data.num_classes,
                          UHDConfig(dim=2048, backend="packed"))
    model.fit(data.train_images, data.train_labels)
    model.save("mnist.npz")

    warm = UHDClassifier.load("mnist.npz")       # or load_model("mnist.npz")
    print(warm.score(data.test_images, data.test_labels))

Import note: submodules are loaded lazily (PEP 562) so that
``repro.core.config`` can validate backends against
:mod:`repro.api.registry` without an import cycle.
"""

from __future__ import annotations

from .registry import Backend, get_backend, list_backends

__all__ = [
    "Backend",
    "Estimator",
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "ModelFormatError",
    "get_backend",
    "list_backends",
    "load_model",
    "save_model",
]

#: attribute -> defining submodule, resolved lazily to keep this package
#: importable from repro.core.config without cycling through the models
_LAZY = {
    "Estimator": "estimator",
    "FORMAT_NAME": "persistence",
    "FORMAT_VERSION": "persistence",
    "ModelFormatError": "persistence",
    "save_model": "persistence",
    "load_model": "persistence",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value  # cache for subsequent lookups
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
