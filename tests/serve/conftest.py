"""Shared fixtures for the serving tests: one tiny trained model on disk.

Setting ``REPRO_FORCE_SPAWN=1`` (the CI serve-smoke spawn leg) forces
the ``spawn`` start method globally: ``multiprocessing``'s default
context is switched, every ``start_method="auto"`` server resolves to
spawn, and the :func:`start_method` parametrization drops fork — so the
whole suite exercises the exact path macOS/Windows users get.
"""

from __future__ import annotations

import multiprocessing
import os

import numpy as np
import pytest

from repro.core.config import UHDConfig
from repro.core.model import UHDClassifier
from repro.datasets import load_dataset, synthetic_mnist

FORCED_SPAWN = bool(os.environ.get("REPRO_FORCE_SPAWN"))

if FORCED_SPAWN:
    multiprocessing.set_start_method("spawn", force=True)


@pytest.fixture(scope="session", autouse=True)
def _forced_spawn_context():
    """Route every UHDServer start method through spawn when forced."""
    if not FORCED_SPAWN:
        yield
        return
    from repro.serve import server as server_module

    original = server_module._resolve_start_method
    server_module._resolve_start_method = lambda method: "spawn"
    yield
    server_module._resolve_start_method = original


def _start_methods() -> list[str]:
    """The start methods this host offers, fork first (fast) when present."""
    if FORCED_SPAWN:
        return ["spawn"]
    available = multiprocessing.get_all_start_methods()
    return [m for m in ("fork", "spawn") if m in available]


@pytest.fixture(params=_start_methods())
def start_method(request) -> str:
    """Parametrizes worker-pool tests over every available start method.

    ``fork`` exercises copy-on-write table sharing; ``spawn`` exercises
    the cold-child path (and attaching the server's table file instead
    of rebuilding) — the macOS/Windows default the serving layer must
    stay correct under.
    """
    return request.param


@pytest.fixture(scope="session")
def serve_data():
    """Small deterministic dataset the served model was trained on."""
    return synthetic_mnist(n_train=200, n_test=64, seed=11)


@pytest.fixture(scope="session")
def served_model(serve_data):
    """A small fitted UHDClassifier (packed backend, binarized inference)."""
    model = UHDClassifier(
        serve_data.num_pixels,
        serve_data.num_classes,
        UHDConfig(dim=256, backend="packed", binarize=True),
    )
    model.fit(serve_data.train_images, serve_data.train_labels)
    return model


@pytest.fixture(scope="session")
def model_path(served_model, tmp_path_factory):
    """The fitted model persisted once for every serving test to warm-load."""
    path = tmp_path_factory.mktemp("serve") / "model.npz"
    served_model.save(path)
    return str(path)


@pytest.fixture(scope="session")
def direct_labels(served_model, serve_data) -> np.ndarray:
    """Ground truth every served prediction must equal bit-for-bit."""
    return served_model.predict(serve_data.test_images)


#: the registry datasets the router model zoo spans (contract 5 extended:
#: one harness, many datasets — routing never changes labels for any)
ZOO_DATASETS = ("mnist", "fashion")


@pytest.fixture(scope="session")
def zoo_data():
    """Two small registry datasets for the multi-model router tests."""
    return {
        name: load_dataset(name, n_train=150, n_test=40, seed=13 + i).grayscale()
        for i, name in enumerate(ZOO_DATASETS)
    }


@pytest.fixture(scope="session")
def zoo_model_paths(zoo_data, tmp_path_factory):
    """Tiny fitted models for each zoo dataset, persisted once per session."""
    root = tmp_path_factory.mktemp("zoo")
    paths = {}
    for name, data in zoo_data.items():
        model = UHDClassifier(
            data.num_pixels,
            data.num_classes,
            UHDConfig(dim=256, backend="packed", binarize=True),
        )
        model.fit(data.train_images, data.train_labels)
        path = root / f"{name}.npz"
        model.save(path)
        paths[name] = str(path)
    return paths


@pytest.fixture(scope="session")
def zoo_direct_labels(zoo_data, zoo_model_paths) -> dict[str, np.ndarray]:
    """Per-model ground truth every routed prediction must match bit-for-bit."""
    from repro.api import load_model

    return {
        name: load_model(zoo_model_paths[name]).predict(zoo_data[name].test_images)
        for name in zoo_data
    }
