"""Shared fixtures for the serving tests: one tiny trained model on disk."""

from __future__ import annotations

import multiprocessing
import threading
import time

import numpy as np
import pytest

from repro.core.config import UHDConfig
from repro.core.model import UHDClassifier
from repro.datasets import load_dataset, synthetic_mnist


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


@pytest.fixture(
    params=[
        method for method in ("fork", "spawn")
        if method in multiprocessing.get_all_start_methods()
    ]
)
def start_method(request) -> str:
    """Each start method a process hosting a server can be started by.

    ``fork`` copies a process whose executor threads are live (their
    locks, the warm shared table); ``spawn`` starts cold.  A server in
    either child must stay bit-exact and must not hang.
    """
    return request.param


@pytest.fixture()
def in_child(start_method):
    """``run(target, *args)``: ``target(*args)`` in a child process.

    The child is started by :func:`start_method`; ``target`` must be a
    module-level function of the test module so a spawned child can
    import it.
    """

    def run(target, *args, timeout: float = 120.0):
        context = multiprocessing.get_context(start_method)
        with context.Pool(1) as pool:
            return pool.apply_async(target, args).get(timeout)

    return run


class HeldExecutor:
    """Holds ``server``'s executors inside ``predict`` until released.

    A backlog queued behind a held executor stays queued however fast
    the encode kernel would drain it, so a 1 ms deadline set behind the
    backlog expires for certain instead of racing the kernel.
    """

    def __init__(self, server, monkeypatch) -> None:
        self.server = server
        self.entered = threading.Event()
        self._gate = threading.Event()
        real_predict = server._model.predict

        def predict(images):
            self.entered.set()
            if not self._gate.wait(timeout=60.0):
                raise RuntimeError("held executor never released")
            return real_predict(images)

        monkeypatch.setattr(server._model, "predict", predict)

    def release(self) -> None:
        """Let every held and later ``predict`` run."""
        self._gate.set()

    def release_once_accepted(self, parts: int) -> threading.Thread:
        """Release, from a thread, once an executor is held and the lanes
        have accepted ``parts`` request parts — then 5 ms on, past any
        1 ms deadline among them.

        Every accepted part counts, wherever it is now: queued, expired,
        or already taken into the held batch (with ``max_batch > 1`` the
        executor takes several before it is held, so fewer than
        ``parts`` ever wait in the lanes at once).
        """

        def wait_then_release() -> None:
            give_up = time.monotonic() + 60.0
            while time.monotonic() < give_up:
                accepted = sum(lane.submitted for lane in self.server.stats().lanes)
                if self.entered.is_set() and accepted >= parts:
                    break
                time.sleep(0.001)
            time.sleep(0.005)
            self.release()

        thread = threading.Thread(target=wait_then_release, daemon=True)
        thread.start()
        return thread


@pytest.fixture()
def hold_executor(monkeypatch):
    """``hold_executor(server)`` -> a :class:`HeldExecutor` on it."""
    return lambda server: HeldExecutor(server, monkeypatch)
