"""Named backend registry — the single source of truth for execution backends.

A *backend* bundles the two dispatch decisions the models used to make
through hardcoded string tuples:

* which **encoder** implements ``encode_batch`` for a given workload, and
* which **inference kernels** the centroid classifier runs on.

Backends are registered by name with a zero-argument factory so that
registration stays import-light: looking up ``"packed"`` is what pulls in
:mod:`repro.fastpath`, not importing this module.  ``UHDConfig.backend``
validates against this registry, so a third-party backend registered
*before* configs are built plugs into every model, the CLI and the
benchmarks without touching core code::

    from repro.api import Backend, register_backend

    class FancyBackend:
        name = "fancy"
        ...

    register_backend("fancy", FancyBackend)
    model = UHDClassifier(784, 10, UHDConfig(backend="fancy"))

Built-in backends (``reference``, ``packed``, ``auto``) are
registered here with lazy factories; see :mod:`repro.fastpath.execution`
for their implementations.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Callable, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

    from ..core.config import UHDConfig
    from ..core.encoder import SobolLevelEncoder

__all__ = [
    "Backend",
    "register_backend",
    "unregister_backend",
    "get_backend",
    "resolve_backend",
    "list_backends",
    "is_registered_backend",
]


@runtime_checkable
class Backend(Protocol):
    """Execution backend: encoder construction + inference kernel policy.

    Implementations must be stateless (or share only read-only state):
    one instance is cached per registered name and handed to every model
    that selects it, possibly from several threads.

    Example — the smallest useful custom backend, delegating encoding to
    the reference path but forcing reference inference::

        from repro.api import Backend, get_backend, register_backend

        class ReferenceOnly:
            name = "ref-only"
            def make_encoder(self, num_pixels, config):
                return get_backend("reference").make_encoder(num_pixels, config)
            def encoder_kind(self, config, num_pixels):
                return "reference"
            def use_packed_inference(self, binarize):
                return False
            def packed_predict(self, queries, class_words, dim):
                raise NotImplementedError
            def packed_cosine(self, query_words, class_words, dim):
                raise NotImplementedError

        register_backend("ref-only", ReferenceOnly)
    """

    #: registry name; ``UHDConfig(backend=name)`` selects this backend
    name: str

    def make_encoder(
        self, num_pixels: int, config: "UHDConfig"
    ) -> "SobolLevelEncoder":
        """Build the encoder this backend runs ``encode_batch`` on."""
        ...

    def encoder_kind(self, config: "UHDConfig", num_pixels: int) -> str:
        """``"packed"`` or ``"reference"`` — which encode path applies.

        Raises ``ValueError`` when the backend is forced onto a workload
        it cannot serve (so a forced selection never silently degrades).
        """
        ...

    def use_packed_inference(self, binarize: bool) -> bool:
        """Whether classifier inference runs on packed words."""
        ...

    def packed_predict(
        self, queries: "np.ndarray", class_words: "np.ndarray", dim: int
    ) -> "np.ndarray":
        """Winner-take-all labels from raw integer accumulator queries."""
        ...

    def packed_cosine(
        self, query_words: "np.ndarray", class_words: "np.ndarray", dim: int
    ) -> "np.ndarray":
        """Binarized cosine similarities from packed queries."""
        ...


_FACTORIES: dict[str, Callable[[], Backend]] = {}
_INSTANCES: dict[str, Backend] = {}
#: serializes first-lookup instantiation so every thread sees one instance
#: per name (the cached-instance invariant the Backend protocol documents);
#: reentrant because a factory may legitimately compose another backend via
#: get_backend() from inside its own construction
_INSTANCE_LOCK = threading.RLock()


def register_backend(
    name: str, factory: Callable[[], Backend], *, replace: bool = False
) -> None:
    """Register ``factory`` under ``name``.

    ``factory`` is called lazily (and at most once) on the first
    :func:`get_backend` lookup; the instance is cached after that.  Pass
    ``replace=True`` to overwrite an existing registration — without it a
    name collision raises so two libraries cannot silently fight over a
    name.

    Example::

        from repro.api import register_backend
        from repro import UHDClassifier, UHDConfig

        register_backend("fancy", FancyBackend)            # plug in by name
        model = UHDClassifier(784, 10, UHDConfig(backend="fancy"))
    """
    if not name or not isinstance(name, str):
        raise ValueError(f"backend name must be a non-empty string, got {name!r}")
    if not callable(factory):
        raise TypeError(f"backend factory must be callable, got {factory!r}")
    with _INSTANCE_LOCK:  # vs concurrent get_backend caching the old factory
        if name in _FACTORIES and not replace:
            raise ValueError(
                f"backend {name!r} is already registered; pass replace=True "
                "to override"
            )
        _FACTORIES[name] = factory
        _INSTANCES.pop(name, None)


def unregister_backend(name: str) -> None:
    """Remove a registered backend (mainly for tests / plugin teardown).

    Removing an unknown name is a no-op.  Example::

        register_backend("temp", TempBackend)
        try:
            ...
        finally:
            unregister_backend("temp")
    """
    with _INSTANCE_LOCK:
        _FACTORIES.pop(name, None)
        _INSTANCES.pop(name, None)


def list_backends() -> tuple[str, ...]:
    """Registered backend names, registration order.

    Example::

        >>> from repro.api import list_backends
        >>> sorted(list_backends())
        ['auto', 'packed', 'reference']
    """
    return tuple(_FACTORIES)


def is_registered_backend(name: str) -> bool:
    """Whether ``name`` resolves to a registered backend.

    Example::

        >>> from repro.api import is_registered_backend
        >>> is_registered_backend("packed"), is_registered_backend("gpu")
        (True, False)
    """
    return name in _FACTORIES


def get_backend(name: str) -> Backend:
    """The (cached) backend instance registered under ``name``.

    Raises ``ValueError`` with the available names for typo-friendly
    config validation errors.

    Example — build the encoder a config selects::

        from repro.api import get_backend

        backend = get_backend(config.backend)
        encoder = backend.make_encoder(num_pixels, config)
    """
    instance = _INSTANCES.get(name)
    if instance is not None:
        return instance
    with _INSTANCE_LOCK:
        instance = _INSTANCES.get(name)  # lost the race -> reuse the winner
        if instance is not None:
            return instance
        factory = _FACTORIES.get(name)
        if factory is None:
            raise ValueError(
                f"unknown backend {name!r}: registered backends are "
                f"{list_backends()} (see repro.api.register_backend)"
            )
        instance = factory()
        if not isinstance(instance, Backend):
            raise TypeError(
                f"factory for backend {name!r} returned {type(instance).__name__}, "
                "which does not implement the repro.api.Backend protocol"
            )
        _INSTANCES[name] = instance
        return instance


def resolve_backend(backend: "str | Backend") -> Backend:
    """Normalize a name or an already-built backend to a Backend instance.

    Example::

        resolve_backend("packed")            # registry lookup
        resolve_backend(MyBackend())         # passes through, type-checked
    """
    if isinstance(backend, str):
        return get_backend(backend)
    if isinstance(backend, Backend):
        return backend
    raise TypeError(
        f"backend must be a registered name or a Backend instance, got {backend!r}"
    )


# ----------------------------------------------------------------------
# Built-in backends: lazy factories so this module imports nothing heavy.
# ----------------------------------------------------------------------
def _reference_factory() -> Backend:
    from ..fastpath.execution import ReferenceBackend

    return ReferenceBackend()


def _packed_factory() -> Backend:
    from ..fastpath.execution import PackedBackend

    return PackedBackend()


def _auto_factory() -> Backend:
    from ..fastpath.execution import AutoBackend

    return AutoBackend()


register_backend("auto", _auto_factory)
register_backend("packed", _packed_factory)
register_backend("reference", _reference_factory)
