"""Worker process lifecycle: bootstrap, readiness handshake, predict loop.

A worker is deliberately dumb and stateless-restartable, which is what
uHD's tiny persisted models buy (config + one integer accumulator
matrix): it warm-starts from the model file via
:func:`repro.api.load_model` — **never re-fits, never sees training
data** — proves itself with the same readiness probe ``repro-uhd
serve-check`` runs, then loops answering predict batches.  Crash
recovery is therefore trivial for the parent: spawn an identical
process and re-send the lost batch; there is no in-worker state worth
salvaging.

Transport: per-generation simplex pipes, **not** ``mp.Queue``.  A
``Queue`` writer pushes through a feeder thread guarded by a semaphore
*shared across every process on the queue* — a worker that dies between
writing and releasing (observed in practice with an ``os._exit`` racing
the feeder) strands that semaphore and deadlocks every later writer.
Each worker generation instead gets its own ``ctx.Pipe`` pair: writes
are synchronous in the owning process, nothing is shared between
generations, a crashed generation can corrupt at most its own pipes
(which the parent discards wholesale on respawn), and pipe EOF doubles
as an immediate crash signal.

Wire protocol (picklable tuples, private to this package)
---------------------------------------------------------
parent -> worker, on the worker's task pipe::

    ("batch", batch_id, images, crash)   # predict; crash=True is the
                                         # test hook: exit before predicting
    ("stop",)                            # drain nothing, exit 0

worker -> parent, on the worker's result pipe::

    ("ready", slot, probe_median_s, table_builds)
                                         # bootstrap + probe succeeded;
                                         # table_builds counts gather tables
                                         # this worker *built* (0 = attached)
    ("fatal", slot, message)             # bootstrap failed; worker exited
    ("result", slot, batch_id, labels)
    ("error", slot, batch_id, message)   # predict raised; worker lives on

Warm-start economics: a worker never rebuilds the parent's warm gather
tables.  Under ``fork`` it inherits them copy-on-write through the
encoder cache.  Under ``spawn``/``forkserver`` the parent passes the
path of the one table file it wrote, and the worker *attaches* it (a
zero-copy read-only memmap, shared through the page cache) before the
readiness probe, so bootstrap is O(1) in table size either way.  A
vanished file is never fatal: the worker builds the table locally and
the build shows up in ``table_builds``.

``slot`` is the worker's stable index in the pool; a restarted worker
reuses its slot (the parent tracks generations).
"""

from __future__ import annotations

import os
import traceback
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    import multiprocessing.context

__all__ = ["worker_main", "WorkerHandle", "spawn_worker"]

#: readiness-probe timing repeats inside each worker (latency is reported
#: for observability; correctness is the deterministic-predictions check)
PROBE_REPEATS = 3


def worker_main(
    slot: int,
    model_path: str,
    backend: str | None,
    probe_batch: int,
    task_conn: Any,
    result_conn: Any,
    seed: int = 0,
    table_path: str | None = None,
) -> None:
    """Entry point of one worker process (top-level, hence spawn-picklable).

    ``task_conn`` / ``result_conn`` are the worker ends of this
    generation's simplex pipes; ``Connection.send`` is synchronous in
    this process, so a completed send can never be stranded by a later
    crash (see the module docstring).
    """
    try:
        from ..api.persistence import load_model
        from .probe import readiness_probe

        model = load_model(model_path, backend=backend)
        num_pixels = getattr(model, "num_pixels", None)
        if num_pixels is None:
            raise TypeError(
                f"{type(model).__name__} has no num_pixels; the serving layer "
                "only fronts image models (UHDClassifier, StreamingUHD)"
            )
        # under fork, this process's encoder cache is a copy-on-write view
        # of the parent's — adopting its (already warm) entry shares the
        # gather tables instead of rebuilding them per worker; under spawn
        # the cache is cold and the parent's table file (if any) is
        # attached so the probe below never triggers a build
        from .cache import encoder_cache

        encoder_cache().adopt(model)
        _attach_table_file(model, table_path)
        # delta, not the raw counter: a forked worker adopts the parent's
        # encoder whose counter already records the *parent's* builds —
        # only builds from here on happened in this process
        encoder = getattr(model, "encoder", None)
        builds_before = int(getattr(encoder, "table_builds", 0))
        probe = readiness_probe(
            model,
            num_pixels,
            batch=probe_batch,
            repeats=PROBE_REPEATS,
            seed=seed,
        )
        table_builds = int(getattr(encoder, "table_builds", 0)) - builds_before
    except BaseException:
        try:
            result_conn.send(("fatal", slot, traceback.format_exc(limit=8)))
        except (BrokenPipeError, OSError):  # parent already gone
            pass
        return
    result_conn.send(("ready", slot, probe.median_s, table_builds))
    while True:
        try:
            task = task_conn.recv()
        except (EOFError, OSError):
            return  # parent closed its end: shutdown
        kind = task[0]
        if kind == "stop":
            return
        if kind == "batch":
            _, batch_id, images, crash = task
            if crash:  # test hook: die mid-batch, parent must retry
                os._exit(1)
            try:
                labels = model.predict(images)
            except BaseException:
                result_conn.send(
                    ("error", slot, batch_id, traceback.format_exc(limit=8))
                )
                continue
            result_conn.send(("result", slot, batch_id, labels))


def _attach_table_file(model: Any, table_path: str | None) -> None:
    """Attach the parent's table file onto ``model``'s encoder.

    No-ops when there is no file (fork, reference encoders), the encoder
    cannot attach or is already warm, or the file has vanished — the
    worker then builds its own table, slower but never wrong.  A
    *present but corrupt or mismatched* file raises: that is a real bug,
    not a fallback.
    """
    if table_path is None:
        return
    encoder = getattr(model, "encoder", None)
    if encoder is None or not hasattr(encoder, "attach_tables"):
        return
    if getattr(encoder, "tables_ready", False):
        return
    from ..fastpath.tablestore import read_table_file

    try:
        tables = read_table_file(table_path)
    except FileNotFoundError:
        return
    encoder.attach_tables(tables)


class WorkerHandle:
    """Parent-side view of one worker slot: process, queue, and state.

    ``state`` transitions: ``starting`` → ``idle`` ⇄ ``busy`` →
    ``stopped`` (clean shutdown) or ``dead`` (crashed and not
    respawned).  ``generation`` counts spawns of this slot; messages
    from a previous generation's process are matched by slot only —
    safe, because a slot is respawned only after its process is dead
    and its in-flight batch reclaimed.
    """

    def __init__(self, slot: int) -> None:
        self.slot = slot
        self.generation = 0
        self.process: Any = None
        self.task_writer: Any = None  #: parent end of the task pipe
        self.result_reader: Any = None  #: parent end of the result pipe
        self.state = "starting"
        self.busy_batch: Any = None  #: the _Batch currently on this worker
        self.probe_median_s: float | None = None
        #: gather tables the worker built during bootstrap (0 = attached)
        self.table_builds: int | None = None

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def send(self, task: tuple) -> None:
        self.task_writer.send(task)

    def close_pipes(self) -> None:
        """Discard this generation's parent-side pipe ends (crash/respawn)."""
        for conn in (self.task_writer, self.result_reader):
            if conn is not None:
                try:
                    conn.close()
                except OSError:
                    pass
        self.task_writer = None
        self.result_reader = None

    def stop(self, join_timeout: float = 2.0) -> None:
        """Best-effort clean shutdown: stop message, join, then terminate."""
        if self.process is None:
            return
        if self.alive() and self.state in ("starting", "idle", "busy"):
            try:
                self.send(("stop",))
            except (OSError, ValueError, BrokenPipeError):  # pipe torn down
                pass
        self.process.join(join_timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(1.0)
        self.close_pipes()
        self.state = "stopped"


def spawn_worker(
    ctx: "multiprocessing.context.BaseContext",
    handle: WorkerHandle,
    model_path: str,
    backend: str | None,
    probe_batch: int,
    table_path: str | None = None,
) -> WorkerHandle:
    """(Re)spawn the process for ``handle``'s slot with fresh pipes.

    Fresh simplex pipes per spawn mean a crashed generation's
    half-written pipe state can never leak into its successor; the old
    parent-side ends are closed here.
    """
    handle.close_pipes()
    handle.generation += 1
    task_reader, task_writer = ctx.Pipe(duplex=False)
    result_reader, result_writer = ctx.Pipe(duplex=False)
    handle.task_writer = task_writer
    handle.result_reader = result_reader
    handle.state = "starting"
    handle.busy_batch = None
    handle.process = ctx.Process(
        target=worker_main,
        args=(
            handle.slot,
            model_path,
            backend,
            probe_batch,
            task_reader,
            result_writer,
            0,  # probe seed
            table_path,
        ),
        name=f"uhd-serve-worker-{handle.slot}.{handle.generation}",
        daemon=True,
    )
    handle.process.start()
    # the child holds its own copies now; closing ours makes EOF detection
    # on either pipe reflect the child alone
    task_reader.close()
    result_writer.close()
    return handle
