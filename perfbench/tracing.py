"""Span recording around ghostsim's public functions, from outside the package.

A ``Tracer`` replaces a function or method by a wrapper at the place where
its caller looks it up (module global or class attribute), so a name bound
at import time, such as ``ghostsim.experiments.draw_source_samples``, is
wrapped in the module that calls it rather than only where it is defined.
Each call records one span: name, start, end, parent span and thread, plus
an optional work figure (items, bytes) computed from the arguments.  Spans
stay in memory until ``dump`` writes them out.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int  # -1 when no span was open on this thread
    thread: int
    items: float = 0.0
    nbytes: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrapper(self, fn, name, work):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            items, nbytes = work(args, kwargs, result) if work else (0.0, 0.0)
            tracer.spans.append(
                Span(sid, name, start, end, parent, threading.get_ident(), items, nbytes)
            )
            return result

        return wrapper

    def wrap(self, owner, attr: str, name: str, work=None) -> None:
        """Wrap ``owner.attr`` (a module global or a class attribute) in place."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            wrapped = classmethod(self._wrapper(original.__func__, name, work))
        else:
            wrapped = self._wrapper(original, name, work)
        setattr(owner, attr, wrapped)

    def dump(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")


# -- work figures, computed from argument shapes --------------------------------


def _batch_work(args, kwargs, result):
    # GhostPipeline.batch_intensities(self, start, stop, index_base=0)
    return float(args[2] - args[1]), 0.0


def _rows_work(args, kwargs, result):
    # fold_batch(self, i1, i2) and RecordWriter.append(self, i1, i2): one row
    # per realization holding i1 plus the P pixels of i2, float64 each.
    i1, i2 = args[1], args[2]
    rows = float(len(i1))
    return rows, float(i1.nbytes + i2.nbytes)


def _file_work(args, kwargs, result):
    # cli.write_*(path, ...): the size of the file just written
    return 1.0, float(os.path.getsize(args[0]))


def install_coarse(tracer: Tracer) -> None:
    """Phase boundaries timed in every run: set-up, Monte Carlo, each fold."""
    import ghostsim.cli as cli
    import ghostsim.correlation as correlation
    import ghostsim.experiments as experiments

    tracer.wrap(experiments.GhostPipeline, "from_config", "experiments.from_config")
    tracer.wrap(experiments, "open_records", "records.open_records")
    for fn in ("run_converge", "run_kappa_sweep", "replay_converge"):
        tracer.wrap(cli, fn, f"experiments.{fn}")
    tracer.wrap(correlation.CorrelationAccumulator, "fold_batch",
                "correlation.fold_batch", _rows_work)


def install_layers(tracer: Tracer) -> None:
    """Every public layer entry point the workloads reach (traced runs only)."""
    import ghostsim.cli as cli
    import ghostsim.correlation as correlation
    import ghostsim.experiments as experiments
    import ghostsim.fields as fields
    import ghostsim.records as records

    tracer.wrap(experiments, "fresnel_kernel", "propagation.fresnel_kernel")
    tracer.wrap(experiments, "draw_source_samples", "fields.draw_source_samples")
    tracer.wrap(fields.RngStream, "generator", "fields.generator")
    tracer.wrap(fields.SourceSpec, "aperture_mask", "fields.aperture_mask")
    tracer.wrap(experiments.GhostPipeline, "batch_intensities",
                "experiments.batch_intensities", _batch_work)
    tracer.wrap(correlation.CorrelationAccumulator, "copy", "correlation.copy")
    tracer.wrap(correlation.CorrelationAccumulator, "finalize", "correlation.finalize")
    tracer.wrap(experiments, "pattern_errors", "analysis.pattern_errors")
    tracer.wrap(records.RecordWriter, "append", "records.append", _rows_work)
    for fn in sorted(vars(cli)):
        if fn.startswith("write_"):
            tracer.wrap(cli, fn, f"cli.{fn}", _file_work)


# -- deriving per-command figures from spans -----------------------------------


LAYER_UNITS = {
    "fields.draw_s": "s",
    "fields.draw_calls": "count",
    "fields.generator_s": "s",
    "fields.aperture_mask_s": "s",
    "experiments.batch_s": "s",
    "experiments.batch_self_s": "s",
    "experiments.realizations_drawn": "count",
    "experiments.realizations_folded": "count",
    "experiments.useful_ratio": "ratio",
    "experiments.fold_wait_s": "s",
    "experiments.setup_s": "s",
    "experiments.replay_self_s": "s",
    "propagation.build_s": "s",
    "correlation.fold_s": "s",
    "correlation.fold_calls": "count",
    "correlation.bytes_folded": "B",
    "correlation.copy_s": "s",
    "correlation.finalize_s": "s",
    "analysis.errors_s": "s",
    "analysis.checkpoints": "count",
    "records.write_s": "s",
    "records.bytes_written": "B",
    "records.open_s": "s",
    "records.bytes_read": "B",
    "cli.emit_s": "s",
    "cli.bytes_emitted": "B",
    "tracing.overhead_ratio": "ratio",
}


def _self_time(span: Span, children: list[Span]) -> float:
    """Duration minus the part covered by direct children on the same thread."""
    covered = 0.0
    reach = span.start
    for c in sorted(children, key=lambda c: c.start):
        lo, hi = max(c.start, reach), min(c.end, span.end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return span.duration - covered


class CommandSpans:
    """The spans of one command: those inside its root span's interval."""

    LIVE_MC = ("experiments.run_converge", "experiments.run_kappa_sweep")

    def __init__(self, spans: list[Span], root_start: float, root_end: float):
        self.spans = [s for s in spans if root_start <= s.start and s.end <= root_end]
        self.children: dict[int, list[Span]] = {}
        self._by_name: dict[str, list[Span]] = {}
        for s in self.spans:
            self.children.setdefault(s.parent, []).append(s)
            self._by_name.setdefault(s.name, []).append(s)

    def named(self, name: str) -> list[Span]:
        return self._by_name.get(name, [])

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.named(name))

    def count(self, name: str) -> int:
        return len(self.named(name))

    def items(self, name: str) -> float:
        return sum(s.items for s in self.named(name))

    def nbytes(self, name: str) -> float:
        return sum(s.nbytes for s in self.named(name))

    def self_time(self, name: str) -> float:
        return sum(_self_time(s, self.children.get(s.sid, [])) for s in self.named(name))

    def setups_s(self) -> list[float]:
        """Set-up before each pipeline's first realization: one from_config per
        aperture, plus the record opening on replay.  fresnel_kernel runs
        inside from_config here."""
        builds = [s.duration for s in self.named("experiments.from_config")]
        opened = self.total("records.open_records")
        return [builds[0] + opened] + builds[1:] if opened else builds

    def mc_s(self) -> float:
        """Monte Carlo phase: the experiment call minus the set-up inside it."""
        mc = sum(self.total(n) for n in self.LIVE_MC + ("experiments.replay_converge",))
        inner = sum(
            c.duration
            for n in self.LIVE_MC + ("experiments.replay_converge",)
            for s in self.named(n)
            for c in self.children.get(s.sid, [])
            if c.name in ("experiments.from_config", "records.open_records")
        )
        return mc - inner

    def fold_intervals(self) -> list[float]:
        """Time between successive fold_batch entries of one live Monte Carlo
        call: one batch produced, folded and checkpointed, as the loop sees it.
        Gaps that hold a pipeline build (the next sweep aperture) are not
        batches and are left out."""
        builds = [s.start for s in self.named("experiments.from_config")]
        out: list[float] = []
        for n in self.LIVE_MC:
            for s in self.named(n):
                folds = sorted(
                    c.start for c in self.named("correlation.fold_batch")
                    if s.start <= c.start <= s.end
                )
                out.extend(
                    b - a for a, b in zip(folds, folds[1:])
                    if not any(a < t < b for t in builds)
                )
        return out

    def layer_metrics(self) -> dict[str, float]:
        drawn = self.items("experiments.batch_intensities")
        folded = self.items("correlation.fold_batch")
        fold_wait = sum(
            _self_time(s, self.children.get(s.sid, []))
            for n in self.LIVE_MC
            for s in self.named(n)
        )
        replay_reads = sum(
            c.nbytes
            for s in self.named("experiments.replay_converge")
            for c in self.children.get(s.sid, [])
            if c.name == "correlation.fold_batch"
        )
        emit = [n for n in self._by_name if n.startswith("cli.write_")]
        return {
            "fields.draw_s": self.total("fields.draw_source_samples"),
            "fields.draw_calls": self.count("fields.draw_source_samples"),
            "fields.generator_s": self.total("fields.generator"),
            "fields.aperture_mask_s": self.total("fields.aperture_mask"),
            "experiments.batch_s": self.total("experiments.batch_intensities"),
            "experiments.batch_self_s": self.self_time("experiments.batch_intensities"),
            "experiments.realizations_drawn": drawn,
            "experiments.realizations_folded": folded,
            "experiments.useful_ratio": folded / drawn if drawn else 1.0,
            "experiments.fold_wait_s": fold_wait,
            "experiments.setup_s": self.total("experiments.from_config"),
            "experiments.replay_self_s": self.self_time("experiments.replay_converge"),
            "propagation.build_s": self.total("propagation.fresnel_kernel"),
            "correlation.fold_s": self.total("correlation.fold_batch"),
            "correlation.fold_calls": self.count("correlation.fold_batch"),
            "correlation.bytes_folded": self.nbytes("correlation.fold_batch"),
            "correlation.copy_s": self.total("correlation.copy"),
            "correlation.finalize_s": self.total("correlation.finalize"),
            "analysis.errors_s": self.total("analysis.pattern_errors"),
            "analysis.checkpoints": self.count("analysis.pattern_errors"),
            "records.write_s": self.total("records.append"),
            "records.bytes_written": self.nbytes("records.append"),
            "records.open_s": self.total("records.open_records"),
            "records.bytes_read": replay_reads,
            "cli.emit_s": sum(self.total(n) for n in emit),
            "cli.bytes_emitted": sum(self.nbytes(n) for n in emit),
        }
