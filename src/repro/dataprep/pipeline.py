"""Composable data-preparation pipelines.

A :class:`PrepPipeline` is an ordered list of operations, each of which
can both **execute** on a real payload (``run``) and **price itself**
(``cost``) for a :class:`SampleSpec` describing the payload's geometry.
The simulator uses the costs; the tests and the Figure 5 accuracy
experiment use execution — on the same objects, so the two can never
drift apart.

Batch execution and the determinism contract
--------------------------------------------

Every op exposes two execution faces:

* ``apply(sample, rng)`` — the per-sample path, the executable spec;
* ``apply_batch(batch, rngs)`` — the vectorized path, operating on a
  whole ``N×…`` stack (or a list, for ragged payloads) with **one
  independent RNG stream per sample**.

The contract that makes the batched engine trustworthy: for every op,
``apply_batch(batch, rngs)[i]`` is **bit-identical** to
``apply(batch[i], rngs[i])``.  Randomness is therefore keyed to the
sample, never to the batch: an op draws from ``rngs[i]`` exactly the
values, in exactly the order, that the per-sample path would draw, so a
sample's prepared output does not depend on where it lands in a batch,
which worker prepared it, or what other samples rode along.  That is
what lets the multi-process engine in :mod:`repro.dataprep.engine`
promise parallel == serial bit-for-bit.

``PrepPipeline.run_batch`` spawns the per-sample streams from one parent
generator with :func:`spawn_rngs` (``SeedSequence`` spawning, so child
streams are independent and reproducible), then executes either the
vectorized path (default) or the kept per-sample reference loop — a
golden-pinned pair, same discipline as the codec fast paths.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import DataprepError
from repro.dataprep.cost import OpCost, PipelineCost


@dataclass(frozen=True)
class SampleSpec:
    """Geometry of a sample at some point in a pipeline.

    ``kind`` tracks the representation so that specs thread through ops:
    ``jpeg`` → ``image_u8`` → ``image_f32`` for the image pipeline,
    ``audio_pcm`` → ``spectrogram`` → ``mel`` for audio.
    ``shape`` is the logical array shape and ``nbytes`` the payload size
    (for ``jpeg`` the *compressed* size, which depends on content, so the
    dataset supplies it).
    """

    kind: str
    shape: Tuple[int, ...]
    nbytes: float

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise DataprepError(f"nbytes must be >= 0: {self.nbytes}")
        if any(dim <= 0 for dim in self.shape):
            raise DataprepError(f"shape dims must be positive: {self.shape}")

    def expect(self, kind: str, op_name: str) -> None:
        if self.kind != kind:
            raise DataprepError(
                f"{op_name} expects a {kind!r} input, got {self.kind!r}"
            )


def spawn_rngs(
    rng: np.random.Generator, n: int
) -> List[np.random.Generator]:
    """``n`` independent child generators spawned from ``rng``.

    Spawning is deterministic in the parent's ``SeedSequence`` alone:
    child ``i`` depends only on the parent seed and on ``i``, never on
    how many values were drawn from the parent or siblings, so per-sample
    streams survive any re-batching of the same sample order.
    """
    if n < 0:
        raise DataprepError(f"cannot spawn {n} streams")
    return list(rng.spawn(n)) if n else []


def sample_rng(seed: int, index: int) -> np.random.Generator:
    """The canonical per-sample stream for global sample ``index``.

    Identical to ``np.random.default_rng(seed).spawn(index + 1)[index]``
    but O(1): the ``i``-th spawned child of a ``SeedSequence`` is the
    sequence with ``spawn_key=(i,)``.  The prep engine keys streams this
    way so that sharding, worker count and batch boundaries can never
    change a sample's prepared bits.
    """
    if index < 0:
        raise DataprepError(f"sample index must be >= 0: {index}")
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    )


def _iter_samples(batch: Any) -> Iterable[Any]:
    """Iterate a batch's samples (leading axis of a stack, else items)."""
    if isinstance(batch, np.ndarray):
        return (batch[i] for i in range(batch.shape[0]))
    return iter(batch)


def _batch_len(batch: Any) -> int:
    if isinstance(batch, np.ndarray):
        return int(batch.shape[0])
    return len(batch)


def stack_samples(outputs: Sequence[Any]) -> Any:
    """Stack per-sample outputs into one ``N×…`` array when they agree in
    shape and dtype; otherwise return them as a list (ragged batch)."""
    outputs = list(outputs)
    if outputs and all(isinstance(o, np.ndarray) for o in outputs):
        first = outputs[0]
        if all(
            o.shape == first.shape and o.dtype == first.dtype
            for o in outputs[1:]
        ):
            return np.stack(outputs)
    return outputs


class PrepOp(abc.ABC):
    """One data-preparation operation."""

    #: instance label, unique within a pipeline.
    name: str = "op"
    #: one of :data:`repro.dataprep.cost.OP_KINDS`.
    kind: str = "load"

    @abc.abstractmethod
    def apply(self, data: Any, rng: np.random.Generator) -> Any:
        """Transform a real payload."""

    def apply_batch(
        self, batch: Any, rngs: Sequence[np.random.Generator]
    ) -> Any:
        """Transform a whole batch, one RNG stream per sample.

        ``batch`` is either an ``N×…`` ndarray stack or a list of ragged
        payloads; the result follows the same convention (stacked when
        shapes agree).  Subclasses override this with a vectorized kernel
        but must keep the contract: element ``i`` of the result is
        bit-identical to ``apply(batch[i], rngs[i])``, and an ndarray
        ``batch`` may be mutated in place (the pipeline's vectorized
        runner always hands ops an owned stack).  This default is the
        per-sample reference loop.
        """
        if _batch_len(batch) != len(rngs):
            raise DataprepError(
                f"{self.name}: got {_batch_len(batch)} samples "
                f"but {len(rngs)} rng streams"
            )
        return stack_samples(
            [
                self.apply(sample, rng)
                for sample, rng in zip(_iter_samples(batch), rngs)
            ]
        )


class PrepPipeline:
    """An ordered sequence of :class:`PrepOp`."""

    def __init__(self, ops: Sequence[PrepOp], name: str = "pipeline") -> None:
        self.ops: List[PrepOp] = list(ops)
        self.name = name
        if not self.ops:
            raise DataprepError("a pipeline needs at least one op")
        labels = [op.name for op in self.ops]
        if len(labels) != len(set(labels)):
            raise DataprepError(f"duplicate op names in pipeline: {labels}")

    def run(self, data: Any, rng: Optional[np.random.Generator] = None) -> Any:
        """Execute the pipeline on one real sample."""
        if rng is None:
            rng = np.random.default_rng()
        for op in self.ops:
            data = op.apply(data, rng)
        return data

    def run_batch(
        self,
        batch: Iterable[Any],
        rng: Optional[np.random.Generator] = None,
        vectorized: bool = True,
    ) -> List[Any]:
        """Execute the pipeline on a batch of samples.

        One child stream is spawned per sample from ``rng`` (see
        :func:`spawn_rngs`), so sample ``i``'s output depends only on
        ``rng``'s seed state and ``i`` — never on the other samples or on
        the execution strategy.  ``vectorized`` selects the batched
        ``apply_batch`` path (default) or the kept per-sample reference
        loop; the two are bit-identical (golden-pinned).
        """
        batch = batch if isinstance(batch, np.ndarray) else list(batch)
        if rng is None:
            rng = np.random.default_rng()
        rngs = spawn_rngs(rng, _batch_len(batch))
        if not vectorized:
            return self.run_batch_reference(batch, rngs)
        out = self.run_batch_vectorized(batch, rngs)
        if isinstance(out, np.ndarray):
            return [out[i] for i in range(out.shape[0])]
        return list(out)

    def run_batch_reference(
        self, batch: Any, rngs: Sequence[np.random.Generator]
    ) -> List[Any]:
        """The kept per-sample execution path: one ``run`` per sample on
        its own stream.  The executable spec ``run_batch_vectorized`` is
        pinned to."""
        if _batch_len(batch) != len(rngs):
            raise DataprepError(
                f"batch of {_batch_len(batch)} needs {len(rngs)} rng streams"
            )
        return [
            self.run(sample, rng)
            for sample, rng in zip(_iter_samples(batch), rngs)
        ]

    def run_batch_vectorized(
        self,
        batch: Any,
        rngs: Sequence[np.random.Generator],
        plan: bool = True,
    ) -> Any:
        """Execute the pipeline through the ops' ``apply_batch`` kernels.

        Returns the final stacked ``N×…`` array (or a list when the
        output is ragged).  Bit-identical to ``run_batch_reference`` on
        the same streams.

        When ``plan`` is true (the default) the batch runs through the
        compiled-plan path (:mod:`repro.dataprep.plan`): the pipeline is
        compiled once per (fingerprint, geometry) into fused stages over
        a pooled arena, and the last stage writes the batch into a fresh
        array the caller owns (allocated when that stage runs, after the
        decode's temporaries are gone).  Batches a plan cannot
        specialize to — ragged geometry, unknown payloads, an op with no
        plan stage — fall back to the per-op path below; ``plan=False``
        pins that per-op path (the benchmark baseline).
        """
        if _batch_len(batch) != len(rngs):
            raise DataprepError(
                f"batch of {_batch_len(batch)} needs {len(rngs)} rng streams"
            )
        if _batch_len(batch) == 0:
            return []
        if plan:
            # Late: plan imports this module.
            from repro.dataprep.plan import PlanInapplicable, try_plan

            compiled = try_plan(self, batch)
            if compiled is not None:
                try:
                    return compiled.execute(batch, rngs, out=np.empty)
                except PlanInapplicable:
                    pass
        data = batch
        if isinstance(data, np.ndarray):
            # Ops may mutate their input stack; never a caller's array.
            data = data.copy()
        elif all(isinstance(s, np.ndarray) for s in data):
            data = stack_samples(data)
        for op in self.ops:
            data = op.apply_batch(data, rngs)
        return data

    def cost(self, spec: SampleSpec) -> PipelineCost:
        """Per-sample cost of the whole pipeline for input ``spec``."""
        costs: List[OpCost] = []
        for op in self.ops:
            op_cost, spec = op.cost(spec)
            costs.append(op_cost)
        return PipelineCost(tuple(costs))

    def output_spec(self, spec: SampleSpec) -> SampleSpec:
        """Spec of the pipeline's output for input ``spec``."""
        for op in self.ops:
            _, spec = op.cost(spec)
        return spec

    def describe(self) -> str:
        return f"{self.name}: " + " -> ".join(op.name for op in self.ops)

    def __len__(self) -> int:
        return len(self.ops)
