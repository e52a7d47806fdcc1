"""Attention context exchange (Section 4.2).

Uniform slicing makes slices equal in *length* but not in *cost*: a slice's
causal-attention work is proportional to the number of key/value tokens it
attends to, so at any instant the devices of a SlimPipe pipeline hold
attention workloads forming an arithmetic progression (the later the slice a
device is processing, the more KV cache it attends to).  Left alone, the
lightly-loaded devices finish early and wait — the *imbalance bubbles* of
Figure 7.

Context exchange removes the imbalance: a heavily-loaded device ships one
slice of query (and, after the attention, receives the partial output back)
plus a portion of its KV cache to a lightly-loaded device, which computes the
partial attention locally; partial outputs are merged with the online-softmax
method.  After redistribution every device processes the same amount of
key/value work to within one slice (Section 4.2.2), and the total exchanged
volume per microbatch per device is bounded by Eq. 2:

.. math::

   \\Theta = \\Bigl(2n + 2(n - p + 1)\\lfloor (p-1)/2 \\rfloor
             + 2(p - 1)\\lfloor (n-1)/2 \\rfloor\\Bigr) \\frac{L M_h}{p n}
           \\le \\Bigl(2 - \\frac{p-1}{n}\\Bigr) L M_h .

This module provides:

* :func:`balance_workloads` — the redistribution algorithm: given the KV
  lengths (in slices) each device currently attends to, decide how many KV
  slices each overloaded device hands to each underloaded one (Figure 8);
* :class:`ExchangePlan` / :class:`ExchangeTransfer` — the resulting plan, with
  per-device balanced workloads and transfer volumes;
* :func:`exchange_volume_per_microbatch` and
  :func:`exchange_volume_bound` — the exact Eq. 2 accounting and its upper
  bound, used by the cost models and checked against each other in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from ..model.config import ModelConfig
from ..constants import DType

__all__ = [
    "ExchangeTransfer",
    "ExchangePlan",
    "balance_workloads",
    "concurrent_kv_slices",
    "exchange_volume_per_microbatch",
    "exchange_volume_bound",
    "embedding_bytes_per_slice",
]


@dataclass(frozen=True)
class ExchangeTransfer:
    """One query/KV hand-off between a pair of devices.

    ``kv_slices`` key/value slices of the ``source`` device's cache are
    attended *on the target* against the source's current query slice; the
    partial output travels back to the source where it is merged via online
    softmax.  Query and output always travel with the transfer (one slice
    each); only the KV share varies.
    """

    source: int
    target: int
    kv_slices: float

    def __post_init__(self) -> None:
        if self.source < 0 or self.target < 0:
            raise ValueError("device indices must be non-negative")
        if self.source == self.target:
            raise ValueError("a transfer needs two distinct devices")
        if self.kv_slices <= 0:
            raise ValueError("kv_slices must be positive")


@dataclass
class ExchangePlan:
    """Workload redistribution decided for one pipeline instant.

    Attributes
    ----------
    original:
        Per-device attention workload before redistribution, in units of
        attended KV slices.
    balanced:
        Per-device workload after redistribution.
    transfers:
        The individual hand-offs realising the move from ``original`` to
        ``balanced``.
    """

    original: List[float]
    balanced: List[float]
    transfers: List[ExchangeTransfer] = field(default_factory=list)

    @property
    def num_devices(self) -> int:
        return len(self.original)

    @property
    def max_imbalance_before(self) -> float:
        if not self.original:
            return 0.0
        return max(self.original) - min(self.original)

    @property
    def max_imbalance_after(self) -> float:
        if not self.balanced:
            return 0.0
        return max(self.balanced) - min(self.balanced)

    def transferred_kv_slices(self) -> float:
        """Total KV slices moved by the plan (sum over transfers)."""
        return sum(t.kv_slices for t in self.transfers)

    def transfers_from(self, device: int) -> List[ExchangeTransfer]:
        return [t for t in self.transfers if t.source == device]

    def transfers_to(self, device: int) -> List[ExchangeTransfer]:
        return [t for t in self.transfers if t.target == device]


def concurrent_kv_slices(num_devices: int, phase_offset: int, num_slices: int) -> List[int]:
    """KV lengths (in slices) concurrently processed across the pipeline.

    At a steady-state instant the devices work on consecutive slices of the
    sequence: device ``p-1`` (the deepest) is on the earliest slice, device 0
    on the latest (Figure 7).  ``phase_offset`` selects the instant: the
    device processing the latest slice attends to ``phase_offset + p`` slices
    (capped at ``num_slices``), the next one slice fewer, and so on, wrapping
    to the start of the next microbatch at the juncture — which is where the
    imbalance is worst (up to ``n - 1`` slices, Section 4.2.1).
    """
    if num_devices < 1:
        raise ValueError("num_devices must be >= 1")
    if num_slices < num_devices:
        raise ValueError("num_slices must be at least num_devices")
    if phase_offset < 0:
        raise ValueError("phase_offset must be non-negative")
    lengths = []
    for rank in range(num_devices):
        # Device `rank` lags the head of the pipeline by `rank` slices.
        position = phase_offset + num_devices - rank
        wrapped = (position - 1) % num_slices + 1
        lengths.append(wrapped)
    return lengths


def balance_workloads(workloads: Sequence[float]) -> ExchangePlan:
    """Redistribute attention workloads so that every device holds ~the mean.

    The algorithm is the natural greedy matching the paper sketches in
    Figure 8: sort devices by load, pair the most overloaded with the most
    underloaded, and move ``min(surplus, deficit)`` KV slices between them;
    repeat until every device is within one slice of the mean.  Because the
    workload unit is "slices of key/value attended", the resulting plan's
    ``balanced`` loads differ by at most one slice, matching Section 4.2.2
    ("The difference between them is at most one slice of key-value").
    """
    loads = [float(w) for w in workloads]
    if not loads:
        return ExchangePlan(original=[], balanced=[])
    if any(w < 0 for w in loads):
        raise ValueError("workloads must be non-negative")
    mean = sum(loads) / len(loads)
    balanced = list(loads)
    transfers: List[ExchangeTransfer] = []

    # Iteratively move surplus to deficit.  The loop terminates because every
    # step strictly reduces the total absolute deviation from the mean.
    for _ in range(4 * len(loads) * len(loads)):
        surplus_device = max(range(len(balanced)), key=lambda d: balanced[d])
        deficit_device = min(range(len(balanced)), key=lambda d: balanced[d])
        surplus = balanced[surplus_device] - mean
        deficit = mean - balanced[deficit_device]
        move = min(surplus, deficit)
        if move <= 1e-12 or balanced[surplus_device] - balanced[deficit_device] <= 1.0 + 1e-12:
            break
        transfers.append(
            ExchangeTransfer(source=surplus_device, target=deficit_device, kv_slices=move)
        )
        balanced[surplus_device] -= move
        balanced[deficit_device] += move
    return ExchangePlan(original=loads, balanced=balanced, transfers=transfers)


def embedding_bytes_per_slice(
    model: ModelConfig,
    sequence_length: int,
    num_slices: int,
    pipeline_parallel_size: int,
    tensor_parallel_size: int = 1,
    dtype: DType = DType.BF16,
) -> float:
    """Bytes of one slice of one embedding-sized tensor on one device.

    The paper's ``M_h`` is the size of one embedding tensor for the whole
    sequence (``s * h`` elements); one slice of it held by one pipeline device
    spans the ``L/p`` local layers, i.e. ``(L/p) * M_h / n`` as used in the
    Eq. 2 derivation.  Tensor parallelism (with SP) shards it further.
    """
    if num_slices < 1 or pipeline_parallel_size < 1:
        raise ValueError("num_slices and pipeline_parallel_size must be >= 1")
    m_h = sequence_length * model.hidden_size * dtype.bytes / tensor_parallel_size
    layers_per_device = model.num_layers / pipeline_parallel_size
    return layers_per_device * m_h / num_slices


def exchange_volume_per_microbatch(
    model: ModelConfig,
    sequence_length: int,
    num_slices: int,
    pipeline_parallel_size: int,
    tensor_parallel_size: int = 1,
    dtype: DType = DType.BF16,
) -> float:
    """Exact exchanged bytes per microbatch per device (Eq. 2, left side).

    The exchanged context per microbatch per device counts

    * one slice of query plus one slice of output for each of the ``n``
      passes (``2 n`` slice-tensors),
    * ``⌊(p-1)/2⌋`` slices of key plus value for each of the ``n - p + 1``
      passes away from a microbatch juncture, and
    * ``⌊(n-1)/2⌋`` slices of key plus value for each of the ``p - 1`` passes
      at the juncture,

    each slice-tensor being ``(L/p) · M_h / n`` bytes on one device.
    """
    p = pipeline_parallel_size
    n = num_slices
    if n < p:
        raise ValueError("num_slices must be at least the pipeline size")
    if p == 1:
        # A single pipeline device never exchanges context with anyone.
        return 0.0
    slice_bytes = embedding_bytes_per_slice(
        model,
        sequence_length,
        num_slices,
        pipeline_parallel_size,
        tensor_parallel_size,
        dtype,
    )
    q_and_o = 2 * n
    kv_steady = 2 * (n - p + 1) * ((p - 1) // 2)
    kv_juncture = 2 * (p - 1) * ((n - 1) // 2)
    return (q_and_o + kv_steady + kv_juncture) * slice_bytes


def exchange_volume_bound(
    model: ModelConfig,
    sequence_length: int,
    num_slices: int,
    pipeline_parallel_size: int,
    tensor_parallel_size: int = 1,
    dtype: DType = DType.BF16,
) -> float:
    """Upper bound of Eq. 2: ``(2 - (p-1)/n) · L · M_h`` bytes per device.

    Note the ``p`` in the per-slice size ``(L/p)(M_h/n)`` cancels against the
    ``≈ p (2n - p + 1)`` slice-tensors exchanged, so the bound is independent
    of the pipeline size — the "virtually independent from the PP size and
    number of slices" observation of Section 4.2.3.
    """
    p = pipeline_parallel_size
    n = num_slices
    if n < p:
        raise ValueError("num_slices must be at least the pipeline size")
    m_h = sequence_length * model.hidden_size * dtype.bytes / tensor_parallel_size
    return (2.0 - (p - 1) / n) * model.num_layers * m_h
