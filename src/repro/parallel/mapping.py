"""Mapping of parallel groups onto cluster ranks.

Megatron-LM's default rank order is used: tensor parallelism varies fastest,
then context, then data, then pipeline.  With TP (and CP) innermost, those
groups stay inside one NVLink domain, while adjacent pipeline stages are
``t*c*d`` ranks apart and therefore usually live on different nodes — which
is exactly the deployment rule of Section 6.1 and what the communication
model relies on when pricing pipeline point-to-point traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..hardware.topology import ClusterTopology
from .config import ParallelConfig

__all__ = ["RankCoordinates", "RankMapper"]


@dataclass(frozen=True)
class RankCoordinates:
    """Position of a global rank in the (tp, cp, dp, pp) grid."""

    tensor_rank: int
    context_rank: int
    data_rank: int
    pipeline_rank: int


class RankMapper:
    """Convert between global ranks and parallel-grid coordinates."""

    def __init__(self, parallel: ParallelConfig):
        self.parallel = parallel

    # ------------------------------------------------------------------
    def coordinates_of(self, global_rank: int) -> RankCoordinates:
        p = self.parallel
        if not 0 <= global_rank < p.world_size:
            raise ValueError(
                f"rank {global_rank} out of range [0, {p.world_size})"
            )
        remainder = global_rank
        tensor_rank = remainder % p.tensor_parallel_size
        remainder //= p.tensor_parallel_size
        context_rank = remainder % p.context_parallel_size
        remainder //= p.context_parallel_size
        data_rank = remainder % p.data_parallel_size
        remainder //= p.data_parallel_size
        pipeline_rank = remainder
        return RankCoordinates(tensor_rank, context_rank, data_rank, pipeline_rank)

    def global_rank_of(self, coords: RankCoordinates) -> int:
        p = self.parallel
        return (
            coords.tensor_rank
            + p.tensor_parallel_size
            * (
                coords.context_rank
                + p.context_parallel_size
                * (coords.data_rank + p.data_parallel_size * coords.pipeline_rank)
            )
        )

    # ------------------------------------------------------------------
    def pipeline_group(self, tensor_rank: int = 0, context_rank: int = 0, data_rank: int = 0) -> List[int]:
        """Global ranks forming one pipeline (one rank per stage)."""
        return [
            self.global_rank_of(
                RankCoordinates(tensor_rank, context_rank, data_rank, pipeline_rank)
            )
            for pipeline_rank in range(self.parallel.pipeline_parallel_size)
        ]

    def tensor_group(self, context_rank: int = 0, data_rank: int = 0, pipeline_rank: int = 0) -> List[int]:
        """Global ranks forming one tensor-parallel group."""
        return [
            self.global_rank_of(
                RankCoordinates(tensor_rank, context_rank, data_rank, pipeline_rank)
            )
            for tensor_rank in range(self.parallel.tensor_parallel_size)
        ]

    def data_group(self, tensor_rank: int = 0, context_rank: int = 0, pipeline_rank: int = 0) -> List[int]:
        """Global ranks forming one data-parallel group."""
        return [
            self.global_rank_of(
                RankCoordinates(tensor_rank, context_rank, data_rank, pipeline_rank)
            )
            for data_rank in range(self.parallel.data_parallel_size)
        ]

    # ------------------------------------------------------------------
    def group_is_intra_node(self, ranks: List[int], cluster: ClusterTopology) -> bool:
        """Whether all ranks of a group share one node."""
        nodes = {cluster.node_of(rank) for rank in ranks}
        return len(nodes) <= 1

    def pipeline_neighbors_intra_node(self, cluster: ClusterTopology) -> bool:
        """Whether adjacent pipeline stages happen to live in the same node."""
        group = self.pipeline_group()
        if len(group) < 2:
            return True
        return all(
            cluster.same_node(a, b) for a, b in zip(group[:-1], group[1:])
        )
