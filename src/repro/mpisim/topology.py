"""Rank-to-node topology.

The paper's experiments place a fixed number of MPI ranks per node (one per
core: 32 on Cori, 24 on Edison, 16 on Titan and AWS) and scale the number of
nodes from 1 to 32.  The topology object captures that mapping so the network
cost model can charge intra-node and inter-node traffic differently.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Topology:
    """A node/rank topology: ``n_nodes`` nodes with ``ranks_per_node`` each."""

    n_nodes: int
    ranks_per_node: int

    def __post_init__(self) -> None:
        if self.n_nodes <= 0:
            raise ValueError("n_nodes must be positive")
        if self.ranks_per_node <= 0:
            raise ValueError("ranks_per_node must be positive")

    @property
    def n_ranks(self) -> int:
        """Total number of ranks."""
        return self.n_nodes * self.ranks_per_node

    @classmethod
    def single_node(cls, ranks: int) -> "Topology":
        """Convenience constructor for a one-node run with *ranks* ranks."""
        return cls(n_nodes=1, ranks_per_node=ranks)
