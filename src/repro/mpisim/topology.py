"""Rank-to-node topology.

The paper's experiments place a fixed number of MPI ranks per node (one per
core: 32 on Cori, 24 on Edison, 16 on Titan and AWS) and scale the number of
nodes from 1 to 32.  The topology object captures that mapping so the network
cost model can charge intra-node and inter-node traffic differently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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

    def node_of(self, rank: int) -> int:
        """Node index hosting *rank* (ranks are packed onto nodes in blocks)."""
        if not (0 <= rank < self.n_ranks):
            raise ValueError(f"rank {rank} out of range [0, {self.n_ranks})")
        return rank // self.ranks_per_node

    def ranks_on_node(self, node: int) -> range:
        """The ranks placed on *node*."""
        if not (0 <= node < self.n_nodes):
            raise ValueError(f"node {node} out of range [0, {self.n_nodes})")
        start = node * self.ranks_per_node
        return range(start, start + self.ranks_per_node)

    def same_node(self, rank_a: int, rank_b: int) -> bool:
        """True if both ranks live on the same node."""
        return self.node_of(rank_a) == self.node_of(rank_b)

    def internode_mask(self) -> np.ndarray:
        """Boolean (n_ranks, n_ranks) matrix: True where traffic crosses nodes."""
        nodes = np.arange(self.n_ranks) // self.ranks_per_node
        return nodes[:, None] != nodes[None, :]

    @classmethod
    def single_node(cls, ranks: int) -> "Topology":
        """Convenience constructor for a one-node run with *ranks* ranks."""
        return cls(n_nodes=1, ranks_per_node=ranks)
