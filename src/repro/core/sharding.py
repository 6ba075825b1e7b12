"""Two names the frozen benchmark harness (``bench/``) still resolves.

The stream has one accountant, :class:`~repro.core.accountant.BlockAccountant`.
``bench/workloads.py`` still asks :func:`sharded_accountant_factory` for a
sharded one when it sets up ``contention``, and ``bench/layers.py`` still
times ``ShardedBlockAccountant.charge_many`` in its ``accountant.commit``
layer.  Both resolve to the single accountant here; delete this module
when the harness is next allowed to change.
"""

from __future__ import annotations

from repro.core.accountant import BlockAccountant
from repro.errors import InvalidBudgetError

__all__ = ["ShardedBlockAccountant", "sharded_accountant_factory"]

ShardedBlockAccountant = BlockAccountant


def sharded_accountant_factory(n_shards: int) -> type:
    """The :class:`BlockAccountant` class, for any ``n_shards >= 1``
    (checked, then ignored: there is nothing to shard)."""
    if n_shards < 1:
        raise InvalidBudgetError(f"n_shards must be >= 1, got {n_shards}")
    return BlockAccountant
