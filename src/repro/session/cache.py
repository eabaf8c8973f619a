"""The artifact caches and their hit/miss/eviction counters.

The serving layer amortizes its artifacts across requests, each kind in
its own bounded cache (so a long-lived serving process cannot grow
without limit):

* materialized bag relations, keyed by the *decomposition* (not the
  order) — shared by every order inducing the same disruption-free
  decomposition;
* counting forests, keyed by decomposition + projected set;
* assembled :class:`~repro.core.access.DirectAccess` structures, keyed
  by the exact (query, order, projected) request.

:class:`CostAwareCache` is the one cache: the
:class:`~repro.session.artifacts.ArtifactStore` keeps its preprocessing
artifacts in it.  Each entry carries its *rebuild cost* — the
decomposition exponent ``ι`` of Theorem 44, known exactly before any
data is touched — and eviction sacrifices the cheapest-to-rebuild
entry first (recency only breaks ties).  Evicting an ``O(|D|^2)``
counting forest to keep three ``O(|D|)`` ones is how a plain LRU
thrashes a serving workload; the exponent is a better oracle than
recency because the paper makes it a *certainty*, not a heuristic.

:class:`CacheStats` counts hits/misses/evictions per cache; next to the
store's tuple-level work counters (bag materializations, forest builds,
:class:`~repro.session.artifacts.StoreStats`) they let tests and
operators verify that a warm request did zero preprocessing.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass


@dataclass
class CacheStats:
    """Hit/miss/eviction counters of one :class:`CostAwareCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


class CostAwareCache:
    """A bounded cache that evicts the cheapest-to-rebuild entry first.

    Each entry carries a ``cost`` — for preprocessing artifacts, the
    decomposition exponent ``ι``, so re-deriving an evicted entry costs
    ``O(|D|^cost)``.  Eviction is the classic *GreedyDual* policy: an
    entry's credit is ``clock + cost`` at insert/hit time, the victim
    is the entry with the lowest credit (ties to the least recently
    touched), and the clock advances to the victim's credit.  So an
    expensive decomposition outlives many cheap ones, but ages out
    eventually instead of squatting forever, and with uniform costs the
    policy degenerates to exact LRU.

        >>> from fractions import Fraction
        >>> stats = CacheStats()
        >>> cache = CostAwareCache(2, stats)
        >>> cache.put("path", "forest-1", cost=1)
        >>> cache.put("triangle", "forest-2", cost=Fraction(3, 2))
        >>> cache.put("star", "forest-3", cost=1)   # overflow
        >>> "triangle" in cache    # the ι=3/2 artifact survives ...
        True
        >>> "path" in cache        # ... the cheap ι=1 one is evicted
        False
        >>> stats.evictions
        1

    The class itself is not locked; the owning
    :class:`~repro.session.artifacts.ArtifactStore` serializes access
    behind its registry lock.
    """

    def __init__(
        self, capacity: int | None, stats: CacheStats, on_evict=None
    ):
        if capacity is not None and capacity < 0:
            raise ValueError(f"negative cache capacity {capacity}")  # repro: noqa[EXC-TAXONOMY] -- constructor contract; callers validate config at startup
        self.capacity = capacity
        self.stats = stats
        # Called with each evicted key, so an owner keeping an index
        # over the entries (the store's request map) can follow.
        self._on_evict = on_evict
        self._entries: OrderedDict = OrderedDict()
        # The clock at each entry's last insert or hit; its credit is
        # that plus its cost, summed only when choosing a victim so a
        # hit stays a plain store.
        self._touched: dict = {}
        self._costs: dict = {}
        self._clock = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key) -> bool:
        """Membership *without* touching recency or hit/miss counters
        (used by the cache-aware planner to peek at warm orders)."""
        return key in self._entries

    def peek(self, key):
        """The cached value without counters or recency (or ``None``)."""
        return self._entries.get(key)

    def keys(self) -> list:
        """A snapshot of the cached keys (insertion/recency order)."""
        return list(self._entries)

    def pop(self, key):
        """Remove ``key`` and return ``(value, cost)``.

        Not an eviction (no counters move): this is the store's
        carry-forward surgery when a delta re-keys surviving artifacts
        to the new database version.  ``KeyError`` when absent.
        """
        value = self._entries.pop(key)
        self._touched.pop(key, None)
        cost = self._costs.pop(key, 0)
        return value, cost

    def get(self, key):
        """The cached value, or ``None`` on a miss (values are never
        ``None``); counts a hit or a miss."""
        try:
            value = self._entries[key]
        except KeyError:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        # A hit renews the entry's credit at the current clock: recently
        # useful entries stay ahead of the aging front.
        self._touched[key] = self._clock
        self.stats.hits += 1
        return value

    def put(self, key, value, cost=0) -> None:
        if self.capacity == 0:
            return
        self._entries[key] = value
        self._entries.move_to_end(key)
        self._costs[key] = cost
        self._touched[key] = self._clock
        if self.capacity is not None:
            while len(self._entries) > self.capacity:
                self._evict_one()

    def _credit(self, key):
        return self._touched[key] + self._costs[key]

    def _evict_one(self) -> None:
        # Victim: minimum credit; ties go to the least recently used
        # (OrderedDict iterates oldest first, so the first minimum wins).
        victim = min(self._entries, key=self._credit)
        self._clock = self._credit(victim)
        del self._entries[victim]
        del self._touched[victim]
        del self._costs[victim]
        self.stats.evictions += 1
        if self._on_evict is not None:
            self._on_evict(victim)

    def clear(self) -> None:
        self._entries.clear()
        self._touched.clear()
        self._costs.clear()
        self._clock = 0
