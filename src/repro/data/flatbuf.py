"""Flat-buffer layouts for the shared-memory artifact plane.

The two expensive serving artifacts — an :class:`EncodedDatabase` and a
:class:`~repro.core.access.CountingForest` — are already dictionary-
encoded ``int64`` columns and cumsum arrays.  This module flattens each
into (manifest, named ``int64``/``uint8`` buffers) pairs and rebuilds
them from buffer views, so a primary process can publish one physical
copy into named ``multiprocessing.shared_memory`` segments and every
worker can attach numpy views zero-copy (:mod:`repro.server.shm`).

Manifests are small picklable dataclasses: they travel over the
supervisor's control pipes, while the bulk arrays never leave shared
memory.  The only pickled payload is the dictionary's sorted value list
(arbitrary Python constants; decoded once per worker, codes stay
shared).

Both directions are *partial by design*: databases without a shared
encoding (no numpy, non-orderable domain) and forests whose indexes
are not CSR-mirrored int64 (python-engine bags, object-dtype weights,
a foreign dictionary) return ``None``, and callers fall back to
pickling the artifact itself — correctness never depends on the fast
plane.
"""

from __future__ import annotations

import pickle
from collections.abc import Mapping
from dataclasses import dataclass

try:  # gated dependency, same policy as repro.data.columnar
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via numpy_available()
    _np = None

from repro.data.columnar import ColumnarTable, Dictionary
from repro.data.database import EncodedDatabase
from repro.data.relation import Relation

#: Buffer names are ``<prefix>/<field>``; the separator never appears
#: in relation names (enforced below) so manifests stay unambiguous.
_SEP = "/"

#: Per-bag array fields of a :class:`_BagAux`, in manifest order.
_AUX_FIELDS = (
    "group_codes",
    "offsets",
    "values_flat",
    "weights_flat",
    "cum_before",
    "totals",
)


@dataclass(frozen=True)
class ArraySpec:
    """Shape/dtype of one named buffer (enough to re-view its bytes)."""

    name: str
    shape: tuple
    dtype: str

    @property
    def nbytes(self) -> int:
        np = _np
        count = 1
        for dim in self.shape:
            count *= dim
        return count * np.dtype(self.dtype).itemsize


@dataclass(frozen=True)
class DatabaseManifest:
    """Layout of one :class:`EncodedDatabase` as flat buffers.

    ``relations`` maps relation name to the spec of its ``(n, arity)``
    code matrix; ``dictionary_blob`` is the pickled sorted value list
    (uint8); ``arities`` survives empty relations whose shape alone
    would do, but keeps rebuild independent of numpy shape quirks.
    """

    relations: tuple[tuple[str, ArraySpec], ...]
    arities: tuple[tuple[str, int], ...]
    dictionary_blob: ArraySpec

    def specs(self) -> list[ArraySpec]:
        return [spec for _name, spec in self.relations] + [
            self.dictionary_blob
        ]


@dataclass(frozen=True)
class ForestManifest:
    """Layout of one :class:`CountingForest` as flat buffers.

    ``bags`` maps bag variable to its six :class:`_BagAux` array specs
    (manifest order = ``_AUX_FIELDS``).  ``key`` is the forest's
    provenance tuple; the rebuild stamps it (and the worker's local
    database object) onto the reconstructed forest so
    ``DirectAccess``'s validation keeps working across processes.
    """

    bags: tuple[tuple[str, tuple[ArraySpec, ...]], ...]
    key: tuple

    def specs(self) -> list[ArraySpec]:
        return [
            spec for _var, specs in self.bags for spec in specs
        ]


def _spec(name: str, array) -> ArraySpec:
    return ArraySpec(
        name=name,
        shape=tuple(int(d) for d in array.shape),
        dtype=str(array.dtype),
    )


def database_to_buffers(database):
    """Flatten an encoded database into ``(manifest, buffers)``.

    Returns ``None`` when the database has no shared encoding or any
    relation lacks a mirror over it (then the caller ships the
    database by pickle instead).  ``buffers`` maps each spec name to
    the *existing* array — no copy is made here; the shm plane copies
    exactly once, into the published segment.
    """
    if _np is None or not isinstance(database, EncodedDatabase):
        return None
    dictionary = database.shared_dictionary
    if dictionary is None:
        return None
    relations = database.relations
    specs: list[tuple[str, ArraySpec]] = []
    arities: list[tuple[str, int]] = []
    buffers: dict[str, _np.ndarray] = {}
    for name in sorted(relations):
        if _SEP in name:
            return None
        mirror = relations[name]._columnar
        if mirror is None or mirror.dictionary is not dictionary:
            return None
        codes = _np.ascontiguousarray(mirror.codes, dtype=_np.int64)
        spec = _spec(f"rel{_SEP}{name}", codes)
        specs.append((name, spec))
        arities.append((name, relations[name].arity))
        buffers[spec.name] = codes
    blob = _np.frombuffer(
        pickle.dumps(dictionary.values, protocol=pickle.HIGHEST_PROTOCOL),
        dtype=_np.uint8,
    )
    blob_spec = _spec(f"dict{_SEP}values", blob)
    buffers[blob_spec.name] = blob
    manifest = DatabaseManifest(
        relations=tuple(specs),
        arities=tuple(arities),
        dictionary_blob=blob_spec,
    )
    return manifest, buffers


def database_from_buffers(
    manifest: DatabaseManifest, views: Mapping[str, "_np.ndarray"]
) -> EncodedDatabase:
    """Rebuild an :class:`EncodedDatabase` over attached buffer views.

    ``views`` maps spec names to flat uint8/int64 views over shared
    memory (or any buffer); code matrices are re-viewed zero-copy.
    The dictionary's Python value list is process-local (decoded from
    the blob); only the code matrices stay shared.  Tuple sets are
    lazy (:meth:`Relation.from_columnar`), so attaching a database
    costs O(dictionary) work, not O(rows).
    """
    values = pickle.loads(
        _as_array(views[manifest.dictionary_blob.name], manifest.dictionary_blob)
        .tobytes()
    )
    dictionary = Dictionary.from_sorted(values)
    relations: dict[str, Relation] = {}
    arity_of = dict(manifest.arities)
    for name, spec in manifest.relations:
        codes = _as_array(views[spec.name], spec)
        mirror = ColumnarTable(codes, dictionary)
        rel = Relation.from_columnar(mirror)
        rel._arity = arity_of[name]
        relations[name] = rel
    out = object.__new__(EncodedDatabase)
    out._relations = relations
    out.shared_dictionary = dictionary
    out.encoded_incrementally = False
    out.rows_encoded = 0
    return out


def _as_array(view, spec: ArraySpec):
    """Re-view a raw buffer (or array) as ``spec``'s shape/dtype.

    Attached views are marked read-only: shared segments hold the one
    physical copy for every process, and the engines never write into
    published artifacts — flipping the flag turns any future violation
    into a loud error instead of cross-process corruption.
    """
    flat = _np.frombuffer(view, dtype=_np.uint8)[: spec.nbytes]
    array = flat.view(spec.dtype).reshape(spec.shape)
    if array.flags.writeable:
        array.flags.writeable = False
    return array


def forest_to_buffers(forest, shared_dictionary):
    """Flatten a counting forest into ``(manifest, buffers)``.

    Only CSR-mirrored forests qualify: every bag must carry a
    :class:`_BagAux` whose dictionary *is* ``shared_dictionary``
    (object identity — the codes must mean the same values in every
    process) with int64 weights.  Python-engine bags, object-dtype
    (big-int) weights, and foreign dictionaries return ``None``; the
    worker then builds that forest locally from the shared database.
    """
    if _np is None or shared_dictionary is None:
        return None
    bags: list[tuple[str, tuple[ArraySpec, ...]]] = []
    buffers: dict[str, _np.ndarray] = {}
    for position, (variable, index) in enumerate(forest.indexes.items()):
        aux = getattr(index, "aux", None)
        if aux is None or aux.dictionary is not shared_dictionary:
            return None
        if aux.weights_flat.dtype == _np.dtype(object):
            return None
        specs = []
        for field in _AUX_FIELDS:
            array = _np.ascontiguousarray(
                getattr(aux, field), dtype=_np.int64
            )
            spec = _spec(f"bag{_SEP}{position}{_SEP}{field}", array)
            specs.append(spec)
            buffers[spec.name] = array
        bags.append((variable, tuple(specs)))
    return ForestManifest(bags=tuple(bags), key=forest.key), buffers


def forest_from_buffers(
    manifest: ForestManifest,
    views: Mapping[str, "_np.ndarray"],
    database: EncodedDatabase,
):
    """Rebuild a :class:`CountingForest` over attached buffer views.

    ``database`` must be the worker's local rebuild of the same
    published database version: its shared dictionary decodes the
    codes, and the forest is stamped with *that* object so
    ``DirectAccess``'s identity validation accepts the pair.
    """
    from repro.core.access import CountingForest
    from repro.engine.numpy_engine import _BagAux, bag_index_from_aux

    dictionary = database.shared_dictionary
    indexes = {}
    for variable, specs in manifest.bags:
        arrays = [_as_array(views[spec.name], spec) for spec in specs]
        aux = _BagAux(dictionary, *arrays)
        indexes[variable] = bag_index_from_aux(aux)
    return CountingForest(
        indexes=indexes, key=manifest.key, database=database
    )
