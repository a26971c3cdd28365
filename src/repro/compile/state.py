"""Declarative state layouts: lowering per-peer dicts to numpy arrays.

Every mutex algorithm declares its hot state through a
:class:`StateLayout` class attribute (``compiled_state``): which
instance attributes are plain scalars (tree pointers, ring positions,
token flags) and which are per-peer maps (Suzuki-Kasami's ``RN``/``LN``).
The compiled backend consumes the declaration to

* lower each per-peer map into a contiguous ``int64`` array indexed by
  ring position (:func:`peer_array`), replacing per-message dict
  hashing with array indexing inside the generated fast handlers;
* build a numpy **structured dtype** describing a peer's full hot state
  (:func:`structured_dtype`) and snapshot it (:func:`capture_state`),
  which the equivalence suite uses to compare interpreted and compiled
  peers field by field after identical schedules.

Array cells hold numpy integers; anything that flows back out — into a
message payload, a digest, a ``repr`` — must be a plain ``int`` (numpy
2.x reprs like ``np.int64(5)`` would corrupt the golden digests).  The
:class:`ArrayMap` view enforces that at the boundary: reads convert with
``int()``, so even inherited interpreted code that still talks dict
(``peer.rn[j]``) observes exactly the values it would have seen.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

__all__ = ["StateLayout", "ArrayMap", "layout_for", "peer_array",
           "structured_dtype", "capture_state"]


@dataclass(frozen=True)
class StateLayout:
    """What a peer class keeps where (declared as ``compiled_state``).

    ``scalars`` are instance attributes holding one integer-like value
    (``None`` allowed, encoded as -1 in snapshots); ``peer_arrays`` are
    attributes holding a ``{peer id: int}`` map with exactly one entry
    per member of ``peer.peers`` (or ``None`` while not applicable).
    """

    scalars: Tuple[str, ...] = ()
    peer_arrays: Tuple[str, ...] = ()


class ArrayMap:
    """A dict-compatible view over a per-peer ``int64`` array.

    Fast peers keep their state in arrays but inherit interpreted
    methods (and host external readers) that still index by peer id.
    This view makes both worlds see one store: writes land in the array
    the fast handlers read, and every read crosses the boundary as a
    plain ``int``.
    """

    __slots__ = ("_arr", "_index")

    def __init__(self, arr: "np.ndarray", index: Dict[int, int]) -> None:
        self._arr = arr
        self._index = index

    def __getitem__(self, key: int) -> int:
        return int(self._arr[self._index[key]])

    def __setitem__(self, key: int, value: int) -> None:
        self._arr[self._index[key]] = value

    def __contains__(self, key: object) -> bool:
        return key in self._index

    def __iter__(self) -> Iterator[int]:
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)

    def keys(self):
        return self._index.keys()

    def items(self) -> List[Tuple[int, int]]:
        return [(p, int(self._arr[i])) for p, i in self._index.items()]

    def values(self) -> List[int]:
        return [int(v) for v in self._arr]

    def get(self, key: int, default: Any = None) -> Any:
        i = self._index.get(key)
        return default if i is None else int(self._arr[i])

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (dict, ArrayMap)):
            return dict(self.items()) == dict(
                other.items() if isinstance(other, ArrayMap) else other.items()
            )
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return repr(dict(self.items()))


def layout_for(cls: type) -> Optional[StateLayout]:
    """The :class:`StateLayout` declared by ``cls`` (or ``None``).

    Algorithm classes declare ``compiled_state`` as a plain mapping
    (``{"scalars": (...), "peer_arrays": (...)}``) so the mutex layer
    never has to import the compile package; this accessor normalises
    either form.
    """
    spec = getattr(cls, "compiled_state", None)
    if spec is None:
        return None
    if isinstance(spec, StateLayout):
        return spec
    return StateLayout(
        scalars=tuple(spec.get("scalars", ())),
        peer_arrays=tuple(spec.get("peer_arrays", ())),
    )


def peer_array(peer: Any, attr: str) -> Optional["np.ndarray"]:
    """Lower ``peer.<attr>`` (a per-peer map, or ``None``) to ``int64``.

    Cells follow ``peer.peers`` order — the same insertion order every
    interpreted dict uses — so reconstructing a payload dict from the
    array reproduces the interpreted ``repr`` byte for byte.
    """
    mapping = getattr(peer, attr)
    if mapping is None:
        return None
    peers = peer.peers
    if set(mapping) != set(peers):
        raise ValueError(
            f"{peer.name}.{attr} keys {sorted(mapping)} != peer set "
            f"{sorted(peers)}; cannot lower to an array"
        )
    return np.fromiter(
        (mapping[p] for p in peers), dtype=np.int64, count=len(peers)
    )


def structured_dtype(layout: StateLayout, n_peers: int) -> "np.dtype":
    """The structured dtype of one peer's hot state under ``layout``."""
    fields: List[Tuple[str, Any]] = [(name, np.int64) for name in layout.scalars]
    fields.extend(
        (name, np.int64, (n_peers,)) for name in layout.peer_arrays
    )
    return np.dtype(fields)


def _encode_scalar(value: Any) -> int:
    if value is None:
        return -1
    return int(value)


def capture_state(peer: Any) -> Optional["np.ndarray"]:
    """Snapshot a peer's declared hot state as one structured record.

    Returns ``None`` for classes that declare no ``compiled_state``.
    Works identically on interpreted and fast peers (dict state is
    read through the same declaration), so the equivalence suite can
    ``assert capture_state(a) == capture_state(b)`` across backends.
    Missing per-peer maps (a Suzuki peer not holding the token) encode
    as all ``-1``; ``None`` scalars encode as ``-1``.
    """
    layout = layout_for(type(peer))
    if layout is None:
        return None
    n = len(peer.peers)
    record = np.zeros((), dtype=structured_dtype(layout, n))
    for name in layout.scalars:
        record[name] = _encode_scalar(getattr(peer, name))
    for name in layout.peer_arrays:
        arr = peer_array(peer, name)
        record[name] = -1 if arr is None else arr
    return record
