"""The direct fingerprint encoder is byte-identical to the reference.

``repro.cache.fingerprint`` emits canonical JSON text without building
the ``canonicalize()`` tree and memoizes the text of frozen configs.
The contract is that it hashes exactly the bytes of
``json.dumps(canonicalize(list(parts)), sort_keys=True,
separators=(",", ":"))``; any drift would silently orphan every cache
entry and service fingerprint.  These properties drive it over the value
shapes ``canonicalize`` distinguishes.
"""

import dataclasses
import enum
import hashlib
import json
from typing import Any

from hypothesis import given, settings, strategies as st

from repro.cache import canonicalize, fingerprint


def reference(*parts: Any) -> str:
    blob = json.dumps(
        canonicalize(list(parts)), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Mode(str, enum.Enum):
    FAST = "fast"
    SAFE = "safe"


class Color(enum.Enum):
    RED = "red"
    BLUE = 2.5


class Ratio(float, enum.Enum):
    HALF = 0.5


@dataclasses.dataclass(frozen=True)
class Frozen:
    a: Any
    b: Any = None


@dataclasses.dataclass
class Mutable:
    a: Any
    b: Any = None


SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, float("nan"), float("inf"), -float("inf"), 1e300]),
    st.text(max_size=6),
    st.binary(max_size=6),
    st.sampled_from([*Level, *Mode, *Color, *Ratio]),
)


def _nested(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(
            st.one_of(st.text(max_size=3), st.integers(), st.booleans(), st.none()),
            children,
            max_size=4,
        ),
        st.sets(SCALARS, max_size=4),
        st.frozensets(SCALARS, max_size=4),
        st.builds(Frozen, children, children),
        st.builds(Mutable, children, children),
    )


VALUES = st.recursive(SCALARS, _nested, max_leaves=16)


def _outcome(fn, parts):
    """The digest, or the exception type both encoders must agree on
    (e.g. dict keys whose ``str`` collides, then unorderable values)."""
    try:
        return fn(*parts)
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(st.lists(VALUES, max_size=5))
def test_fingerprint_matches_reference_encoding(parts):
    want = _outcome(reference, parts)
    assert _outcome(fingerprint, parts) == want
    # Again, now that frozen dataclasses among the parts are memoized.
    assert _outcome(fingerprint, parts) == want
