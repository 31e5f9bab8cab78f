"""Property tests: registry merge is associative and order-insensitive.

This is the contract the sweep engine's metrics pipeline rests on --
worker payloads can be folded in any grouping (serial, sharded,
tree-reduced) and the result is byte-identical.  In-repo
instrumentation observes only integers, so histogram sums stay exact
Python ints and equality below is exact, not approximate (the module
docstring of :mod:`repro.obs.metrics` documents the float caveat).
"""

import json

from hypothesis import given
from hypothesis import strategies as st

from repro.obs.metrics import MetricsRegistry

_NAMES = st.sampled_from(["alpha", "beta", "gamma"])
_VALUES = st.integers(min_value=0, max_value=2**48)

_OP = st.one_of(
    st.tuples(st.just("counter"), _NAMES, st.integers(min_value=-(2**32), max_value=2**32)),
    st.tuples(st.just("gauge"), _NAMES, _VALUES),
    st.tuples(st.just("observe"), _NAMES, _VALUES),
)
_OPS = st.lists(_OP, max_size=30)


def _build(ops) -> MetricsRegistry:
    reg = MetricsRegistry()
    for kind, name, value in ops:
        if kind == "counter":
            reg.counter_add(name, value)
        elif kind == "gauge":
            reg.gauges[name] = max(reg.gauges.get(name, value), value)
        else:
            reg.observe(name, value)
    return reg


def _fold(payloads) -> MetricsRegistry:
    reg = MetricsRegistry()
    for payload in payloads:
        reg.merge_payload(payload)
    return reg


def _canon(reg: MetricsRegistry) -> str:
    return json.dumps(reg.to_dict(deterministic_only=True), sort_keys=True)


@given(_OPS, _OPS, _OPS)
def test_merge_is_associative(ops_a, ops_b, ops_c):
    """(A + B) + C == A + (B + C), byte for byte."""
    left = _build(ops_a).merge(_build(ops_b)).merge(_build(ops_c))
    right = _build(ops_a).merge(_build(ops_b).merge(_build(ops_c)))
    assert _canon(left) == _canon(right)


@given(st.lists(_OPS, max_size=5), st.randoms(use_true_random=False))
def test_merge_is_order_insensitive(op_lists, rng):
    """Folding worker payloads in any order yields identical bytes."""
    payloads = [_build(ops).to_dict(deterministic_only=True) for ops in op_lists]
    shuffled = list(payloads)
    rng.shuffle(shuffled)
    in_order = _fold(payloads)
    permuted = _fold(shuffled)
    assert _canon(in_order) == _canon(permuted)


@given(_OPS)
def test_payload_round_trips_exactly(ops):
    """to_dict -> JSON -> from_dict -> to_dict is the identity."""
    payload = _build(ops).to_dict(deterministic_only=True)
    back = MetricsRegistry.from_dict(json.loads(json.dumps(payload)))
    assert json.dumps(back.to_dict(deterministic_only=True), sort_keys=True) == json.dumps(
        payload, sort_keys=True
    )


@given(_OPS, _OPS)
def test_empty_registry_is_merge_identity(ops_a, ops_b):
    """Merging an empty registry changes nothing (identity element)."""
    base = _build(ops_a).merge(_build(ops_b))
    with_identity = _build(ops_a).merge(MetricsRegistry()).merge(_build(ops_b))
    assert _canon(base) == _canon(with_identity)
