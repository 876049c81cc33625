"""Property: the vectorized sweep kernel equals the scalar engine
bit for bit over random grids — including grids that mix in DES points,
which the sweep prices one by one beside the kernel's pass."""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.cache import fingerprint
from repro.core.config import ArchitectureConfig, SyncStrategy
from repro.core.sweeps import SweepPoint, run_sweep
from repro.workloads.registry import EXTENSION_WORKLOADS, TABLE_I

WORKLOADS = list(TABLE_I.values()) + list(EXTENSION_WORKLOADS.values())
FAMILIES = (
    ArchitectureConfig.baseline(),
    ArchitectureConfig.baseline_acc(),
    ArchitectureConfig.baseline_acc_p2p(),
    ArchitectureConfig.baseline_acc_p2p_gen4(),
    ArchitectureConfig.trainbox(prep_pool=False),
    ArchitectureConfig.trainbox(),
)


def _arch(family, sync):
    return dataclasses.replace(
        family, name=f"{family.name}+{sync.value}", sync=sync
    )


# fabric_bandwidth=0.0 is the falsy edge: the scalar engine's
# ``scenario.fabric_bandwidth or hw.accelerator_fabric_bandwidth``
# treats it as "use the default", and the kernel must agree.
points_strategy = st.lists(
    st.builds(
        SweepPoint,
        workload=st.sampled_from(WORKLOADS),
        arch=st.builds(
            _arch,
            st.sampled_from(FAMILIES),
            st.sampled_from(list(SyncStrategy)),
        ),
        scale=st.integers(min_value=1, max_value=300),
        batch_size=st.one_of(st.none(), st.sampled_from([1, 8, 32, 256])),
        accelerator=st.sampled_from(["tpu", "legacy-gpu"]),
        fabric_bandwidth=st.sampled_from([None, 0.0, 25e9, 150e9]),
    ),
    min_size=1,
    max_size=8,
)


def _fingerprints(outcome):
    return [fingerprint(r.to_dict()) for r in outcome.results]


@given(points=points_strategy)
@settings(max_examples=25, deadline=None)
def test_batch_equals_scalar_bit_for_bit(points):
    batched = run_sweep(points, batch=True)
    scalar = run_sweep(points, batch=False)
    assert batched.results == scalar.results
    assert _fingerprints(batched) == _fingerprints(scalar)
    assert batched.batch_points + batched.batch_fallbacks == len(points)
    assert batched.points == scalar.points


des_points_strategy = st.lists(
    st.builds(
        SweepPoint,
        workload=st.sampled_from(WORKLOADS),
        arch=st.sampled_from(FAMILIES),
        scale=st.integers(min_value=1, max_value=16),
        engine=st.just("des"),
        des_iterations=st.just(8),
    ),
    min_size=1,
    max_size=3,
)


@given(
    analytical=points_strategy,
    des=des_points_strategy,
    order=st.randoms(use_true_random=False),
)
@settings(max_examples=10, deadline=None)
def test_mixed_engine_grids_preserve_identity(analytical, des, order):
    """DES points interleaved with analytical ones go through the
    per-point path; the kernel prices every analytical point, and the
    mixed grid still matches the scalar oracle bit for bit."""
    points = analytical + des
    order.shuffle(points)
    batched = run_sweep(points, batch=True)
    scalar = run_sweep(points, batch=False)
    assert batched.results == scalar.results
    assert _fingerprints(batched) == _fingerprints(scalar)
    assert batched.batch_points == len(analytical)
    assert batched.batch_fallbacks == len(des)
    assert all(
        (how == "batch") == (p.engine == "analytical")
        for p, how in zip(points, batched.dispatch)
    )
