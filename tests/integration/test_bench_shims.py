"""Guard for the layer names the traced benchmark patches.

``perfbench/shims.py`` times the program by replacing module globals and
methods by name.  A rename in ``src/`` would crash ``perfbench/run.py
--trace 1`` and nothing else; this test installs every shim, drives one
small operation through each patched layer and removes the shims again,
so such a rename fails the test suite instead.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"


@pytest.fixture
def shims():
    sys.path.insert(0, str(PERFBENCH))
    try:
        from benchlib import SpanLog
        from shims import Shims

        installed = Shims(SpanLog())
        yield installed
        patched = list(installed._patched)
        installed.remove()
        for owner, attr, original in patched:
            assert getattr(owner, attr) is original, f"{owner}.{attr}"
    finally:
        sys.path.remove(str(PERFBENCH))


def _span_names(shims):
    return {span[2] for span in shims.log.spans}


def test_prep_shims_time_one_shard(shims):
    from repro.dataprep import engine, image_pipeline, jpeg
    from repro.dataprep.engine import ShardSpec
    from repro.datasets.imagenet import synthesize_image

    rng = np.random.default_rng(3)
    blobs = jpeg.encode_batch(
        [synthesize_image(rng, 48, 48, i) for i in range(8)], quality=75
    )
    pipe = image_pipeline(out_height=32, out_width=32)
    shims.install_prep()
    out = engine.prepare_shard(
        pipe, lambda start, count: blobs[start:start + count], 0,
        ShardSpec(0, 0, 8),
    )
    assert out.shape[0] == 8
    assert shims.counts["jpeg.images"] == 8
    assert shims.counts["plan.batches"] == 1
    assert {
        "dataprep.engine.prepare_shard",
        "dataprep.plan.run",
        "dataprep.jpeg.decode",
    } <= _span_names(shims)


def test_core_shims_time_a_sweep(shims, tmp_path):
    from repro import api
    from repro.cache import ResultCache

    request = api.SweepRequest(
        workloads=("Resnet-50",), archs=("trainbox",), scales=(4, 8)
    )
    shims.install_core()
    outcome = api.sweep(request, cache=ResultCache(tmp_path))
    assert len(outcome) == 2
    assert shims.counts["kernel.points"] == 2
    assert {"cache.key", "cache.get", "cache.put"} <= _span_names(shims)


def test_core_and_service_shims_time_every_request_kind(shims):
    from repro import api
    from repro.service import server

    requests = [
        api.SimulationRequest(
            "Resnet-50", "trainbox", 8, engine="des", des_iterations=20
        ),
        api.SweepRequest(
            workloads=("Resnet-50",), archs=("baseline",), scales=(2, 4)
        ),
        api.FaultScheduleRequest(
            "Resnet-50", "trainbox", 8,
            events=(("acc0", 1.0, 2.0),), horizon=3.0,
        ),
    ]
    shims.install_core()
    shims.install_service()
    for request in requests:
        payload = server.execute_request(request)
        assert payload["kind"] == request.kind
    assert shims.counts["des.runs"] == 1
    assert {"service.server.compute", "core.des.run"} <= _span_names(shims)
