"""In-process tests for the HTTP job service (SimService).

Jobs here are raw sweep *specs* over the module-level cell bodies in
``tests/sweep/_cells.py`` (allowed via ``allow_fn_prefixes``), so the
tests control exactly how long cells take and whether they fail --
the only paper experiment computed is table3, the cheapest one.
"""

import json
import threading
import time
import urllib.request

import pytest

from repro.service import (
    RateLimitedError,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    SimService,
)
from repro.service.server import normalize_payload, result_json

CELLS = "tests.sweep._cells"


def spec_job(name, cells):
    return {"spec": {"name": name, "cells": cells}}


def add_cells(n, prefix="c"):
    return [
        {"key": f"{prefix}{i}", "fn": f"{CELLS}:add", "kwargs": {"a": i, "b": 1}}
        for i in range(n)
    ]


@pytest.fixture
def service(tmp_path):
    """A running service on a free port; yields (service, client)."""
    config = ServiceConfig(
        data_dir=str(tmp_path / "svc"),
        port=0,
        rate=None,
        allow_fn_prefixes=("repro.", "tests."),
        drain_timeout_s=5.0,
    )
    svc = SimService(config)
    host, port = svc.start()
    thread = threading.Thread(target=svc.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient(f"http://{host}:{port}", client_id="pytest")
    yield svc, client
    svc.shutdown()
    thread.join(timeout=5)


class TestNormalizePayload:
    def test_experiment_defaults_fill_in(self):
        assert normalize_payload({"experiment": "fig17"}) == {
            "kind": "experiment", "name": "fig17",
            "seeds": [0], "epochs": 8, "scale": 4,
        }

    def test_defaults_make_submission_idempotent(self):
        a = normalize_payload({"experiment": "fig17"})
        b = normalize_payload({"experiment": "fig17", "seeds": [0], "epochs": 8})
        assert a == b

    @pytest.mark.parametrize("bad", [
        {"experiment": "nope"},
        {"experiment": "fig17", "seeds": []},
        {"experiment": "fig17", "seeds": [0.5]},
        {"experiment": "fig17", "epochs": 0},
        {"spec": {"name": "x"}},
        {"spec": {"name": "x", "cells": [{"key": "a", "fn": "os:system"}]}},
        {"spec": {"name": "x", "cells": [
            {"key": "a", "fn": "repro.x:y"}, {"key": "a", "fn": "repro.x:y"},
        ]}},
        {"experiment": "fig17", "spec": {"name": "x", "cells": []}},
        {},
        [],
    ])
    def test_invalid_payloads_raise(self, bad):
        with pytest.raises(ValueError):
            normalize_payload(bad)

    @pytest.mark.parametrize("key", [
        "../evil", "a/../../evil", "/abs/evil", "a/./b", "a//b",
        "..", "back\\slash", "nul\x00byte",
    ])
    def test_traversal_keys_are_rejected(self, key):
        # Keys become cache filenames; anything that could address a
        # path outside the cache directory must die at validation.
        cells = [{"key": key, "fn": "repro.x:y", "kwargs": {}}]
        with pytest.raises(ValueError, match="relative path"):
            normalize_payload({"spec": {"name": "x", "cells": cells}})

    def test_nested_keys_remain_supported(self):
        cells = [{"key": "cnn@0.75/seed0/Dense", "fn": "repro.x:y", "kwargs": {}}]
        payload = normalize_payload({"spec": {"name": "x", "cells": cells}})
        assert payload["cells"][0]["key"] == "cnn@0.75/seed0/Dense"

    def test_fn_prefix_allowlist_is_configurable(self):
        cells = [{"key": "a", "fn": f"{CELLS}:add", "kwargs": {}}]
        with pytest.raises(ValueError, match="allowed prefixes"):
            normalize_payload({"spec": {"name": "x", "cells": cells}})
        normalize_payload(
            {"spec": {"name": "x", "cells": cells}},
            allow_fn_prefixes=("repro.", "tests."),
        )


class TestSubmitExecute:
    def test_spec_job_runs_to_done(self, service):
        svc, client = service
        r = client.submit(spec_job("adds", add_cells(3)))
        assert r["deduped"] is False
        job = client.wait(r["run_id"], timeout=30)
        assert job["state"] == "done"
        assert client.result(r["run_id"]) == {"c0": 1, "c1": 2, "c2": 3}

    def test_result_is_canonical_json_bytes(self, service):
        svc, client = service
        r = client.submit(spec_job("canon", add_cells(2)))
        client.wait(r["run_id"], timeout=30)
        text = client.result_text(r["run_id"])
        assert text == result_json({"c0": 1, "c1": 2}) + "\n"

    def test_repeat_submission_dedupes_without_recompute(self, service):
        svc, client = service
        payload = spec_job("dedupe", add_cells(2))
        r1 = client.submit(payload)
        client.wait(r1["run_id"], timeout=30)
        r2 = client.submit(payload)
        assert r2 == {"run_id": r1["run_id"], "state": "done", "deduped": True}
        assert svc.counters["jobs_deduped"] == 1

    def test_failing_cell_marks_job_failed(self, service):
        svc, client = service
        cells = [{"key": "bad", "fn": f"{CELLS}:boom", "kwargs": {"x": 1}}]
        r = client.submit(spec_job("fails", cells))
        job = client.wait(r["run_id"], timeout=30)
        assert job["state"] == "failed"
        assert "injected failure" in job["error"]
        with pytest.raises(ServiceError) as excinfo:
            client.result(r["run_id"])
        assert excinfo.value.status == 409

    def test_resubmitting_failed_job_requeues_it(self, service):
        svc, client = service
        cells = [{"key": "bad", "fn": f"{CELLS}:boom", "kwargs": {"x": 2}}]
        r1 = client.submit(spec_job("fails2", cells))
        client.wait(r1["run_id"], timeout=30)
        r2 = client.submit(spec_job("fails2", cells))
        assert r2["run_id"] == r1["run_id"]
        assert r2["deduped"] is False
        job = client.wait(r2["run_id"], timeout=30)
        assert job["state"] == "failed"
        assert job["attempts"] == 2

    def test_progress_rows_reach_the_store(self, service):
        svc, client = service
        r = client.submit(spec_job("progress", add_cells(4)))
        job = client.wait(r["run_id"], timeout=30)
        assert job["progress"] == {"settled": 4, "ok": 4}
        statuses = {c["status"] for c in job["cells"]}
        assert statuses <= {"ok", "cached"}

    def test_single_shot_experiment_records_its_cell(self, service):
        # A cell in the run store is also what a cancel or a drain can reach.
        svc, client = service
        r = client.submit({"experiment": "table3"})
        job = client.wait(r["run_id"], timeout=60)
        assert job["state"] == "done"
        assert [c["key"] for c in job["cells"]] == ["table3"]
        assert job["progress"] == {"settled": 1, "ok": 1}

    def test_invalid_payload_is_400(self, service):
        svc, client = service
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"experiment": "not-a-figure"})
        assert excinfo.value.status == 400

    def test_unknown_routes_and_ids_are_404(self, service):
        svc, client = service
        for call in (
            lambda: client.job("job-doesnotexist"),
            lambda: client.result("job-doesnotexist"),
            lambda: client.cancel("job-doesnotexist"),
            lambda: client._json("GET", "/nope"),
        ):
            with pytest.raises(ServiceError) as excinfo:
                call()
            assert excinfo.value.status == 404


class TestCancellation:
    def test_cancel_running_job(self, service):
        svc, client = service
        cells = [
            {"key": f"s{i}", "fn": f"{CELLS}:sleep_then",
             "kwargs": {"x": i, "seconds": 0.4}}
            for i in range(20)
        ]
        r = client.submit(spec_job("slow", cells))
        deadline = time.monotonic() + 10
        while client.job(r["run_id"])["state"] == "queued":
            assert time.monotonic() < deadline
            time.sleep(0.05)
        resp = client.cancel(r["run_id"])
        assert resp["state"] in ("cancelling", "cancelled")
        job = client.wait(r["run_id"], timeout=30)
        assert job["state"] == "cancelled"
        # cancellation must not burn the whole grid
        assert len(job["cells"]) < 20

    def test_cancel_terminal_job_conflicts(self, service):
        svc, client = service
        r = client.submit(spec_job("done-cancel", add_cells(1, prefix="d")))
        client.wait(r["run_id"], timeout=30)
        with pytest.raises(ServiceError) as excinfo:
            client.cancel(r["run_id"])
        assert excinfo.value.status == 409


class TestHealthAndMetrics:
    def test_healthz_counts_jobs(self, service):
        svc, client = service
        health = client.healthz()
        assert health["status"] == "ok"
        assert set(health["jobs"]) == {"queued", "running", "done", "failed", "cancelled"}

    def test_metrics_counters_track_lifecycle(self, service):
        svc, client = service
        r = client.submit(spec_job("metrics", add_cells(1, prefix="m")))
        client.wait(r["run_id"], timeout=30)
        client.submit(spec_job("metrics", add_cells(1, prefix="m")))
        metrics = client.metrics()
        assert metrics["service"]["jobs_submitted"] >= 1
        assert metrics["service"]["jobs_completed"] >= 1
        assert metrics["service"]["jobs_deduped"] >= 1

    def test_jobs_listing(self, service):
        svc, client = service
        r = client.submit(spec_job("list", add_cells(1, prefix="l")))
        client.wait(r["run_id"], timeout=30)
        listed = client.jobs()["jobs"]
        assert any(j["run_id"] == r["run_id"] for j in listed)


class TestRateLimiting:
    def test_flood_gets_429_with_retry_after(self, tmp_path):
        config = ServiceConfig(
            data_dir=str(tmp_path / "svc"), port=0, rate=1.0, burst=2.0,
            allow_fn_prefixes=("repro.", "tests."),
        )
        svc = SimService(config)
        host, port = svc.start()
        thread = threading.Thread(target=svc.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServiceClient(f"http://{host}:{port}", client_id="flooder")
            rejected = None
            for i in range(5):
                try:
                    client.submit(spec_job(f"flood-{i}", add_cells(1)))
                except RateLimitedError as exc:
                    rejected = exc
                    break
            assert rejected is not None, "flood was never rate-limited"
            assert rejected.retry_after_s > 0
            # the HTTP header is present and parseable too
            request = urllib.request.Request(
                f"http://{host}:{port}/jobs",
                data=json.dumps(spec_job("flood-x", add_cells(1))).encode(),
                method="POST", headers={"X-Client": "flooder"},
            )
            try:
                urllib.request.urlopen(request)
            except urllib.error.HTTPError as exc:
                assert exc.code == 429
                assert float(exc.headers["Retry-After"]) >= 1
            assert svc.counters["jobs_rejected"] >= 1
        finally:
            svc.shutdown()
            thread.join(timeout=5)

    def test_rotating_x_client_cannot_dodge_the_bucket(self, tmp_path):
        # Buckets key on the remote address; the X-Client header is an
        # advisory label, so rotating it per request must still 429.
        config = ServiceConfig(
            data_dir=str(tmp_path / "svc"), port=0, rate=1.0, burst=2.0,
            allow_fn_prefixes=("repro.", "tests."),
        )
        svc = SimService(config)
        host, port = svc.start()
        thread = threading.Thread(target=svc.serve_forever, daemon=True)
        thread.start()
        try:
            rejected = False
            for i in range(6):
                client = ServiceClient(
                    f"http://{host}:{port}", client_id=f"rotator-{i}"
                )
                try:
                    client.submit(spec_job(f"rotate-{i}", add_cells(1)))
                except RateLimitedError:
                    rejected = True
                    break
            assert rejected, "rotating X-Client values dodged rate limiting"
        finally:
            svc.shutdown()
            thread.join(timeout=5)


class TestDrain:
    def test_drain_requeues_running_job_resumably(self, tmp_path):
        config = ServiceConfig(
            data_dir=str(tmp_path / "svc"), port=0, rate=None,
            allow_fn_prefixes=("repro.", "tests."), drain_timeout_s=10.0,
        )
        svc = SimService(config)
        host, port = svc.start()
        thread = threading.Thread(target=svc.serve_forever, daemon=True)
        thread.start()
        client = ServiceClient(f"http://{host}:{port}", client_id="drainer")
        cells = [
            {"key": f"s{i}", "fn": f"{CELLS}:sleep_then",
             "kwargs": {"x": i, "seconds": 0.3}}
            for i in range(30)
        ]
        r = client.submit(spec_job("drainee", cells))
        deadline = time.monotonic() + 10
        while client.job(r["run_id"])["state"] == "queued":
            assert time.monotonic() < deadline
            time.sleep(0.05)
        time.sleep(0.5)  # let at least one cell settle into the cache
        svc.shutdown()
        thread.join(timeout=10)
        # drained, not cancelled: the job is queued again (resumable)
        job = svc.store.job(r["run_id"])
        assert job["state"] == "queued"
        assert job["priority"] is True
        svc.store.close()

        # a fresh service over the same data dir finishes it, replaying
        # the settled cells from the shared cache
        svc2 = SimService(config)
        host2, port2 = svc2.start()
        assert svc2.counters["jobs_recovered"] == 0  # queued, not orphaned
        thread2 = threading.Thread(target=svc2.serve_forever, daemon=True)
        thread2.start()
        try:
            client2 = ServiceClient(f"http://{host2}:{port2}", client_id="drainer")
            job = client2.wait(r["run_id"], timeout=60, poll_s=0.2)
            assert job["state"] == "done"
            cached = [c for c in job["cells"] if c["status"] == "cached"]
            assert cached, "resume recomputed every settled cell"
            assert client2.result(r["run_id"]) == {f"s{i}": i for i in range(30)}
        finally:
            svc2.shutdown()
            thread2.join(timeout=5)
