"""Crash-recovery drills against a real ``repro serve`` subprocess.

These pin the service's headline invariant: **restart + resubmit is
byte-identical to an uninterrupted run**.  A job is submitted, the
server is SIGKILLed mid-sweep, a fresh process over the same data dir
reclaims the orphaned job, replays its settled cells from the shared
cell cache, and finishes -- and the stored result JSON is exactly what
a clean serial run produces.

The fast drills use controllable spec jobs (``tests/sweep/_cells``);
the expensive table1 drill runs only when ``REPRO_SERVICE_SMOKE=1``
(the CI service job sets it).
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.service import RunStore, ServiceClient

CELLS = "tests.sweep._cells"
REPO_ROOT = Path(__file__).resolve().parents[2]


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.pop("REPRO_SWEEP_CHAOS", None)
    return env


def start_server(data_dir, *extra):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--data-dir", str(data_dir),
         "--port", "0", "--rate", "0", "--allow-fn-prefix", "tests.", *extra],
        env=_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        cwd=str(REPO_ROOT),
    )
    endpoint = Path(data_dir) / "endpoint"
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(f"server died on startup (rc={proc.returncode})")
        if endpoint.exists():
            url = endpoint.read_text().strip()
            try:
                client = ServiceClient(url, client_id="drill", timeout=5.0)
                client.healthz()
                return proc, client
            except Exception:
                pass
        time.sleep(0.1)
    proc.kill()
    raise RuntimeError("server did not come up within 30s")


def sleepy_job(n=30, seconds=0.3):
    return {"spec": {"name": "drill", "cells": [
        {"key": f"s{i}", "fn": f"{CELLS}:sleep_then",
         "kwargs": {"x": i, "seconds": seconds}}
        for i in range(n)
    ]}}


def wait_for_running(client, run_id, timeout=20):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        job = client.job(run_id)
        if job["state"] != "queued":
            return job
        time.sleep(0.05)
    raise TimeoutError(f"job {run_id} never left queued")


class TestKillNineRecovery:
    def test_sigkill_midrun_then_restart_completes_byte_identically(self, tmp_path):
        data_dir = tmp_path / "svc"
        proc, client = start_server(data_dir)
        try:
            r = client.submit(sleepy_job())
            run_id = r["run_id"]
            wait_for_running(client, run_id)
            time.sleep(1.0)  # let a few cells settle into the cell cache
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)

            # the store must read clean after the kill and still show
            # the job running (orphaned)
            store = RunStore(data_dir / "runs.sqlite3")
            assert store.job(run_id)["state"] == "running"
            pre_settled = len(store.cells(run_id))
            store.close()

            proc, client = start_server(data_dir)
            assert client.metrics()["service"]["jobs_recovered"] == 1
            job = client.wait(run_id, timeout=120, poll_s=0.2)
            assert job["state"] == "done"
            cached = [c for c in job["cells"] if c["status"] == "cached"]
            assert cached, "recovery recomputed every settled cell"
            assert len(cached) >= max(1, pre_settled - 1)

            text = client.result_text(run_id)
            expected = {f"s{i}": i for i in range(30)}
            assert text == json.dumps(expected, sort_keys=True, default=repr) + "\n"

            # resubmission dedupes to the finished job without recompute
            t0 = time.monotonic()
            r2 = client.submit(sleepy_job())
            assert r2 == {"run_id": run_id, "state": "done", "deduped": True}
            assert time.monotonic() - t0 < 2.0
        finally:
            proc.kill()
            proc.wait(timeout=10)

    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        data_dir = tmp_path / "svc"
        proc, client = start_server(data_dir)
        try:
            r = client.submit(sleepy_job())
            wait_for_running(client, r["run_id"])
            proc.send_signal(signal.SIGTERM)
            rc = proc.wait(timeout=30)
            assert rc == 0
            store = RunStore(data_dir / "runs.sqlite3")
            job = store.job(r["run_id"])
            assert job["state"] == "queued"  # resumable, not lost
            assert job["priority"] is True
            store.close()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)


@pytest.mark.skipif(
    os.environ.get("REPRO_SERVICE_SMOKE") != "1",
    reason="expensive table1 drill; set REPRO_SERVICE_SMOKE=1 (CI service job)",
)
class TestTable1Smoke:
    def test_table1_survives_sigkill_and_matches_clean_serial_run(self, tmp_path):
        data_dir = tmp_path / "svc"
        payload = {"experiment": "table1", "seeds": [0], "epochs": 1, "scale": 4}
        proc, client = start_server(data_dir)
        try:
            r = client.submit(payload)
            wait_for_running(client, r["run_id"])
            time.sleep(2.5)
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)

            proc, client = start_server(data_dir)
            job = client.wait(r["run_id"], timeout=300, poll_s=0.5)
            assert job["state"] == "done"
            service_text = client.result_text(r["run_id"])
        finally:
            proc.kill()
            proc.wait(timeout=10)

        clean = subprocess.run(
            [sys.executable, "-m", "repro", "report", "table1",
             "--epochs", "1", "--json"],
            env=_env(), cwd=str(REPO_ROOT), capture_output=True, text=True,
            timeout=600,
        )
        assert clean.returncode == 0, clean.stderr
        assert service_text == clean.stdout
