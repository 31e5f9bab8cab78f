"""Checkpoint/resume: bit-exact restart, including a SIGKILL mid-run.

The acceptance property: a run killed partway through and resumed from
its checkpoint directory produces *exactly* the histories and accuracies
of an uninterrupted run -- same RNG stream position, parameter bytes,
optimizer slots, masks and LR schedule.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.patterns import PatternFamily
from repro.nn.data import cluster_dataset
from repro.nn.models import make_mlp
from repro.nn.optim import Adam
from repro.nn.schedulers import CosineLR
from repro.nn.train import train

REPO_ROOT = Path(__file__).resolve().parents[2]

SEED = 3


def _data():
    return cluster_dataset(n_samples=128, n_features=16, n_classes=4, seed=SEED)


def _model():
    return make_mlp(16, 32, 4, depth=3, seed=SEED)


def _run(model, data, epochs, **kwargs):
    return train(
        model, data, family=PatternFamily.TBS, sparsity=0.5,
        epochs=epochs, batch=48, seed=SEED, **kwargs,
    )


def _assert_same_params(model, reference):
    """Every final parameter array of ``model`` equals ``reference``'s, bit for bit."""
    handles, ref_handles = model.parameters(), reference.parameters()
    assert [name for _, name in handles] == [name for _, name in ref_handles]
    for (mod, name), (ref_mod, _) in zip(handles, ref_handles):
        value, ref_value = mod.params[name], ref_mod.params[name]
        assert value.shape == ref_value.shape and value.dtype == ref_value.dtype
        assert value.tobytes() == ref_value.tobytes(), name


class TestInProcessResume:
    def test_resume_matches_uninterrupted_run(self, tmp_path):
        data = _data()
        baseline_model = _model()
        baseline = _run(baseline_model, data, epochs=6)

        _run(_model(), data, epochs=3, checkpoint_dir=tmp_path)
        resumed_model = _model()
        resumed = _run(resumed_model, data, epochs=6, checkpoint_dir=tmp_path, resume=True)

        assert resumed.resumed_from == 2
        assert resumed.loss_history == baseline.loss_history
        assert resumed.sparsity_history == baseline.sparsity_history
        _assert_same_params(resumed_model, baseline_model)
        assert resumed.test_accuracy == baseline.test_accuracy

    def test_resume_with_scheduler_and_adam(self, tmp_path):
        data = _data()

        def fresh():
            model = _model()
            opt = Adam(model, lr=5e-3)
            return model, opt, CosineLR(opt, total=6)

        model, opt, sched = fresh()
        baseline = _run(model, data, epochs=6, optimizer=opt, scheduler=sched)

        model, opt, sched = fresh()
        _run(model, data, epochs=3, optimizer=opt, scheduler=sched, checkpoint_dir=tmp_path)
        model, opt, sched = fresh()
        resumed = _run(
            model, data, epochs=6, optimizer=opt, scheduler=sched,
            checkpoint_dir=tmp_path, resume=True,
        )
        assert resumed.resumed_from == 2
        assert resumed.loss_history == baseline.loss_history
        assert resumed.test_accuracy == baseline.test_accuracy

    def test_resume_preserves_stale_masks(self, tmp_path):
        """mask_refresh=False epochs must reuse the *restored* mask."""
        data = _data()
        refresh = lambda epoch: epoch % 2 == 0  # noqa: E731
        baseline = _run(_model(), data, epochs=6, mask_refresh=refresh)

        _run(_model(), data, epochs=4, mask_refresh=refresh, checkpoint_dir=tmp_path)
        resumed = _run(
            _model(), data, epochs=6, mask_refresh=refresh,
            checkpoint_dir=tmp_path, resume=True,
        )
        assert resumed.loss_history == baseline.loss_history
        assert resumed.sparsity_history == baseline.sparsity_history

    def test_resume_on_empty_dir_starts_fresh(self, tmp_path):
        data = _data()
        res = _run(_model(), data, epochs=2, checkpoint_dir=tmp_path, resume=True)
        assert res.resumed_from is None
        assert len(res.loss_history) == 2

    def test_checkpoint_every_thins_saves(self, tmp_path):
        from repro.runtime.checkpoint import CheckpointStore

        data = _data()
        _run(_model(), data, epochs=5, checkpoint_dir=tmp_path, checkpoint_every=2)
        store = CheckpointStore(tmp_path)
        epochs = [store.load(p).epoch for p in store.list()]
        assert epochs == [0, 2, 4]

    def test_completed_run_resume_is_a_noop(self, tmp_path):
        data = _data()
        first = _run(_model(), data, epochs=4, checkpoint_dir=tmp_path)
        again = _run(_model(), data, epochs=4, checkpoint_dir=tmp_path, resume=True)
        assert again.resumed_from == 3
        assert again.loss_history == first.loss_history
        assert again.test_accuracy == first.test_accuracy


# ---------------------------------------------------------------------------
# SIGKILL acceptance test
# ---------------------------------------------------------------------------

# The child mirrors _run() above exactly, except its criterion stalls
# after 3 epochs (2 optimizer steps per epoch) so the parent can SIGKILL
# it mid-epoch-3 -- after checkpoints for epochs 0-2 hit disk.
_CHILD_SCRIPT = """
import sys, time
from repro.core.patterns import PatternFamily
from repro.nn.data import cluster_dataset
from repro.nn.losses import softmax_cross_entropy
from repro.nn.models import make_mlp
from repro.nn.train import train

ckpt_dir, marker = sys.argv[1], sys.argv[2]
calls = {"n": 0}

def stalling_loss(logits, labels):
    calls["n"] += 1
    if calls["n"] > 6:  # 2 steps/epoch * 3 epochs
        open(marker, "w").close()
        time.sleep(300)
    return softmax_cross_entropy(logits, labels)

data = cluster_dataset(n_samples=128, n_features=16, n_classes=4, seed=3)
model = make_mlp(16, 32, 4, depth=3, seed=3)
train(model, data, family=PatternFamily.TBS, sparsity=0.5, epochs=6,
      batch=48, seed=3, checkpoint_dir=ckpt_dir, loss_fn=stalling_loss)
"""


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL")
def test_sigkill_mid_epoch_resumes_bit_exact(tmp_path):
    ckpt_dir = tmp_path / "ckpts"
    ckpt_dir.mkdir()
    marker = tmp_path / "epoch3.started"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")

    proc = subprocess.Popen(
        [sys.executable, "-c", _CHILD_SCRIPT, str(ckpt_dir), str(marker)],
        env=env, cwd=REPO_ROOT,
    )
    try:
        deadline = time.monotonic() + 120
        while not marker.exists():
            assert proc.poll() is None, "child training run exited prematurely"
            assert time.monotonic() < deadline, "child never reached epoch 3"
            time.sleep(0.05)
        os.kill(proc.pid, signal.SIGKILL)
    finally:
        if proc.poll() is None:  # pragma: no cover - cleanup on assert failure
            proc.kill()
        proc.wait()

    data = _data()
    baseline_model = _model()
    baseline = _run(baseline_model, data, epochs=6)
    resumed_model = _model()
    resumed = _run(resumed_model, data, epochs=6, checkpoint_dir=ckpt_dir, resume=True)

    assert resumed.resumed_from == 2  # epochs 0-2 were checkpointed pre-kill
    assert resumed.loss_history == baseline.loss_history
    assert resumed.sparsity_history == baseline.sparsity_history
    _assert_same_params(resumed_model, baseline_model)
    assert resumed.test_accuracy == baseline.test_accuracy
