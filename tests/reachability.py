"""Which functions in ``src/repro`` no entry point reaches.

Runs the repo's user-facing entry points in this one process under
``sys.setprofile`` and ``threading.setprofile`` (stdlib only), then
lists every ``def`` in ``src/repro`` whose code never ran.  The entry
points are every CLI command with each flag family, one ``serve`` job
driven over HTTP (submit, cancel, ``/healthz``, ``/metrics``), the
``REPRO_SWEEP_CHAOS`` drill, the examples and ``benchmarks/`` with
``--benchmark-disable`` (pytest-benchmark clears the profile hook while
it times a benchmark, which would hide every call the benchmark makes).
``examples/full_reproduction.py`` is left out: it is ``report all`` at
default size, which the probe already drives at smoke size.

A def that the entry points cannot reach must be listed in
``tests/reachability_keep.txt`` with one tag saying why it stays (see
``TAGS``); anything else unreached is dead code.

The same run keeps a value ledger of every knob, i.e. every value a
user can set on its own: each argument of ``repro.cli.build_parser()``
(recorded from the namespace ``cli._dispatch`` receives), each field of
the option dataclasses in ``KNOB_CLASSES`` (recorded in their
``__post_init__``, which ``dataclasses.replace`` also runs) and each
``REPRO_*`` variable named by a string literal in ``src/repro``
(recorded as ``os.environ`` is read).  A knob counts as driven only when
a drive passes it a value other than its default; a knob that every
drive leaves at its default must be deleted or keep-listed with a knob
tag, exactly as an unreached def.

Run:  PYTHONPATH=src python -m tests.reachability [--check]

Without ``--check`` it prints the unreached defs, the knobs no drive
sets and the counts.  With ``--check`` it exits 1 when a def is neither
reached nor keep-listed, when a knob is neither driven nor keep-listed,
when a keep entry is reached or driven, or when a keep entry names no
def or knob.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import re
import runpy
import signal
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
KEEP_FILE = Path(__file__).with_name("reachability_keep.txt")

#: Why an unreached def stays.
DEF_TAGS = {
    "error": "raises, reports a failure, guards a stall, recovers a "
    "supervised worker or limits a rate",
    "child": "runs only in a forked worker process",
    "interface": "an abstract stub or a dunder",
    "seam": "an accessor a test reads",
}

#: Why a knob that every drive leaves at its default stays.  Worker
#: counts, timeouts, retries, tolerances, solver choices and environment
#: overrides are never ``input``.
KNOB_TAGS = {
    "input": "selects what is computed and reaches the output (a seed, "
    "a shape, a sparsity, a file name)",
    "deploy": "set per installation of repro serve (address, port, data "
    "directory, capacity limits, the callable allow-list)",
}

#: A def or a knob that waits on the ROADMAP open item of that number.
ROADMAP_TAGS = {
    "roadmap-2": "waits on ROADMAP item 2 (Table I resolution)",
    "roadmap-5": "waits on ROADMAP item 5 (functional oracle)",
    "roadmap-12": "waits on ROADMAP item 12 (parallel sweeps that pay)",
}

TAGS = {**DEF_TAGS, **KNOB_TAGS, **ROADMAP_TAGS}

#: The option dataclasses whose fields are knobs: ``(module, class)``.
KNOB_CLASSES = (
    ("repro.sim.options", "SimOptions"),
    ("repro.sweep.options", "SweepOptions"),
    ("repro.service.server", "ServiceConfig"),
)

#: Knob names: ``cli:<command>:<flag or positional>``,
#: ``field:<class>.<field>`` and ``env:<variable>``.
KNOB_NAME = re.compile(
    r"cli:[a-z]+:(--[a-z0-9-]+|[a-z_]+)|field:[A-Za-z]+\.[a-z_]+|env:REPRO_[A-Z0-9_]+"
)
KNOB_PREFIXES = ("cli:", "field:", "env:")

#: The examples the probe runs; full_reproduction.py is ``report all``.
EXAMPLES = (
    "quickstart.py",
    "hardware_exploration.py",
    "model_to_hardware.py",
    "oneshot_llm_pruning.py",
    "resilient_training.py",
    "sparse_training.py",
    "transposable_training.py",
)


# ---------------------------------------------------------------------------
# The defs in src/
# ---------------------------------------------------------------------------


def src_defs() -> Dict[str, Tuple[str, FrozenSet[int]]]:
    """``{qualified name: (file, first lines)}`` for every def in ``src/repro``.

    Names are dotted (``repro.sim.engine.simulate``, a method
    ``repro.hw.codec.CodecUnit.process_block``, a nested def
    ``repro.nn.train.train._step``).  The first lines are the ``def``
    line and, when decorated, the first decorator's line: a code
    object's ``co_firstlineno`` is one of the two.  A name defined twice
    in one scope (a property's getter and setter) gets ``#2``, ``#3``, ...
    """
    defs: Dict[str, Tuple[str, FrozenSet[int]]] = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))

        def walk(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = f"{prefix}.{child.name}"
                    unique, n = name, 1
                    while unique in defs:
                        n += 1
                        unique = f"{name}#{n}"
                    lines = {child.lineno}
                    lines.update(d.lineno for d in child.decorator_list)
                    defs[unique] = (str(path), frozenset(lines))
                    walk(child, name)
                elif isinstance(child, ast.ClassDef):
                    walk(child, f"{prefix}.{child.name}")
                else:
                    walk(child, prefix)

        walk(tree, ".".join(parts))
    return defs


def is_knob(name: str) -> bool:
    """Whether a keep entry names a knob rather than a def."""
    return name.startswith(KNOB_PREFIXES)


def load_keep(path: Path = KEEP_FILE) -> Dict[str, str]:
    """``{qualified name or knob: tag}`` from the keep list.

    One entry a line, ``<name> <tag>``; ``#`` starts a comment.  Raises
    ``ValueError`` on a malformed line, an unknown tag, a repeated name,
    a malformed knob name, or a def tag on a knob (or a knob tag on a
    def).
    """
    keep: Dict[str, str] = {}
    for number, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(f"{path.name}:{number}: expected '<name> <tag>', got {raw!r}")
        name, tag = fields
        if tag not in TAGS:
            raise ValueError(f"{path.name}:{number}: unknown tag {tag!r}")
        if is_knob(name):
            if not KNOB_NAME.fullmatch(name):
                raise ValueError(f"{path.name}:{number}: malformed knob name {name!r}")
            if tag in DEF_TAGS:
                raise ValueError(f"{path.name}:{number}: knob {name} needs a knob tag, got {tag!r}")
        elif tag in KNOB_TAGS:
            raise ValueError(f"{path.name}:{number}: def {name} needs a def tag, got {tag!r}")
        if name in keep:
            raise ValueError(f"{path.name}:{number}: {name} listed twice")
        keep[name] = tag
    return keep


# ---------------------------------------------------------------------------
# The knobs
# ---------------------------------------------------------------------------

#: The default of a knob that has none (a required argument or field):
#: any value a drive passes counts as driven.
REQUIRED = object()


def _cli_arguments() -> Dict[str, Dict[str, Tuple[str, Any]]]:
    """``{command: {dest: (knob, default)}}`` for every argument of
    ``build_parser()``; a required argument's default is :data:`REQUIRED`."""
    from repro.cli import build_parser

    commands = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    out: Dict[str, Dict[str, Tuple[str, Any]]] = {}
    for command, parser in commands.choices.items():
        out[command] = {}
        for action in parser._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            flag = next((s for s in action.option_strings if s.startswith("--")), action.dest)
            default = REQUIRED if action.required else action.default
            out[command][action.dest] = (f"cli:{command}:{flag}", default)
    return out


def _knob_classes() -> List[type]:
    import importlib

    return [getattr(importlib.import_module(module), name) for module, name in KNOB_CLASSES]


def src_env_variables() -> Set[str]:
    """Every ``REPRO_*`` name that a string literal in ``src/repro`` spells."""
    names: Set[str] = set()
    for path in sorted((SRC / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and re.fullmatch(r"REPRO_[A-Z0-9_]+", node.value)):
                names.add(node.value)
    return names


def knob_defaults() -> Dict[str, Any]:
    """``{knob: default}`` for every knob, from the code alone (no drive).

    The default of an environment variable is ``None`` (unset); a knob
    with no default maps to :data:`REQUIRED`.
    """
    import dataclasses

    defaults: Dict[str, Any] = {}
    for arguments in _cli_arguments().values():
        defaults.update(arguments.values())
    for cls in _knob_classes():
        for field in dataclasses.fields(cls):
            if field.default is not dataclasses.MISSING:
                default = field.default
            elif field.default_factory is not dataclasses.MISSING:
                default = field.default_factory()
            else:
                default = REQUIRED
            defaults[f"field:{cls.__name__}.{field.name}"] = default
    for variable in src_env_variables():
        defaults[f"env:{variable}"] = None
    return defaults


class Ledger:
    """The values the drives pass to each knob.

    :meth:`readers` maps the code objects whose call the ledger reads to
    a function of the called frame: ``cli._dispatch`` (the parsed
    namespace), each knob class's ``__post_init__`` (the instance) and
    ``os.environ.__getitem__`` (the variable read).
    """

    def __init__(self) -> None:
        self.defaults = knob_defaults()
        #: ``{knob: reprs of the non-default values the drives passed}``.
        self.driven: Dict[str, Set[str]] = {knob: set() for knob in self.defaults}

    def record(self, knob: str, value: Any) -> None:
        default = self.defaults[knob]
        if default is REQUIRED or value != default:
            self.driven[knob].add(repr(value)[:80])

    def readers(self) -> Dict[int, Callable[[Any], None]]:
        """``{id(code object): reader of its frame}``."""
        import dataclasses

        from repro import cli

        arguments = _cli_arguments()

        def read_namespace(frame) -> None:
            args = frame.f_locals["args"]
            for dest, (knob, _) in arguments[args.command].items():
                self.record(knob, getattr(args, dest))

        readers: Dict[int, Callable[[Any], None]] = {id(cli._dispatch.__code__): read_namespace}
        for cls in _knob_classes():
            names = [(f"field:{cls.__name__}.{f.name}", f.name) for f in dataclasses.fields(cls)]

            def read_fields(frame, names=names) -> None:
                instance = frame.f_locals["self"]
                for knob, name in names:
                    self.record(knob, getattr(instance, name))

            readers[id(cls.__post_init__.__code__)] = read_fields

        def read_environ(frame) -> None:
            variable = frame.f_locals.get("key")
            if f"env:{variable}" in self.defaults:
                self.record(f"env:{variable}", os.environ.get(variable))

        readers[id(type(os.environ).__getitem__.__code__)] = read_environ
        return readers

    def undriven(self) -> List[str]:
        return sorted(knob for knob, values in self.driven.items() if not values)


# ---------------------------------------------------------------------------
# The entry points
# ---------------------------------------------------------------------------


def _cli(*argv: str) -> None:
    from repro.cli import main

    rc = main(list(argv))
    if rc != 0:
        raise RuntimeError(f"repro {' '.join(argv)} exited {rc}")


def _drive_report(tmp: Path) -> None:
    _cli("report", "all", "--seeds", "1", "--epochs", "1", "--scale", "16", "--workers", "1")
    cells = str(tmp / "cells")
    flags = ("--seeds", "1", "--epochs", "1", "--scale", "16", "--checkpoint-dir", cells)
    _cli("report", "fig13", *flags, "--checks", "strict",
         "--metrics", str(tmp / "m.json"), "--trace", str(tmp / "t.json"))
    _cli("report", "fig13", *flags, "--resume", "--json")
    _cli("report", "fig1", *flags, "--json")  # its Pareto points reach the JSON default
    _cli("report", "scenarios", "--scale", "16", "--families", "stencil", "--allow-partial")


def _drive_chaos(tmp: Path) -> None:
    """CI's chaos drill on a small grid: crashed and hung workers, retried."""
    env = {"REPRO_SWEEP_CHAOS": "crash+hang:1", "REPRO_SWEEP_CHAOS_HANG_S": "600"}
    saved = {k: os.environ.get(k) for k in env}
    os.environ.update(env)
    try:
        _cli("report", "fig17", "--workers", "2", "--retries", "3", "--timeout", "5",
             "--metrics", str(tmp / "chaos.json"), "--json")
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def _drive_prune(tmp: Path) -> None:
    import numpy as np

    weights = tmp / "w.npy"
    np.save(weights, np.random.default_rng(0).normal(size=(32, 32)))
    for pattern in ("US", "TS", "RS_V", "RS_H", "TBS"):
        _cli("prune", str(weights), "--pattern", pattern, "--sparsity", "0.75")
    for solver in ("greedy", "exact", "tsenor"):
        _cli("prune", str(weights), "--pattern", "NMT", "--m", "4", "--tsolver", solver,
             "--checks", "strict")


def _drive_simulate(tmp: Path) -> None:
    from repro.sim.baselines import ARCH_FAMILY

    shape = ("--rows", "32", "--cols", "32", "--b-cols", "16")
    for arch in ARCH_FAMILY:
        _cli("simulate", *shape, "--arch", arch)
    _cli("simulate", *shape, "--json", "--orientation", "transposed", "--weight-bits", "8",
         "--checks", "strict")
    for fault in ("values", "indices", "metadata"):
        _cli("simulate", *shape, "--fault", fault, "--json")


def _drive_faults(tmp: Path) -> None:
    small = ("--trials", "2", "--rows", "16", "--cols", "16")
    _cli("faults", *small, "--json")
    _cli("faults", *small, "--ecc", "secded", "--workers", "1",
         "--checkpoint-dir", str(tmp / "faults"), "--metrics", str(tmp / "fm.json"))
    _cli("faults", *small, "--ecc", "secded", "--checkpoint-dir", str(tmp / "faults"),
         "--resume")


def _drive_perf(tmp: Path) -> None:
    out = str(tmp)
    _cli("perf", "--profile", "smoke", "--name", "probe", "--out-dir", out, "--best-of", "2",
         "--trajectory", str(tmp / "traj.jsonl"))
    _cli("perf", "--profile", "smoke", "--name", "probe2", "--out-dir", out,
         "--compare", str(tmp / "BENCH_probe.json"), "--tolerance", "100")


def _drive_serve(tmp: Path) -> None:
    """``repro serve`` in this thread; a second thread submits a table1
    job and waits until it runs, cancels a second job while it waits in
    the queue behind it (the service runs one job worker, and table1
    outlasts the cancel by seconds), cancels the running table1 job,
    submits a fig17 job and the cancelled one again, reads /jobs,
    /healthz and /metrics, then sends SIGTERM so the server drains and
    ``main`` returns."""
    from repro.service import ServiceClient

    data_dir = tmp / "service"
    failures: List[BaseException] = []

    def client() -> None:
        try:
            endpoint = data_dir / "endpoint"
            deadline = time.monotonic() + 60
            while not endpoint.exists():
                if time.monotonic() > deadline:
                    raise TimeoutError("service never advertised its endpoint")
                time.sleep(0.05)
            svc = ServiceClient(endpoint.read_text().strip(), client_id="probe")
            running = svc.submit({"experiment": "table1", "epochs": 1})["run_id"]
            while svc.job(running)["state"] == "queued":
                time.sleep(0.02)
            queued = {"experiment": "fig4", "epochs": 1, "scale": 16}
            svc.cancel(svc.submit(queued)["run_id"])
            svc.cancel(running)
            svc.wait(running, timeout=120)
            first = svc.submit({"experiment": "fig17", "epochs": 1, "scale": 16})
            again = svc.submit(queued)
            for job in (first, again):
                svc.wait(job["run_id"], timeout=120)
                svc.result(job["run_id"])
            svc.jobs()
            svc.healthz()
            svc.metrics()
        except BaseException as exc:  # noqa: BLE001 - reported by the caller
            failures.append(exc)
        finally:
            os.kill(os.getpid(), signal.SIGTERM)

    thread = threading.Thread(target=client, name="probe-client")
    thread.start()
    _cli("serve", "--data-dir", str(data_dir), "--port", "0")
    thread.join()
    if failures:
        raise failures[0]


def _drive_examples(tmp: Path) -> None:
    for name in EXAMPLES:
        path = ROOT / "examples" / name
        saved = sys.argv
        sys.argv = [str(path)]
        try:
            runpy.run_path(str(path), run_name="__main__")
        except SystemExit as exc:
            if exc.code not in (None, 0):
                raise RuntimeError(f"{name} exited {exc.code}") from None
        finally:
            sys.argv = saved


def _drive_benchmarks(tmp: Path) -> None:
    import pytest

    rc = pytest.main([
        str(ROOT / "benchmarks"), "-q", "--benchmark-disable", "-p", "no:cacheprovider",
        "--rootdir", str(ROOT), "-x",
    ])
    if rc != 0:
        raise RuntimeError(f"benchmarks/ exited {rc}")


DRIVES: Tuple[Tuple[str, Callable[[Path], None]], ...] = (
    ("report", _drive_report),
    ("chaos", _drive_chaos),
    ("prune", _drive_prune),
    ("simulate", _drive_simulate),
    ("faults", _drive_faults),
    ("perf", _drive_perf),
    ("serve", _drive_serve),
    ("examples", _drive_examples),
    ("benchmarks", _drive_benchmarks),
)


def run_drives() -> Tuple[Set[Tuple[str, int]], Ledger]:
    """Run every drive; return ``{(file, co_firstlineno)}`` of every code
    object that ran in ``src/`` and the ledger of the knob values."""
    src = str(SRC)
    seen: Set[Tuple[str, int]] = set()
    readers: Dict[int, Callable[[Any], None]] = {}

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(src):
                seen.add((code.co_filename, code.co_firstlineno))
            reader = readers.get(id(code))
            if reader is not None:
                reader(frame)

    with tempfile.TemporaryDirectory(prefix="repro-reach-") as tmp:
        sink = io.StringIO()
        threading.setprofile(profile)
        sys.setprofile(profile)
        try:
            # Built under the hook: the ledger imports repro.cli and the
            # knob classes, whose import-time calls count as reached.
            ledger = Ledger()
            readers.update(ledger.readers())
            for label, drive in DRIVES:
                t0 = time.perf_counter()
                sink.seek(0)
                sink.truncate()
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    drive(Path(tmp))
                sys.setprofile(profile)  # a drive may have cleared it
                print(f"[reachability] {label}: {time.perf_counter() - t0:.1f} s",
                      file=sys.stderr)
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
    return seen, ledger


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m tests.reachability")
    parser.add_argument("--check", action="store_true",
                        help="fail unless the unreached defs and the undriven knobs "
                        "are exactly the keep list")
    args = parser.parse_args(argv)

    defs = src_defs()
    keep = load_keep()
    seen, ledger = run_drives()
    unreached = sorted(
        name for name, (path, lines) in defs.items()
        if not any((path, line) in seen for line in lines)
    )
    undriven = ledger.undriven()
    kept_defs = {name: tag for name, tag in keep.items() if not is_knob(name)}
    kept_knobs = {name: tag for name, tag in keep.items() if is_knob(name)}
    print(f"{len(unreached)} of {len(defs)} defs in src/ unreached "
          f"({len(kept_defs)} keep-listed)")
    print(f"{len(ledger.defaults)} settable values: {len(undriven)} at their default "
          f"in every drive ({len(kept_knobs)} keep-listed)")
    problems = []
    for name in unreached:
        if name not in keep:
            problems.append(f"unreached, not keep-listed: {name}")
    for knob in undriven:
        if knob not in keep:
            problems.append(f"at its default in every drive, not keep-listed: {knob}")
    for name, tag in sorted(kept_defs.items()):
        if name not in defs:
            problems.append(f"keep entry names no def: {name} ({tag})")
        elif name not in unreached:
            problems.append(f"keep entry is reached: {name} ({tag})")
    for knob, tag in sorted(kept_knobs.items()):
        if knob not in ledger.defaults:
            problems.append(f"keep entry names no knob: {knob} ({tag})")
        elif knob not in undriven:
            values = ", ".join(sorted(ledger.driven[knob]))
            problems.append(f"keep entry is driven: {knob} ({tag}) <- {values}")
    for line in problems:
        print(line)
    return 1 if args.check and problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
