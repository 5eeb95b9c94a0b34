"""Building, publishing and shipping the compiled walk kernel.

The kernel is compiled on first use into a cache directory; these tests
pin that the build is safe under concurrent first use, that a missing or
failing compiler is a loud error rather than a silent slower engine, that
importing the package never builds or loads it, and that the C source
ships as package data.
"""

import multiprocessing
import os
import shutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import repro
from repro.cfg import ControlFlowGraph
from repro.obs.registry import counter_value
from repro.stochastic import CFGWalker, ProgramBehavior, kernel, steady

SRC_DIR = Path(repro.__file__).resolve().parent.parent


def _cfg_and_behavior():
    cfg = ControlFlowGraph([(1,), (1, 2), ()])
    behavior = ProgramBehavior()
    behavior.set(1, steady(0.999))
    return cfg, behavior


def _build_and_walk(cache_dir, barrier, results):
    # Both processes reach the first walk together, so both find the
    # cache empty and compile.
    kernel._CACHE_DIR = cache_dir
    barrier.wait()
    cfg, behavior = _cfg_and_behavior()
    trace = kernel.record_trace(cfg, behavior, 20_000, seed=6)
    results.put((trace.blocks.tobytes(), trace.taken.tobytes()))


def test_two_processes_build_one_cache_concurrently(tmp_path):
    ctx = multiprocessing.get_context("spawn")
    barrier = ctx.Barrier(2)
    results = ctx.Queue()
    procs = [ctx.Process(target=_build_and_walk,
                         args=(tmp_path, barrier, results))
             for _ in range(2)]
    for proc in procs:
        proc.start()
    got = [results.get(timeout=120) for _ in procs]
    for proc in procs:
        proc.join(timeout=120)
        assert proc.exitcode == 0
    cfg, behavior = _cfg_and_behavior()
    scalar = CFGWalker(cfg, behavior, seed=6).run(20_000)
    expected = (scalar.blocks.tobytes(), scalar.taken.tobytes())
    assert got == [expected, expected]
    # One published library; no temp file left behind by either builder.
    assert [p.suffix for p in tmp_path.iterdir()] == [".so"]


def _no_fallback(monkeypatch, tmp_path):
    """Point the kernel at an empty cache and make any scalar walk fail."""
    monkeypatch.setattr(kernel, "_CACHE_DIR", tmp_path / "kernels")

    def forbidden(*args, **kwargs):
        raise AssertionError("a fallback walker ran")

    monkeypatch.setattr(CFGWalker, "run", forbidden)
    return counter_value("kernel.vector.runs")


def test_missing_compiler_is_a_loud_error(tmp_path, monkeypatch):
    runs = _no_fallback(monkeypatch, tmp_path)
    monkeypatch.setattr(shutil, "which", lambda cmd, *a, **k: None)
    cfg, behavior = _cfg_and_behavior()
    with pytest.raises(RuntimeError) as err:
        kernel.record_trace(cfg, behavior, 100)
    message = str(err.value)
    assert "gcc -O2 -shared -fPIC" in message
    assert str(tmp_path / "kernels") in message
    assert counter_value("kernel.vector.runs") == runs
    assert not (tmp_path / "kernels").exists()


def test_failing_compiler_is_a_loud_error(tmp_path, monkeypatch):
    runs = _no_fallback(monkeypatch, tmp_path)
    monkeypatch.setattr(kernel, "_CFLAGS",
                        kernel._CFLAGS + ("--no-such-flag",))
    cfg, behavior = _cfg_and_behavior()
    with pytest.raises(RuntimeError) as err:
        kernel.record_trace(cfg, behavior, 100)
    message = str(err.value)
    assert "gcc -O2 -shared -fPIC --no-such-flag" in message
    assert str(tmp_path / "kernels") in message
    assert "no-such-flag" in message.split("\n", 1)[1]  # gcc's stderr
    assert counter_value("kernel.vector.runs") == runs
    assert list((tmp_path / "kernels").iterdir()) == []


def test_importing_the_harness_never_builds_or_loads_the_kernel():
    """``import repro.harness`` spawns no compiler and dlopens no kernel,
    and the kernel module binds ``ctypes`` only inside its loader.
    (numpy itself imports ``ctypes``, so its presence in ``sys.modules``
    says nothing about this package.)"""
    probe = (
        "import sys, numpy\n"
        "seen = []\n"
        "def hook(event, args):\n"
        "    if event in ('subprocess.Popen', 'os.posix_spawn', 'os.fork')\\\n"
        "            or (event == 'ctypes.dlopen' and 'walk-' in str(args)):\n"
        "        seen.append(event)\n"
        "sys.addaudithook(hook)\n"
        "import repro.harness\n"
        "from repro.stochastic import kernel\n"
        "assert not seen, seen\n"
        "assert 'ctypes' not in vars(kernel)\n"
        "assert kernel._load.cache_info().currsize == 0\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_c_source_resolves_as_package_data():
    source = resources.files("repro.stochastic").joinpath("walk.c")
    assert "int64_t walk(" in source.read_text()


def test_built_package_ships_the_c_source(tmp_path):
    """``setup.py build_py`` (what ``pip install .`` runs) copies
    ``walk.c`` next to ``kernel.py``."""
    pytest.importorskip("setuptools")
    root = SRC_DIR.parent
    work = tmp_path / "checkout"
    work.mkdir()
    for name in ("pyproject.toml", "setup.py"):
        shutil.copy(root / name, work / name)
    shutil.copytree(SRC_DIR, work / "src", ignore=shutil.ignore_patterns(
        "__pycache__", "*.egg-info"))
    lib = tmp_path / "lib"
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_py", "-d", str(lib)],
        cwd=work, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    built = lib / "repro" / "stochastic"
    assert (built / "kernel.py").exists()
    assert (built / "walk.c").read_bytes() == \
        (SRC_DIR / "repro" / "stochastic" / "walk.c").read_bytes()
