"""The cached ``cc``-tier library is keyed by everything its bits depend on.

The library is built with ``-march=native``, so a binary built on one
host may use instructions another host lacks.  The cache key therefore
covers the machine architecture, the resolved compiler and its version,
and the CPU model besides the C source and flags: an artifact root
shared between hosts must never serve a library built for another CPU.

A cached library is also checked before use: a truncated file or one
that disagrees with the pure twins makes ``load()`` warn and return
``None``, and the run falls back instead of crashing.
"""

import ctypes
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.core import _ckernel


@pytest.fixture
def pinned(monkeypatch, tmp_path):
    """Pin every input of the cache key to a known value."""
    monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path))
    monkeypatch.setattr(_ckernel.platform, "machine", lambda: "x86_64")
    monkeypatch.setattr(_ckernel, "_compiler_version", lambda compiler: "cc (Example) 12.2.0")
    monkeypatch.setattr(_ckernel, "_cpu_model", lambda: "Example CPU @ 2.00GHz")
    return monkeypatch


def test_path_is_stable_for_the_same_inputs(pinned, tmp_path):
    path = _ckernel._cache_path("/usr/bin/gcc-12")
    assert path == _ckernel._cache_path("/usr/bin/gcc-12")
    assert path.parent == tmp_path / "ckernel"
    assert path.name.startswith("stretch_") and path.suffix == ".so"


@pytest.mark.parametrize(
    "attr,value",
    [
        ("machine", "aarch64"),
        ("_compiler_version", "cc (Example) 13.1.0"),
        ("_cpu_model", "Other CPU @ 3.10GHz"),
    ],
)
def test_each_machine_input_changes_the_path(pinned, attr, value):
    before = _ckernel._cache_path("/usr/bin/gcc-12")
    if attr == "machine":
        pinned.setattr(_ckernel.platform, "machine", lambda: value)
    elif attr == "_compiler_version":
        pinned.setattr(_ckernel, attr, lambda compiler: value)
    else:
        pinned.setattr(_ckernel, attr, lambda: value)
    assert _ckernel._cache_path("/usr/bin/gcc-12") != before


def test_resolved_compiler_changes_the_path(pinned):
    assert _ckernel._cache_path("/usr/bin/gcc-12") != _ckernel._cache_path("/usr/bin/clang-16")


def test_source_and_flags_still_change_the_path(pinned):
    before = _ckernel._cache_path("/usr/bin/gcc-12")
    pinned.setattr(_ckernel, "C_SOURCE", _ckernel.C_SOURCE + "\n/* edit */\n")
    edited = _ckernel._cache_path("/usr/bin/gcc-12")
    assert edited != before
    pinned.setattr(_ckernel, "CFLAGS", _ckernel.CFLAGS + ("-g",))
    assert _ckernel._cache_path("/usr/bin/gcc-12") != edited


def test_compiler_resolution_follows_cc(monkeypatch, tmp_path):
    fake = tmp_path / "my-cc"
    fake.write_text("#!/bin/sh\necho 'my-cc 1.0'\n")
    fake.chmod(0o755)
    monkeypatch.setenv("CC", str(fake))
    assert _ckernel._compiler() == str(fake.resolve())
    assert _ckernel._compiler_version(str(fake)) == "my-cc 1.0"
    monkeypatch.setenv("CC", str(tmp_path / "missing-cc"))
    assert _ckernel._compiler() is None
    assert _ckernel._compiler_version(None) == ""


def test_cpu_model_is_a_string():
    assert isinstance(_ckernel._cpu_model(), str)


# ---- load-time parity smoke ----------------------------------------------
#
# ``load()`` evaluates one fixed pair and one bounded sweep against the
# pure twins before handing the library out; a cached library that fails
# to load or disagrees makes the run fall back to the pure tier with a
# warning instead of crashing or silently changing results.

needs_cc = pytest.mark.skipif(_ckernel.LIB is None, reason="no cc kernel on this host")

_REPO = Path(__file__).resolve().parents[2]

_FALLBACK_RUN = textwrap.dedent(
    """
    from repro.core import kernels
    from repro.core.config import ComputeConfig, GloveConfig
    from repro.core.glove import glove
    from repro.core.scenarios import get_scenario
    from repro.core.pipeline import Pipeline
    from repro.core.artifacts import ArtifactStore

    assert kernels.COMPILED_TIER is None, kernels.COMPILED_TIER
    sc = get_scenario("bench").scaled(n_users=16, days=1, seed=0)
    dataset = sc.synthesize(Pipeline(ArtifactStore(root=None)))
    result = glove(dataset, GloveConfig(k=2), ComputeConfig(backend="auto"))
    assert result.dataset.is_k_anonymous(2)
    print("fallback-ok")
    """
)


def _run_with_artifact_dir(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(_REPO / "src"), env.get("PYTHONPATH", "")) if p
    )
    env["REPRO_ARTIFACT_DIR"] = str(root)
    env.pop("REPRO_CC_KERNEL", None)
    return subprocess.run(
        [sys.executable, "-c", _FALLBACK_RUN],
        capture_output=True, text=True, env=env, cwd=str(_REPO), timeout=300,
    )


@needs_cc
def test_bound_library_passes_the_smoke():
    assert _ckernel._parity_smoke(_ckernel.LIB)


@needs_cc
def test_truncated_cached_library_falls_back(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path))
    cache = _ckernel._cache_path()
    cache.parent.mkdir(parents=True)
    cache.write_bytes(Path(_ckernel.LIB._name).read_bytes()[:4096])
    with pytest.warns(RuntimeWarning, match="cannot load"):
        assert _ckernel.load() is None
    proc = _run_with_artifact_dir(tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "fallback-ok" in proc.stdout
    assert "cannot load" in proc.stderr


@needs_cc
def test_mismatching_entry_falls_back(monkeypatch):
    real_bind = _ckernel._bind

    def skewed_bind(lib):
        lib = real_bind(lib)
        entry = lib.glove_bounded_many_vs_some

        def skewed(*args):
            rc = entry(*args)
            out = args[-2]
            out[np.isfinite(out)] += 1e-12
            return rc

        lib.glove_bounded_many_vs_some = skewed
        return lib

    monkeypatch.setattr(_ckernel, "_bind", skewed_bind)
    with pytest.warns(RuntimeWarning, match="disagrees with the pure kernels"):
        assert _ckernel.load() is None


@needs_cc
def test_disagreeing_cached_library_falls_back(monkeypatch, tmp_path):
    # A library built from different source under this source's cache
    # key, as a stale or miscompiled artifact would be: the exact kernel
    # returns half the effort.
    monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path))
    compiler = _ckernel._compiler()
    cache = _ckernel._cache_path(compiler)
    skewed = _ckernel.C_SOURCE.replace("    return res;\n}", "    return res * 0.5;\n}")
    assert skewed != _ckernel.C_SOURCE
    monkeypatch.setattr(_ckernel, "C_SOURCE", skewed)
    assert _ckernel._compile(cache, compiler)
    lib = _ckernel._bind(ctypes.CDLL(str(cache)))
    assert not _ckernel._parity_smoke(lib)
    proc = _run_with_artifact_dir(tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "fallback-ok" in proc.stdout
    assert "disagrees with the pure kernels" in proc.stderr


@needs_cc
def test_truncation_check_sees_every_prefix(tmp_path):
    whole = Path(_ckernel.LIB._name).read_bytes()
    assert not _ckernel._truncated(Path(_ckernel.LIB._name))
    part = tmp_path / "part.so"
    for n in [*range(64, len(whole), max(1, len(whole) // 200)), len(whole) - 1]:
        part.write_bytes(whole[:n])
        assert _ckernel._truncated(part), n
    # Too short for an ELF header, or not ELF: left to dlopen's own error.
    part.write_bytes(whole[:40])
    assert not _ckernel._truncated(part)
    part.write_bytes(b"not a library" * 10)
    assert not _ckernel._truncated(part)
