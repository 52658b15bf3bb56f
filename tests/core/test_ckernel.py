"""The cached ``cc``-tier library is keyed by everything its bits depend on.

The library is built with ``-march=native``, so a binary built on one
host may use instructions another host lacks.  The cache key therefore
covers the machine architecture, the resolved compiler and its version,
and the CPU model besides the C source and flags: an artifact root
shared between hosts must never serve a library built for another CPU.
"""

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
