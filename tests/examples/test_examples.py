"""Every example must run clean from a fresh interpreter.

Examples are documentation that executes; these smoke tests keep them
from rotting. Each asserts on a line the example prints only when its
own internal verification passed.
"""

import os
import subprocess
import sys

import pytest

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "..",
                        "examples")


def run_example(name: str, timeout: int = 240) -> str:
    proc = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES, name)],
        capture_output=True, text=True, timeout=timeout)
    assert proc.returncode == 0, \
        f"{name} failed:\n{proc.stdout}\n{proc.stderr}"
    return proc.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert "Listing 1: ring pattern" in out
    assert "consolidated into ONE" in out
    assert "1 MPI_Waitall" in out or "MPI_Waitall" in out


def test_wl_lsms_demo():
    out = run_example("wl_lsms_demo.py")
    assert "identical energies ✓" in out
    assert "speedup vs original" in out


def test_static_translation():
    out = run_example("static_translation.py")
    assert "MPI_Type_create_struct" in out
    assert "shmem_" in out
    assert "classified pattern: 'ring'" in out
    assert "matching issues: none" in out


def test_halo_stencil():
    out = run_example("halo_stencil.py")
    assert "max|parallel - serial|" in out
    assert "overlapped" in out


def test_stencil2d():
    out = run_example("stencil2d.py")
    # 3 grids on each of the 3 targets.
    assert out.count("max error 0.00e+00") == 9
    assert "communication matrix" in out


def test_fault_injection():
    out = run_example("fault_injection.py")
    assert "data identical on all 5 ranks" in out
    assert "<- stalled" in out
    assert "failed ranks: [2]" in out
    assert "passed" in out
