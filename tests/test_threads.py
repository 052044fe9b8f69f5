"""BLAS thread count set by ``import hetgp``, whatever was imported first."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hetgp

SRC = str(Path(hetgp.__file__).resolve().parents[1])
THREAD_VARS = ("HETGP_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# numpy (and scipy's BLAS) load before hetgp, so the environment alone
# would come too late; the counts are read from both OpenBLAS builds
PROBE = """
import ctypes, importlib, json
import numpy
import scipy.linalg


def counts():
    out = []
    for module, symbol in (
        ("numpy._core._multiarray_umath", "scipy_openblas_get_num_threads64_"),
        ("scipy.linalg._fblas", "scipy_openblas_get_num_threads"),
    ):
        fn = getattr(ctypes.CDLL(importlib.import_module(module).__file__), symbol, None)
        out.append(None if fn is None else fn())
    return out


before = counts()
import hetgp
print(json.dumps([before, counts()]))
"""


def _run_probe(env_vars):
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(env_vars, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", PROBE], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("env_vars, expected", [
    ({}, [1, 1]),
    ({"HETGP_THREADS": "2"}, [2, 2]),
    ({"OPENBLAS_NUM_THREADS": "2"}, None),  # None: left as they were
], ids=["default", "hetgp_threads", "blas_variable"])
def test_import_sets_blas_threads_in_any_import_order(env_vars, expected):
    proc = _run_probe(env_vars)
    assert proc.returncode == 0, proc.stderr
    before, after = json.loads(proc.stdout)
    if None in after:
        pytest.skip("this BLAS build exports no OpenBLAS thread getter")
    assert after == (before if expected is None else expected)


def test_import_rejects_a_thread_count_that_is_not_a_positive_integer():
    proc = _run_probe({"HETGP_THREADS": "0"})
    assert proc.returncode != 0
    assert "HETGP_THREADS must be a positive integer" in proc.stderr
