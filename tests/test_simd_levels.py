"""The ranks, the distances' summation order, the rank grids' type, the
byte writer of ranks.csv and the quartiles do not depend on the SIMD
level numpy dispatches to: the kernel, golden and byte-writer tests run
again in a child process whose numpy has its AVX-512 targets switched
off (they lean on argsort, take and einsum, which numpy dispatches by
CPU feature).

``NPY_DISABLE_CPU_FEATURES`` is set in the child's environment only; it
acts on that process's numpy and on nothing else."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_features__

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
DISABLED = ("AVX512_SPR", "AVX512_ICL", "X86_V4")

CHILD = textwrap.dedent("""
    import sys
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        from numpy.core._multiarray_umath import __cpu_features__
    still_on = [f for f in sys.argv[1].split() if __cpu_features__[f]]
    if still_on:
        sys.exit(f"still dispatched to: {still_on}")
    import pytest
    sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[2:]]))
""")


@pytest.mark.skipif(not all(__cpu_features__.get(f, False) for f in DISABLED),
                    reason=f"the CPU lacks one of {', '.join(DISABLED)}")
def test_kernel_and_golden_tests_pass_without_avx512_dispatch():
    features = " ".join(DISABLED)
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=features, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, features,
         str(TESTS / "test_kernels.py"), str(TESTS / "test_golden.py"),
         f"{TESTS / 'test_io.py'}::test_unsigned_rows_are_written_as_the_d_format_writes_them"],
        capture_output=True, text=True, timeout=600, env=env, cwd=TESTS.parent)
    assert proc.returncode == 0, proc.stdout + proc.stderr
