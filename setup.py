"""Build glue for the optional native solver core.

The repository is a plain ``PYTHONPATH=src`` layout and needs no
installation step; this file exists solely to compile the C extension
``repro.sat._native._kernel`` in place::

    python setup.py build_ext --inplace

(or ``make native``).  With ``package_dir = {"": "src"}`` the built
``.so`` lands next to ``src/repro/sat/_native/__init__.py``, where the
auto-detect seam picks it up on the next interpreter start.  Everything
works without it — the pure-Python core is the reference
implementation — so no part of the toolchain requires this to succeed.

The extension is deliberately built WITHOUT ``-ffast-math`` or any
other flag that changes IEEE-754 semantics: the parity guarantee
(byte-identical trajectories between cores) relies on C doubles
behaving exactly like CPython floats.  ``-fexcess-precision=standard``
makes that explicit on targets where the default FPU keeps excess
precision (i386/x87): without it, activity comparisons like ``pa > a``
could see 80-bit intermediates and diverge from the Python twin.  On
x86-64 (SSE2 doubles) the flag is a no-op.
"""

from setuptools import Extension, setup

setup(
    name="repro-native-kernel",
    version="1.21.0",
    package_dir={"": "src"},
    packages=[],
    ext_modules=[
        Extension(
            "repro.sat._native._kernel",
            sources=["src/repro/sat/_native/_kernel.c"],
            extra_compile_args=[
                "-O2",
                "-std=c99",
                # pin double rounding to IEEE-754 on x87 targets; see
                # the module docstring for the parity rationale
                "-fexcess-precision=standard",
            ],
        )
    ],
)
