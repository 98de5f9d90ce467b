"""Build script: compiles the optional kernel extension.

The package is fully functional without the extension (a pure-Python
implementation of every kernel ships alongside it), so the extension is
marked optional: a failed compile degrades to the pure backend instead of
failing the install.  It is always built from the ``_speedups.c`` shipped
beside ``_speedups.pyx``; after editing the ``.pyx``, regenerate the ``.c``
with ``cython -3 src/hamholes/_kernels/_speedups.pyx``.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "hamholes._kernels._speedups",
            ["src/hamholes/_kernels/_speedups.c"],
            extra_compile_args=["-O3"],
            optional=True,
        )
    ]
)
