"""Build script: compiles the optional kernel extension.

The package is fully functional without the extension (a pure-Python
implementation of every kernel ships alongside it), so the extension is
marked optional: a failed compile degrades to the pure backend instead of
failing the install.  With Cython installed the extension is built from
``_speedups.pyx``; without it, from the ``_speedups.c`` generated from that
file and shipped beside it.
"""

from setuptools import Extension, setup

try:
    from Cython.Build import cythonize
except ImportError:
    cythonize = None

source = "_speedups.pyx" if cythonize else "_speedups.c"
extensions = [
    Extension(
        "hamholes._kernels._speedups",
        [f"src/hamholes/_kernels/{source}"],
        extra_compile_args=["-O3"],
        optional=True,
    )
]
if cythonize:
    extensions = cythonize(extensions, compiler_directives={"language_level": "3"})

setup(ext_modules=extensions)
