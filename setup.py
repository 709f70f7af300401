"""Build script: compiles the integrator's C loop next to the package.

``src/hcflow/_core_c.c`` is plain C99 without the Python API; ``hcflow.core``
loads it with ctypes.  It includes ``_core_kernels.h``, the closed forms and
integrator constants that ``python -m hcflow._core_gen`` generates from
``_core_py``; the header is committed, so the build needs no generation step,
and ``depends`` rebuilds the library when only the header changes.  The flags
keep it bit-identical to ``_core_py``: ``-fno-builtin`` stops gcc folding
``pow(x, 2.0)`` into ``x*x`` (Python's ``**`` calls libm ``pow``), and
``-ffp-contract=off`` stops it fusing ``a*b + c``.  The extension is optional:
where it does not compile, the install goes on and ``hcflow.core`` runs the
pure-Python loop.
"""
from setuptools import Extension, setup

setup(ext_modules=[Extension(
    "hcflow._core_c", ["src/hcflow/_core_c.c"], depends=["src/hcflow/_core_kernels.h"],
    libraries=["m"], optional=True,
    extra_compile_args=["-std=c99", "-O2", "-fno-builtin", "-ffp-contract=off"])])
