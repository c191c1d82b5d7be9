"""Build script with an optional compiled rollout kernel.

The package is fully functional without the extension (a pure-Python
kernel is selected at import time); the hand-written C module
src/vib2move/_native.c only accelerates the hot per-step sliding loop
and needs nothing but a C compiler. Any failure to compile it is
therefore non-fatal.
"""

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class optional_build_ext(build_ext):
    """build_ext that degrades to the pure-Python kernel on any error."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # compiler or toolchain missing
            print(f"skipping compiled kernel ({exc}); pure-Python fallback will be used")

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            print(f"skipping {ext.name} ({exc}); pure-Python fallback will be used")


native = Extension(
    "vib2move._native",
    ["src/vib2move/_native.c"],
    # keep float semantics identical to the pure-Python kernel so
    # trajectories are bit-reproducible across backends: no fast-math,
    # no FMA contraction, and no cos+sin -> sincos fusion (glibc's
    # sincos rounds differently than separate calls)
    extra_compile_args=[
        "-O3",
        "-ffp-contract=off",
        "-fno-builtin-sin",
        "-fno-builtin-cos",
    ],
)

setup(ext_modules=[native], cmdclass={"build_ext": optional_build_ext})
