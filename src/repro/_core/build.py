"""Build the compiled event core in place: ``python -m repro._core.build``.

A deliberately small alternative to a full ``pip install -e .[compiled]``:
one compiler invocation, driven by :mod:`sysconfig`, producing
``_cext.<abi>.so`` next to ``_cext.c`` so the source tree imports it
directly.  Useful on machines (and CI jobs) where pip cannot or should not
install anything.  Failure is not an error for the package — the pure
backend remains fully supported — so the module distinguishes "no compiler"
(exit 1 with a friendly message) from "compile error" (exit 1 with the
compiler output).

The build is incremental at file granularity: when the built ``.so`` is
newer than every C source (and this script), the cc invocation is skipped
entirely so repeated ``python -m repro._core.build`` calls (CI steps,
editor hooks) cost a stat, not a compile.  ``--force`` rebuilds
unconditionally.

``--sanitize`` builds the same sources with AddressSanitizer and
UndefinedBehaviorSanitizer (``-O1 -g``) for memory checks.  Such a build
imports only into a process that loads the ASan runtime first::

    python -m repro._core.build --sanitize
    LD_PRELOAD=$(gcc -print-file-name=libasan.so) ASAN_OPTIONS=detect_leaks=0 \
        python -m pytest -q tests/sim/test_golden_trace.py

A stamp file beside the extension marks it as a sanitizer build; a plain
build treats it as stale unless the running process has the ASan runtime
loaded, so the next ordinary ``pytest`` or ``build`` call replaces it.
"""

from __future__ import annotations

import argparse
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

HERE = Path(__file__).resolve().parent
# All translation units link into the single _cext extension module;
# _core.h is the shared header, included in the staleness inputs so editing
# it triggers a rebuild too.
SOURCES = (HERE / "_cext.c", HERE / "_chandlers.c", HERE / "_issue.c")
HEADERS = (HERE / "_core.h",)
#: Flags for every build.  Contraction into fused multiply-adds would round
#: the C running-mean arithmetic differently from Python's.
CFLAGS = ("-ffp-contract=off",)
#: Replaces -O2 in a ``--sanitize`` build.
SANITIZE_FLAGS = ("-O1", "-g", "-fno-omit-frame-pointer",
                  "-fsanitize=address,undefined")
#: Present while the built extension is a ``--sanitize`` build.
SANITIZE_STAMP = HERE / "_cext.sanitize-stamp"


def extension_path() -> Path:
    """Where the built extension lands (ABI-tagged, next to the source)."""
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    return HERE / f"_cext{suffix}"


def asan_loaded() -> bool:
    """True when this process runs with the AddressSanitizer runtime."""
    import ctypes  # noqa: PLC0415 - only sanitizer builds need it

    try:
        return hasattr(ctypes.CDLL(None), "__asan_init")
    except OSError:
        return False


def is_stale(output: Path, sanitize: bool = False) -> bool:
    """True when the built extension is missing or older than any input.

    Also true when it is the wrong kind: a sanitizer build when a plain one
    is wanted (unless this process has the ASan runtime, which is how a
    sanitizer test run keeps it), or the reverse.
    """
    if not output.exists():
        return True
    if SANITIZE_STAMP.exists() != sanitize and (sanitize or not asan_loaded()):
        return True
    built = output.stat().st_mtime
    inputs = [*SOURCES, *HEADERS, Path(__file__)]
    return any(
        source.exists() and source.stat().st_mtime >= built for source in inputs
    )


def find_compiler() -> str | None:
    """The C compiler to use, or None when the machine has none."""
    cc = sysconfig.get_config_var("CC")
    if cc:
        # CC may carry flags ("gcc -pthread"); the executable is word one.
        candidate = cc.split()[0]
        if shutil.which(candidate):
            return candidate
    for candidate in ("cc", "gcc", "clang"):
        if shutil.which(candidate):
            return candidate
    return None


def build_command(cc: str, output: Path, sanitize: bool = False) -> list:
    include = sysconfig.get_path("include")
    command = [
        cc,
        *(SANITIZE_FLAGS if sanitize else ("-O2",)),
        *CFLAGS,
        "-fno-semantic-interposition",
        "-fPIC",
        "-shared",
        f"-I{include}",
        *[str(source) for source in SOURCES],
        "-o",
        str(output),
    ]
    if sys.platform == "darwin":
        # Symbols resolve against the running interpreter at import time.
        command.insert(command.index("-shared") + 1, "-undefined")
        command.insert(command.index("-undefined") + 1, "dynamic_lookup")
    return command


def build(verbose: bool = True, force: bool = False, sanitize: bool = False) -> Path:
    """Compile the extension in place and return its path.

    Skips the compiler entirely when the built ``.so`` is already newer
    than every C source and of the requested kind (pass ``force=True`` to
    override).  ``sanitize=True`` builds with ASan and UBSan.  Raises
    ``RuntimeError`` when no compiler is available and
    ``subprocess.CalledProcessError`` when compilation fails.
    """
    output = extension_path()
    if not force and not is_stale(output, sanitize):
        if verbose:
            print(f"{output.name} is up to date (--force rebuilds)")
        return output
    cc = find_compiler()
    if cc is None:
        raise RuntimeError(
            "no C compiler found (looked for $CC, cc, gcc, clang); "
            "the pure backend remains available"
        )
    command = build_command(cc, output, sanitize)
    if verbose:
        print(" ".join(command))
    SANITIZE_STAMP.unlink(missing_ok=True)
    subprocess.run(command, check=True, capture_output=not verbose)
    if sanitize:
        SANITIZE_STAMP.touch()
    return output


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Build the repro._core compiled event core in place."
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true", help="suppress the compiler line"
    )
    parser.add_argument(
        "-f",
        "--force",
        action="store_true",
        help="recompile even when the built extension is up to date",
    )
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help="build with AddressSanitizer and UndefinedBehaviorSanitizer "
        "(-O1 -g); import it with the ASan runtime in LD_PRELOAD",
    )
    args = parser.parse_args(argv)
    try:
        output = build(verbose=not args.quiet, force=args.force, sanitize=args.sanitize)
    except RuntimeError as error:
        print(f"repro._core.build: {error}", file=sys.stderr)
        return 1
    except subprocess.CalledProcessError as error:
        print(f"repro._core.build: compilation failed ({error})", file=sys.stderr)
        return 1
    print(f"built {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
