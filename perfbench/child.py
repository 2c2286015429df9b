"""Run one optevo CLI command in this process and report how it went.

    python3 perfbench/child.py OUT.json TRACE -- <optevo CLI arguments>

It does what the ``optevo`` console script does (``optevo.cli.main``), with
the checkout's ``src/`` first on the import path. It also records when the
first training starts, with a one-shot wrapper that unwraps itself. With
TRACE=1 it installs the per-module timing wrappers of tracing.py. OUT.json
gets the first-training time (time.monotonic, which the parent's clock
shares), the import time of optevo.cli, the BLAS kernel and thread count,
and the trace.
"""

import ctypes
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def openblas_info() -> dict:
    """The OpenBLAS kernel and thread count this process uses, read from the
    library numpy loaded; empty when numpy uses another BLAS."""
    maps = Path("/proc/self/maps")
    libs = sorted({line.split()[-1] for line in maps.read_text().splitlines()
                   if "openblas" in line and ".so" in line}) if maps.exists() else []
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"),
                               ("openblas", "")):
            corename = getattr(lib, f"{prefix}_get_corename{suffix}", None)
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if corename is not None and threads is not None:
                corename.restype = ctypes.c_char_p
                threads.restype = ctypes.c_int
                return {"blas_core": corename().decode(), "blas_threads": threads()}
    return {}


def main() -> int:
    out_path, trace_flag, sep, *cli_argv = sys.argv[1:]
    if sep != "--" or trace_flag not in ("0", "1"):
        raise SystemExit("usage: child.py OUT.json 0|1 -- <optevo CLI arguments>")
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    started = time.perf_counter()
    import optevo.cli

    import_s = time.perf_counter() - started
    if src not in Path(optevo.cli.__file__).resolve().parents:
        raise SystemExit(f"optevo imported from {optevo.cli.__file__}, not {src}")

    import tracing

    tracer = None
    if trace_flag == "1":
        tracer = tracing.Tracer()
        tracer.install()
    marks = {}
    tracing.mark_first_call("optevo.nn", "train", marks, "first_train")
    code = optevo.cli.main(cli_argv)
    report = {
        "import_s": import_s,
        "first_train": marks.get("first_train"),
        "blas": openblas_info(),
        "trace": tracer.dump() if tracer else None,
    }
    Path(out_path).write_text(json.dumps(report), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
