#!/usr/bin/env python3
"""List the simulator functions that no shipped binary links.

Configures a scratch build of the repository with
`-O0 -fkeep-inline-functions -ffunction-sections -fdata-sections` and
`-Wl,--gc-sections`, builds every bench and example executable plus the
stand-alone `perfbench/` project (unedited), then prints each `pfsc::`
function that one of the `src/` static archives defines and that none of
those binaries still contains after the linker dropped unreferenced
sections. Two lists: out-of-line functions (`nm` type `T`), and
header-inline ones, which `-fkeep-inline-functions` emits as weak `W`
symbols in every object file that includes their header.

    python3 tools/dead_code_scan.py                # build-deadcode/, 4 jobs
    python3 tools/dead_code_scan.py --build-dir /tmp/dc --jobs 2

Tests are not shipped binaries and are not built, so a function that only
a test calls is listed. The exit status is 0 whatever the list holds; it is 1 only when
the build fails.
"""
import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHIPPED_DIRS = ("bench", "examples")
# A function declared in namespace pfsc (or nested in it), member or not;
# a std:: template instantiated on a pfsc type mangles as _ZSt... instead.
PFSC = re.compile(r"_ZN[KVRO]*4pfsc")
FLAGS = [
    "-DCMAKE_BUILD_TYPE=None",
    "-DCMAKE_CXX_FLAGS=-O0 -fkeep-inline-functions -ffunction-sections "
    "-fdata-sections",
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
]


def run(cmd, quiet=True):
    out = subprocess.DEVNULL if quiet else None
    subprocess.run(cmd, check=True, stdout=out)


def configure(source, build):
    """Configure `source` into `build`, asking CMake's file API for targets."""
    query = build / ".cmake" / "api" / "v1" / "query"
    query.mkdir(parents=True, exist_ok=True)
    (query / "codemodel-v2").touch()
    run(["cmake", "-S", str(source), "-B", str(build), "-G", "Ninja", *FLAGS])


def shipped_executables(build):
    """Names and paths of the executables defined under bench/ and examples/."""
    reply = build / ".cmake" / "api" / "v1" / "reply"
    index = json.loads(max(reply.glob("index-*.json")).read_text())
    model_file = index["reply"]["codemodel-v2"]["jsonFile"]
    model = json.loads((reply / model_file).read_text())
    config = model["configurations"][0]
    shipped = {i for i, d in enumerate(config["directories"])
               if d["source"].split("/")[0] in SHIPPED_DIRS}
    out = []
    for t in config["targets"]:
        if t["directoryIndex"] not in shipped:
            continue
        target = json.loads((reply / t["jsonFile"]).read_text())
        if target["type"] == "EXECUTABLE":
            out.append((target["name"], build / target["artifacts"][0]["path"]))
    return out


def nm_symbols(path, types=None):
    """Mangled defined symbols of an object file, archive or executable, as
    a name -> `nm` type map; `types` keeps only those types."""
    text = subprocess.run(["nm", "--defined-only", str(path)],
                          check=True, capture_output=True, text=True).stdout
    names = {}
    for line in text.splitlines():
        parts = line.split(" ", 2)
        if len(parts) != 3 or len(parts[1]) != 1:
            continue  # archive member headers and blank lines
        if types is not None and parts[1] not in types:
            continue
        names.setdefault(parts[2], parts[1])
    return names


def demangle(names):
    text = subprocess.run(["c++filt"], input="\n".join(names), check=True,
                          capture_output=True, text=True).stdout
    return text.splitlines()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--build-dir", type=Path, default=ROOT / "build-deadcode")
    ap.add_argument("--jobs", type=int, default=4)
    args = ap.parse_args()
    main_build = args.build_dir.resolve() / "main"
    perf_build = args.build_dir.resolve() / "perfbench"

    try:
        configure(ROOT, main_build)
        exes = shipped_executables(main_build)
        run(["cmake", "--build", str(main_build), "-j", str(args.jobs),
             "--target", *[name for name, _ in exes]])
        configure(ROOT / "perfbench", perf_build)
        run(["cmake", "--build", str(perf_build), "-j", str(args.jobs),
             "--target", "pfsc_perfbench"])
    except subprocess.CalledProcessError as err:
        print(f"dead_code_scan: build failed: {err}", file=sys.stderr)
        return 1

    defined = {}
    for archive in sorted((main_build / "src").rglob("*.a")):
        for name, kind in nm_symbols(archive, types="TW").items():
            # An out-of-line definition wins over an inline copy.
            if PFSC.match(name) and defined.get(name) != "T":
                defined[name] = kind
    linked = set()
    binaries = [path for _, path in exes] + [perf_build / "pfsc_perfbench"]
    for binary in binaries:
        linked |= nm_symbols(binary).keys()
    # Compared demangled, so the constructor and destructor variants
    # (C1/C2, D1/D2) of one function count as one.
    linked = set(demangle(sorted(linked)))

    for kind, what in (("T", "out-of-line"), ("W", "header-inline")):
        names = set(demangle(sorted(n for n, k in defined.items() if k == kind)))
        dead = sorted(names - linked)
        print(f"{len(dead)} of {len(names)} {what} pfsc:: functions in src/ "
              f"are linked by none of {len(binaries)} binaries "
              f"(benches, examples, pfsc_perfbench):")
        for name in dead:
            print(f"  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
