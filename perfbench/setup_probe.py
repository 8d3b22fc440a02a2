"""One set-up sample: a fresh interpreter imports ads3s3.cli and runs one command.

    python3 perfbench/setup_probe.py SRC_DIR bridge --f 1.6 --b 1.25 --n 3
    python3 perfbench/setup_probe.py --reference

Prints the command's exit code and the wall time in s of the import plus
the call.  With ``--reference`` it imports only the modules from outside
ads3s3 that ads3s3 imports, runs nothing and prints 0 and that time: the
part of set-up that no change to ads3s3 can move.
"""

import contextlib
import os
import sys
import time


def main():
    start = time.perf_counter()
    if sys.argv[1] == "--reference":
        import argparse, dataclasses, json, math, warnings  # noqa: E401,F401
        import numpy  # noqa: F401

        print(0, time.perf_counter() - start)
        return
    src, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, src)
    from ads3s3.cli import main as cli_main

    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        code = cli_main(argv)
    print(code, time.perf_counter() - start)


if __name__ == "__main__":
    main()
