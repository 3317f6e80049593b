#!/usr/bin/env python3
"""Stable-test-name guard: no gtest case may be named by a byte dump.

gtest names a value-parameterized case by printing its parameter. A struct
without a PrintTo overload prints as "N-byte object <hex bytes>", and those
bytes include padding and pointers, so the name can change from one listing
to the next and ctest then runs a test that no longer exists. Lists the
cases of GTRIX_TESTS and fails on any byte-dump name.

Usage: tests/stable_test_names_test.py GTRIX_TESTS_BINARY
"""
import subprocess
import sys

BYTE_DUMP = "-byte object <"


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    proc = subprocess.run([argv[1], "--gtest_list_tests"], capture_output=True, text=True,
                          timeout=120)
    if proc.returncode != 0:
        print(f"stable_test_names_test: FAIL: listing exited {proc.returncode}\n{proc.stderr}",
              file=sys.stderr)
        return 1
    suite = ""
    dumped = []
    for line in proc.stdout.splitlines():
        if not line.startswith(" "):
            suite = line.strip()
        elif BYTE_DUMP in line:
            dumped.append(suite + line.strip())
    if dumped:
        print(f"stable_test_names_test: FAIL: {len(dumped)} case(s) named by a byte dump; "
              "give the parameter struct a PrintTo overload:", file=sys.stderr)
        for name in dumped:
            print(f"  {name}", file=sys.stderr)
        return 1
    print("stable_test_names_test: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
