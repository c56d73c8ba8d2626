"""Runs CLI processes for cli-cold on request and reports their peak RSS.

Usage: python3 perfbench/spawner.py   (requests on stdin, replies on stdout)

Each request is one JSON line {"cmd", "cwd", "stdout", "stderr"}; the reply is
one JSON line {"code", "maxrss_kb"}. A child's ru_maxrss counts the peak RSS
of the process that started it, so the benchmark, which holds numpy and its
inputs, starts its CLI processes from this small one: what it reports is then
the CLI process's own peak. It exits when stdin closes.
"""

import json
import os
import subprocess
import sys


def main() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as fo, open(req["stderr"], "wb") as fe:
            proc = subprocess.Popen(req["cmd"], stdout=fo, stderr=fe, cwd=req["cwd"])
            _, status, usage = os.wait4(proc.pid, 0)
        reply = {"code": os.waitstatus_to_exitcode(status), "maxrss_kb": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
