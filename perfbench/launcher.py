"""Starts the harness's child processes from a small process.

A child's ``ru_maxrss`` includes the resident memory of the process that
started it (Linux carries the old address space's peak across
``execve``), so children started by the harness, which holds a large
speed probe and NumPy, would all report at least the harness's size.
This process stays small and starts them instead.

Protocol, one JSON object per line: the harness writes
``{"argv", "env", "cwd", "log"}``; the launcher answers ``{"pid"}``,
then ``{"stopped": true}`` each time the child stops, and finally
``{"code", "maxrss_kb"}`` when it ends.
"""

import json
import os
import subprocess
import sys


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["log"], "wb") as log:
            proc = subprocess.Popen(
                request["argv"], env=request["env"], cwd=request["cwd"], stdout=log, stderr=subprocess.STDOUT
            )
        print(json.dumps({"pid": proc.pid}), flush=True)
        while True:
            _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
            if not os.WIFSTOPPED(status):
                break
            print(json.dumps({"stopped": True}), flush=True)
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"code": proc.returncode, "maxrss_kb": usage.ru_maxrss}), flush=True)


if __name__ == "__main__":
    main()
