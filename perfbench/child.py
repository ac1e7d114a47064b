"""One benchmark process: a set-up probe or a single `twistorsec verify`.

Started by ``run.py`` as ``python3 perfbench/child.py '<spec JSON>'``.  The spec
holds ``mode`` ("probe" or "verify"), ``t0`` (the parent's ``time.monotonic()``
just before it started this process), ``src`` (the checkout's ``src``
directory), ``seed`` and ``probe`` (for the oracle), ``argv`` (the CLI
arguments) and ``trace``.  The last line on stdout is the result as JSON.

Set-up is the time from ``t0`` until the CLI is entered: interpreter start
plus the imports of numpy and the package.  A probe then runs the torus
pairing oracle; a verify run calls ``cli.main`` and times it until the report
file is written.
"""

import json
import os
import resource
import sys
import time


def main(spec: dict) -> dict:
    sys.path.insert(0, spec["src"])
    from twistorsec import cli  # the import is what set-up measures

    result = {"setup_s": time.monotonic() - spec["t0"]}
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(spec["src"]) + os.sep):
        sys.exit(f"twistorsec was imported from {cli.__file__}, not from {spec['src']}")

    if spec["mode"] == "probe":
        import oracle
        result["oracle_pairs"], result["oracle_problems"] = oracle.check_pairings(
            spec["seed"], spec["probe"])
        return result
    tracer = None
    if spec["trace"]:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    result["exit_code"] = cli.main(spec["argv"])
    result["verify_s"] = time.perf_counter() - start
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["layers"] = tracer.metrics()
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
