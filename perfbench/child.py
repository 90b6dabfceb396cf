"""Run one cgwitness CLI command and record where its time went.

    python child.py STATS_JSON SPANS_JSON|- [cgwitness arguments...]

Times `import cgwitness` and `cgwitness.cli.main(argv)` inside this
process and writes them, with the process's peak RSS, to STATS_JSON. With a
SPANS_JSON path the public functions are traced and the spans written
there. With no cgwitness arguments only the import runs.
"""

import sys
import time

_t_import = time.perf_counter()
import cgwitness  # noqa: E402,F401

_t_imported = time.perf_counter()


def main() -> int:
    import json
    import resource

    stats_path, spans_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    stats = {"import_s": _t_imported - _t_import}
    rc = 0
    if argv:
        from cgwitness.cli import main as cli_main

        tracer = None
        if spans_path != "-":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            cli_main = tracer.wrap(cli_main, "cli")
        t0 = time.perf_counter()
        rc = cli_main(argv)
        stats["main_s"] = time.perf_counter() - t0
        if tracer is not None:
            tracer.dump(spans_path)
    stats["rc"] = rc
    stats["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(stats_path, "w") as fh:
        json.dump(stats, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
