"""One run process of the stablespde benchmark; prints one JSON line.

    python3 child.py setup ROOT CONFIG
        import stablespde, load_config, one harness.run_check (what `check` costs)
    python3 child.py run ROOT COMMAND CONFIG OUT
        time one cli.main([COMMAND, --config CONFIG, --out OUT, --quiet])
    python3 child.py trace ROOT COMMAND CONFIG OUT SPANS
        the same with spans installed (tracer.py), written to SPANS at the end

The package is imported from ROOT/src.  The exit code is the CLI's.
"""

import json
import resource
import sys
import time
from pathlib import Path


def _usage() -> dict:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return {"cpu_s": ru.ru_utime + ru.ru_stime, "peak_rss_mb": ru.ru_maxrss * 1024 / 1e6}


def main(argv) -> int:
    mode, root = argv[0], Path(argv[1])
    src = root / "src"
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import stablespde
    from stablespde import cli, harness

    if Path(stablespde.__file__).resolve().parent != (src / "stablespde").resolve():
        print(f"stablespde imported from {stablespde.__file__}, not {src}", file=sys.stderr)
        return 3
    t1 = time.perf_counter()
    if mode == "setup":
        cfg = cli.load_config(argv[2])
        t2 = time.perf_counter()
        _, checks = harness.run_check(cfg)
        t3 = time.perf_counter()
        print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1, "check_s": t3 - t2}))
        return 0 if all(c.passed for c in checks) else 1

    command, config, out = argv[2:5]
    tracer = None
    if mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    start = time.perf_counter()
    rc = cli.main([command, "--config", config, "--out", out, "--quiet"])
    end = time.perf_counter()
    if tracer is not None:
        tracer.save(argv[5])
    print(json.dumps({"rc": rc, "wall_s": end - start, "start": start, "end": end, **_usage()}))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
