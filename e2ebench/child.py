"""One workload run in its own process: ``python3 e2ebench/child.py SPEC.json``.

SPEC holds ``workload``, ``params`` (see ``workloads.params``), ``trace``,
``work_dir`` and ``run_id``. The run's measurements go to
``work_dir/result.json``; with tracing on, the spans go to
``work_dir/spans.jsonl`` and the per-layer metrics into the result. The
process exists so that ``peak_rss_mb`` belongs to this run alone.
"""

from __future__ import annotations

import json
import os
import resource
import sys

from spans import Tracer, layer_metrics
from workloads import run_once


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    work_dir = spec["work_dir"]
    import coresel

    result: dict = {"numba_enabled": getattr(coresel, "NUMBA_ENABLED", None)}
    if spec["trace"]:
        with Tracer(spec["run_id"]) as tracer:
            result.update(run_once(spec["workload"], spec["params"], work_dir))
        tracer.write(os.path.join(work_dir, "spans.jsonl"))
        result["layers"], result["left_out"] = layer_metrics(tracer)
        result["missing_targets"] = tracer.missing
    else:
        result.update(run_once(spec["workload"], spec["params"], work_dir))
    # ru_maxrss is in KiB on Linux.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(os.path.join(work_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
