"""Start ``repro serve`` with the ledger's spans around its work.

The traced ``serve-mix`` phase runs the server through this launcher
instead of ``python -m repro serve``.  Before handing its arguments to
``repro.serve.cli.main`` it wraps the ``cluster`` entry of
``repro.serve.workloads.WORKLOADS`` and ``ResultCache.get``/``put`` in
spans, and after the server drains it writes the spans as JSON::

    python benchmarks/ledger/serve_launcher.py --spans-out S.json -- \\
        --backend serial --cache DIR --port 0

Only this server process is traced; the wrappers keep each function's
module and qualified name, so cache keys and design ids do not change.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))

from tracing import Tracer, Wrappers, targets_for  # noqa: E402

#: Server span ids start here, clear of the client's.
FIRST_ID = 1_000_000_000


def _tag(config: Any) -> Dict[str, Any]:
    """The request's tag, which ties a request to its spans."""
    return {"tag": config.get("tag") if isinstance(config, dict) else None}


def _put_tag(cache: Any, key: str, fn_name: str,
             config: Optional[Any] = None, *rest: Any,
             **kwargs: Any) -> Dict[str, Any]:
    return _tag(config)


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans-out", required=True)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = [a for a in args.serve_args if a != "--"]

    from repro.serve import cli, workloads

    tracer = Tracer(first_id=FIRST_ID)
    workloads.WORKLOADS["cluster"] = tracer.coarse(
        "datacenter.cluster_run", workloads.WORKLOADS["cluster"], attrs=_tag)
    with Wrappers(tracer, targets_for(("exec",)),
                  attrs={"exec.cache_put": _put_tag}):
        code = cli.main(serve_args)
    with open(args.spans_out, "w", encoding="utf-8") as fh:
        json.dump(tracer.export(), fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
