"""Command-line interface.

Subcommands: build (build all indexes from a raw corpus), query (print a
retrieval response as JSON), eval (run a query set against qrels and print
metrics), serve (HTTP search service).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from . import engine as engine_mod
from . import evalkit
from .quantum import FUSION_MODES
from .service import serve_forever


def _load_config(path: str | None) -> engine_mod.EngineConfig:
    if path is None:
        return engine_mod.EngineConfig()
    return engine_mod.EngineConfig.from_json_file(path)


def _cmd_build(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    corpus = Path(args.corpus)
    if corpus.is_dir():
        corpus = corpus / "corpus.jsonl"
    if not corpus.exists():
        print(f"error: no corpus file at {corpus}", file=sys.stderr)
        return 1
    manifest = engine_mod.build_all(corpus, cfg, args.out)
    print(json.dumps(manifest.to_dict(), ensure_ascii=False, sort_keys=True))
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    engine = engine_mod.load_index(args.index)
    response = engine.retrieve(args.text, mode=args.mode, k_final=args.k)
    print(response.to_json())
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    engine = engine_mod.load_index(args.index)
    queries = evalkit.load_queries(args.queries)
    qrels = evalkit.load_qrels(args.qrels)
    ks = [int(k) for k in args.ks.split(",") if k]
    depth = max(ks)
    run = {
        qid: [h.chunk_id for h in engine.retrieve(text, mode=args.mode, k_final=depth).hits]
        for qid, text in queries
    }
    report = evalkit.evaluate_run(run, qrels, ks)
    if args.run_out:
        evalkit.write_run(run, args.run_out)
    if args.report_out:
        evalkit.write_report(report, args.report_out)
    print(json.dumps(report.to_dict(), ensure_ascii=False, indent=2, sort_keys=True))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    host, _, port = args.addr.rpartition(":")
    engine = engine_mod.load_index(args.index)
    serve_forever(engine, host or "127.0.0.1", int(port))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qrag", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build all indexes from a raw JSONL corpus")
    p.add_argument(
        "--corpus",
        required=True,
        help="raw corpus.jsonl, or a directory containing corpus.jsonl",
    )
    p.add_argument("--out", required=True, help="index directory")
    p.add_argument("--config", help="engine config JSON")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("query", help="run one query and print the response JSON")
    p.add_argument("text")
    p.add_argument("--index", required=True)
    p.add_argument("--mode", choices=FUSION_MODES)
    p.add_argument("--k", type=int)
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("eval", help="evaluate a query set against qrels")
    p.add_argument("--index", required=True)
    p.add_argument("--queries", required=True, help="queries.jsonl")
    p.add_argument("--qrels", required=True, help="qrels.jsonl")
    p.add_argument("--ks", default="1,5,10", help="comma-separated cutoffs")
    p.add_argument("--mode", choices=FUSION_MODES)
    p.add_argument("--run-out", help="write run.jsonl here")
    p.add_argument("--report-out", help="write report.json here")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("serve", help="serve the HTTP search API")
    p.add_argument("--index", required=True)
    p.add_argument("--addr", default="127.0.0.1:8080", help="host:port")
    p.set_defaults(func=_cmd_serve)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, FileNotFoundError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
