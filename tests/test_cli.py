import json

import numpy as np
import pytest

from qrag import synthetic
from qrag.cli import main
from qrag.corpus import PAGE, load_chunks


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    bench = synthetic.make_planted_benchmark(n_docs=120, n_lexical=6, n_semantic=6, seed=5)
    synthetic.write_jsonl(bench.records, root / "corpus.jsonl")
    cfg = {"vocab_size": 6000}
    (root / "cfg.json").write_text(json.dumps(cfg), encoding="utf-8")
    synthetic.write_jsonl(
        [{"qid": q["qid"], "text": q["text"]} for q in bench.queries],
        root / "queries.jsonl",
    )
    synthetic.write_jsonl(
        [
            {"qid": qid, "chunk_id": doc_id + "#0", "rel": 1}
            for qid, doc_id in bench.targets.items()
        ],
        root / "qrels.jsonl",
    )
    return root, bench


class TestBuildAndQuery:
    def test_build_writes_index(self, workspace, capsys):
        root, _ = workspace
        code = main(
            [
                "build",
                "--corpus",
                str(root / "corpus.jsonl"),
                "--out",
                str(root / "index"),
                "--config",
                str(root / "cfg.json"),
            ]
        )
        assert code == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["chunk_count"] == 120
        assert (root / "index" / "manifest.json").exists()

    def test_build_accepts_corpus_directory(self, workspace, capsys, tmp_path):
        root, _ = workspace
        code = main(
            [
                "build",
                "--corpus",
                str(root),  # directory containing corpus.jsonl
                "--out",
                str(tmp_path / "index"),
                "--config",
                str(root / "cfg.json"),
            ]
        )
        assert code == 0
        assert (tmp_path / "index" / "manifest.json").exists()
        capsys.readouterr()

    def test_query_prints_response_json(self, workspace, capsys):
        root, bench = workspace
        q = bench.queries[0]
        code = main(
            [
                "query",
                q["text"],
                "--index",
                str(root / "index"),
                "--mode",
                "quantum_interference",
                "--k",
                "5",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "quantum_interference"
        assert len(payload["hits"]) <= 5
        assert payload["hits"][0]["chunk_id"] == bench.targets[q["qid"]] + "#0"

    def test_eval_reports_metrics(self, workspace, capsys):
        root, _ = workspace
        code = main(
            [
                "eval",
                "--index",
                str(root / "index"),
                "--queries",
                str(root / "queries.jsonl"),
                "--qrels",
                str(root / "qrels.jsonl"),
                "--ks",
                "1,5,10",
                "--run-out",
                str(root / "run.jsonl"),
                "--report-out",
                str(root / "report.json"),
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["evaluated"] == 12
        assert report["macro"]["recall@10"] > 0.9
        assert (root / "run.jsonl").exists()
        assert (root / "report.json").exists()


class TestIngest:
    def test_ingest_writes_chunks_and_stats(self, workspace, capsys):
        root, _ = workspace
        out = root / "ingested"
        code = main(
            [
                "ingest",
                "--in",
                str(root / "corpus.jsonl"),
                "--out",
                str(out),
                "--config",
                str(root / "cfg.json"),
            ]
        )
        assert code == 0
        stats = json.loads((out / "stats.json").read_text(encoding="utf-8"))
        assert stats["chunks"] == 120
        assert (out / "tokenizer.json").exists()
        # The chunk store of format 4: six arrays, every planted text in the
        # one-byte Gurmukhi page.
        with (out / "chunks.npy").open("rb") as fh:
            *_, encodings, texts = [np.lib.format.read_array(fh) for _ in range(6)]
        assert encodings.tolist() == [PAGE] * 120
        chunks = load_chunks(out)
        assert len(texts) == sum(len(c.text) for c in chunks)


class TestErrors:
    def test_missing_index_is_an_error_exit(self, tmp_path, capsys):
        code = main(["query", "x", "--index", str(tmp_path / "nope")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_manifest_that_is_not_an_object_is_an_error_exit(self, tmp_path, capsys):
        (tmp_path / "index").mkdir()
        (tmp_path / "index" / "manifest.json").write_text("[]", encoding="utf-8")
        code = main(["query", "x", "--index", str(tmp_path / "index")])
        assert code == 1
        assert "error: manifest.json: expected a JSON object" in capsys.readouterr().err

    def test_manifest_that_disagrees_with_the_vectors_is_an_error_exit(
        self, workspace, tmp_path, capsys
    ):
        # Loaded, such an index would answer every hybrid query with an error.
        root, bench = workspace
        index = tmp_path / "index"
        args = ["--out", str(index), "--config", str(root / "cfg.json")]
        assert main(["build", "--corpus", str(root / "corpus.jsonl"), *args]) == 0
        manifest = json.loads((index / "manifest.json").read_text(encoding="utf-8"))
        manifest["config"]["embedder"]["dim"] = manifest["embedder"]["dim"] = 128
        (index / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        capsys.readouterr()
        code = main(["query", bench.queries[0]["text"], "--index", str(index)])
        assert code == 1
        err = capsys.readouterr().err
        assert "error: manifest config.embedder.dim is 128, but vectors.npy holds 256" in err

    def test_misspelt_config_key_is_an_error_exit(self, workspace, tmp_path, capsys):
        root, _ = workspace
        (tmp_path / "cfg.json").write_text(
            json.dumps({"vocab_size": 6000, "fusion": {"mdoe": "rrf"}}), encoding="utf-8"
        )
        code = main(
            [
                "build",
                "--corpus",
                str(root / "corpus.jsonl"),
                "--out",
                str(tmp_path / "index"),
                "--config",
                str(tmp_path / "cfg.json"),
            ]
        )
        assert code == 1
        assert "fusion.mdoe" in capsys.readouterr().err
        assert not (tmp_path / "index").exists()

    def test_ingest_of_empty_corpus_is_an_error_exit(self, tmp_path, capsys):
        synthetic.write_jsonl(
            [{"id": "a", "text": "english only text here"}], tmp_path / "c.jsonl"
        )
        code = main(["ingest", "--in", str(tmp_path / "c.jsonl"), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "empty corpus after filtering" in capsys.readouterr().err
