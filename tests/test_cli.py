import json
import shutil

import pytest

import index_file
from qrag import synthetic
from qrag.cli import main
from qrag.engine import INDEX_FILE, STATS_FILE


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
        assert manifest == index_file.manifest(root / "index")
        assert sorted(p.name for p in (root / "index").iterdir()) == [INDEX_FILE, STATS_FILE]

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
        assert (tmp_path / "index" / INDEX_FILE).exists()
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


class TestErrors:
    def test_missing_index_is_an_error_exit(self, tmp_path, capsys):
        code = main(["query", "x", "--index", str(tmp_path / "nope")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_manifest_that_is_not_an_object_is_an_error_exit(self, tmp_path, capsys):
        # A manifest.json and no index file: a directory of format 11 or earlier.
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
        index_file.edit_manifest(index, lambda m: m["config"]["embedder"].update(dim=128))
        capsys.readouterr()
        code = main(["query", bench.queries[0]["text"], "--index", str(index)])
        assert code == 1
        err = capsys.readouterr().err
        assert "error: manifest config.embedder.dim is 128, but the vectors are 256-dim" in err

    def test_a_damaged_array_header_is_one_error_line(self, workspace, tmp_path, capsys):
        # Byte 10 opens the header dict of each store's first array. With the
        # file re-signed, the parser is reached and refuses it by name.
        root, bench = workspace
        built = tmp_path / "built"
        args = ["--out", str(built), "--config", str(root / "cfg.json")]
        assert main(["build", "--corpus", str(root / "corpus.jsonl"), *args]) == 0
        for store, names in index_file.STORES.values():
            index = tmp_path / store
            shutil.copytree(built, index)
            data = bytearray(index_file.sections(index)[names[0]])
            data[10] ^= 0xFF
            index_file.replace_sections(index, {names[0]: bytes(data)})
            capsys.readouterr()
            code = main(["query", bench.queries[0]["text"], "--index", str(index)])
            assert code == 1
            (line,) = capsys.readouterr().err.splitlines()
            assert line.startswith(f"error: {store}: the ") and "array has a damaged header" in line

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
        # There is no ingest command: build writes the one index file.
        synthetic.write_jsonl(
            [{"id": "a", "text": "english only text here"}], tmp_path / "c.jsonl"
        )
        with pytest.raises(SystemExit) as exit_:
            main(["ingest", "--in", str(tmp_path / "c.jsonl"), "--out", str(tmp_path / "o")])
        assert exit_.value.code == 2
        assert "invalid choice: 'ingest'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_build_of_empty_corpus_is_an_error_exit(self, tmp_path, capsys):
        synthetic.write_jsonl(
            [{"id": "a", "text": "english only text here"}], tmp_path / "c.jsonl"
        )
        code = main(["build", "--corpus", str(tmp_path / "c.jsonl"), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "empty corpus after filtering" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
