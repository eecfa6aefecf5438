"""CLI scenarios of the ``sqlknow`` command on PATH, run on the package alone.

Run ``python path/to/tests/install_scenarios.py`` from an empty directory: each
``scenario_*`` function runs there in the order defined, sharing ``shop.sqlite``,
``kb.json`` and ``graph.json``. CI runs it after ``pip install .`` without the test
extras, so it imports only the standard library and ``sqlknow``; the steps load and
store a KB, so the record codec evaluates its type hints on each supported Python."""

import hashlib
import http.server
import json
import re
import shutil
import sqlite3
import subprocess
import threading
from contextlib import closing
from pathlib import Path

from sqlknow.linker import score_relevance
from sqlknow.schema import load_schema
from sqlknow.textproc import count_units, mask_question

SHOP = ("--db", "shop.sqlite", "--kb", "kb.json")
QUESTION = "How many SME customers placed orders?"
SCHOOLS = [{"name": "schools", "columns": [{"name": "County"}, {"name": "Website"}]}]
PAIRS = [("How many customers are there?", "SELECT COUNT(*) FROM customers"),
         ("List the names of SME customers.", "SELECT name FROM customers WHERE segment = 'SME'"),
         ("What is the total quantity ordered?", "SELECT SUM(quantity) FROM orders"),
         ("Which orders cost more than 20?", "SELECT id FROM orders WHERE price > 20"),
         ("How many orders did each customer place?",
          "SELECT customer_id, COUNT(*) FROM orders GROUP BY customer_id"),
         ("Show the names of customers who ordered more than 3 items.",
          "SELECT customers.name FROM customers JOIN orders ON orders.customer_id = customers.id"
          " WHERE orders.quantity > 3")]


def run(*args):
    """Run ``sqlknow *args``; return its exit code and its stdout."""
    done = subprocess.run(["sqlknow", *args], stdout=subprocess.PIPE, text=True, timeout=600)
    return done.returncode, done.stdout


def load(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def write_json(path, *rows):
    Path(path).write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")


def write_corpus(path, pairs, start=0):
    write_json(path, *({"id": str(i), "db_id": "shop", "question": question, "sql": sql}
                       for i, (question, sql) in enumerate(pairs, start)))


def scenario_enrich_and_mine_a_two_table_database():
    # Each manifest's token_usage is the gateway's count of every serialized
    # request and response, the same on each supported Python.
    with closing(sqlite3.connect("shop.sqlite")) as conn, conn:
        conn.execute("CREATE TABLE customers (id INTEGER PRIMARY KEY, name TEXT, segment TEXT)")
        conn.execute("CREATE TABLE orders (id INTEGER PRIMARY KEY, customer_id INTEGER"
                     " REFERENCES customers(id), quantity INTEGER, price REAL)")
        conn.executemany("INSERT INTO customers VALUES (?, ?, ?)",
                         [(i, f"c{i}", "SME" if i % 2 else "LAM") for i in range(1, 9)])
        conn.executemany("INSERT INTO orders VALUES (?, ?, ?, ?)",
                         [(i, i % 8 + 1, i % 5 + 1, 2.5 * i) for i in range(1, 31)])
    assert run("enrich-schema", *SHOP, "--mock")[0] == 0
    usage = load("kb.json.manifest.json")["token_usage"]
    assert usage == {"complete": {"calls": 14, "input_tokens": 878, "output_tokens": 604}}, usage
    assert run("mine-terms", *SHOP, "--top-k", "10", "--n-target", "20", "--mock")[0] == 0
    usage = load("kb.json.manifest.json")["token_usage"]
    assert usage == {"review": {"calls": 20, "input_tokens": 1708, "output_tokens": 1008}}, usage


def scenario_mine_with_no_review_budget():
    # A budget of 0 reviews stops mining before its first review: the stage is
    # partial (exit 2), sends nothing and stores the copy's terms as they were.
    shutil.copyfile("kb.json", "no_budget_kb.json")
    Path("no_budget.json").write_text(json.dumps({"mine": {"review_budget_factor": 0}}),
                                      encoding="utf-8")
    code, _ = run("--config", "no_budget.json", "mine-terms", "--db", "shop.sqlite",
                  "--kb", "no_budget_kb.json", "--mock")
    assert code == 2, code
    manifest = load("no_budget_kb.json.manifest.json")
    report = manifest["mining_report"]
    assert report["partial"] is True, report
    assert report["review_calls"] == report["returned"] == 0, report
    assert manifest["token_usage"] == {}, manifest["token_usage"]
    assert load("no_budget_kb.json")["terms"] == load("kb.json")["terms"]


def scenario_mine_through_an_http_endpoint_whose_body_has_no_content():
    # A body with no choices[0].message.content, such as a rate-limit error, is a
    # failed attempt: each is retried, the last ends the stage as a pipeline error
    # (exit 3) with no traceback, and the KB is left as it was.
    bodies = []

    class NoContent(http.server.BaseHTTPRequestHandler):
        def do_POST(self):
            bodies.append(self.rfile.read(int(self.headers["Content-Length"])))
            body = json.dumps({"error": {"message": "rate limited"}}).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = http.server.HTTPServer(("127.0.0.1", 0), NoContent)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        gateway = {"backend": "http", "endpoint": f"http://127.0.0.1:{server.server_port}/v1",
                   "retries": 2, "backoff_base": 0}
        Path("http.json").write_text(json.dumps({"gateway": gateway}), encoding="utf-8")
        before = Path("kb.json").read_bytes()
        done = subprocess.run(["sqlknow", "--config", "http.json", "mine-terms", *SHOP],
                              capture_output=True, text=True, timeout=600)
    finally:
        server.shutdown()
        server.server_close()
    assert done.returncode == 3, (done.returncode, done.stderr)
    assert "no reply after 2 attempts: no choices" in done.stderr, done.stderr
    assert "Traceback" not in done.stderr, done.stderr
    assert len(bodies) == 2, bodies
    assert Path("kb.json").read_bytes() == before


def scenario_flags_reach_the_manifest():
    # A command's flags are config overrides, so the manifest's config is the one
    # the run used. A copy of the KB keeps the later scenarios' terms as they are.
    shutil.copyfile("kb.json", "flags_kb.json")
    args = ("--kb", "flags_kb.json", "--top-k", "5", "--n-target", "10", "--mock")
    assert run("mine-terms", "--db", "shop.sqlite", *args)[0] == 0
    manifest = load("flags_kb.json.manifest.json")
    mine = manifest["config"]["mine"]
    assert (mine["top_k"], mine["n_target"]) == (5, 10), mine
    assert manifest["mining_report"]["returned"] == 5, manifest["mining_report"]


def scenario_count_the_units_of_a_text_outside_ascii():
    # ASCII text is counted by a byte pass; any other text by the unit regex.
    text = "na\u00efve caf\u00e9 \u2014 12.5%"
    assert count_units(text) == len(re.findall(r"\w+|[^\w\s]", text)) == 7, text


def scenario_link_a_question_through_the_word_postings():
    # Only elements that share a word or a sampled value with the question are
    # scored; the terms that share none score 0 and rank by (term_text, sql_expression).
    args = ("--question", QUESTION, "--k1", "1", "--k2", "1", "--out", "link.json")
    assert run("link", *SHOP, *args)[0] == 0
    payload = load("link.json")
    assert payload["tables"] == [["customers", 0.8333333333333334]], payload
    assert payload["columns"] == {"customers": [["customers.segment", 0.3478260869565218]]}, payload
    assert payload["expansion_added"] == [], payload
    terms = payload["terms"]
    assert len(terms) == 5 and all(t["score"] == 0.0 for t in terms), terms
    keys = [(t["term_text"], t["sql_expression"]) for t in terms]
    assert keys == sorted(keys) and keys[0][0] == "difference between segment and name", keys


def scenario_link_through_a_json_schema_whose_sample_key_is_cased_unlike_its_column():
    # The record codec builds the frozen schema, whose index is a cached_property;
    # the key SCHOOLS.county names the column schools.County in linking.
    write_json("schema.json", {"db_id": "fresno", "tables": SCHOOLS,
                               "value_samples": {"SCHOOLS.county": ["Fresno"]}})
    args = ("--question", "website in Fresno", "--k2", "1", "--out", "link.json")
    assert run("link", "--db", "schema.json", *args)[0] == 0
    payload = load("link.json")
    assert payload["tables"] == [["schools", 0.0]], payload
    assert payload["expansion_added"] == ["schools.County"], payload


def scenario_link_ignores_a_blank_value():
    # SQLite samples '' as a value (it is not NULL); a blank value occurs in no
    # question, so the nickname column scores 0 and age wins the k2 = 1 tie by name.
    with closing(sqlite3.connect("people.sqlite")) as conn, conn:
        conn.execute("CREATE TABLE people (name TEXT, nickname TEXT, age INTEGER)")
        conn.executemany("INSERT INTO people VALUES (?, ?, ?)",
                         [("Ann", "", 30), ("Bo", None, 41)])
    args = ("--question", "How many people are there?", "--k2", "1", "--out", "people.json")
    assert run("link", "--db", "people.sqlite", *args)[0] == 0
    payload = load("people.json")
    assert payload["columns"] == {"people": [["people.age", 0.0]]}, payload


def scenario_mask_and_score_a_question_spelled_with_kelvin_sign_or_long_s():
    # An ASCII question finds its surfaces in its one scan without a regex. The
    # twins with K (KELVIN SIGN) or ſ (LONG S) fall back to the boundary regex,
    # which matches them to k and s, so both spellings mask and score alike.
    write_json("kern.json", {"db_id": "kern", "tables": SCHOOLS,
                             "value_samples": {"schools.County": ["Kern", "Fresno"]}})
    schema = load_schema("kern.json")
    for q in ("website in Kern county", "website in \u212aern county"):
        assert mask_question(q, schema) == "<COL> in <VAL> <COL>", q
        score = score_relevance(q, schema).columns["schools.County"]
        assert score == 0.782608695652174, (q, score)
    masked = mask_question("website in \u017fchools", schema)
    assert masked == "<COL> in <TAB>", masked


def scenario_a_sql_dump_loads_to_the_schema_of_the_sqlite_file_it_builds():
    # The dump runs in memory under an authorizer that is cleared before
    # introspection, which on 3.10 takes the allow-all callback.
    with closing(sqlite3.connect("shop.sqlite")) as conn:
        Path("shop.sql").write_text("\n".join(conn.iterdump()) + "\n", encoding="utf-8")
    for db, kb in (("shop.sqlite", "from_sqlite.json"), ("shop.sql", "from_sql.json")):
        assert run("enrich-schema", "--db", db, "--kb", kb, "--mock")[0] == 0
    assert Path("from_sqlite.json").read_bytes() == Path("from_sql.json").read_bytes()


def scenario_two_annotators_review_at_once():
    # Both sessions may score the same Pending items; whichever way they
    # interleave, the log's lock keeps one score pair and both votes per item.
    # The votes come from a file with one line per KB item, not from `yes`,
    # which SIGPIPE ends with 141 once a session stops reading.
    kb = load("kb.json")
    items = sum(len(kb[key]) for key in ("annotations", "terms", "value_mappings"))
    Path("votes.txt").write_text("a\n" * items)
    with open("votes.txt") as alice, open("votes.txt") as bob:
        sessions = [subprocess.Popen(["sqlknow", "review", *SHOP, "--mock", "--annotator", name],
                                     stdin=votes, stdout=subprocess.DEVNULL)
                    for name, votes in (("alice", alice), ("bob", bob))]
    assert [session.wait(timeout=600) for session in sessions] == [0, 0]
    code, final = run("review", *SHOP, "--no-llm-score")
    assert code == 0 and "queue remaining: 0" in final, final


def scenario_score_a_batch_with_a_repeated_candidate_and_a_delete_on_the_read_only_db():
    # The SELECT after the DELETE runs only if the authorizer was cleared (on
    # 3.10 with the allow-all callback); the repeats share one outcome.
    count = "SELECT COUNT(*) FROM orders"
    write_json("cands.jsonl", {
        "id": "orders", "question": "How many orders are there?", "gold_sql": count,
        "candidates": [count, "DELETE FROM orders", count, "SELECT id FROM orders", count]})
    before = hashlib.sha256(Path("shop.sqlite").read_bytes()).digest()
    args = ("--candidates", "cands.jsonl", "--out", "rewards.json")
    assert run("score-reward", *SHOP, *args)[0] == 0
    assert hashlib.sha256(Path("shop.sqlite").read_bytes()).digest() == before
    payload = load("rewards.json")
    histogram = {"ExecMatch": 3, "Invalid": 1, "KnowledgeConsistent": 1}
    assert payload["tier_histogram"] == histogram, payload
    tiers = [s["tier"] for s in payload["results"][0]["scores"]]
    assert tiers == ["ExecMatch", "Invalid", "ExecMatch", "KnowledgeConsistent", "ExecMatch"], tiers


def scenario_score_the_gold_respelled_a_space_inside_its_literal_and_a_misspelled_keyword():
    # Only the first candidate has the gold's spelling, so it matches without
    # running; 'SME ' is another value, and SELEC is a syntax error.
    gold = "SELECT COUNT(*) FROM customers WHERE segment = 'SME'"
    write_json("respelled.jsonl", {
        "id": "sme", "question": "How many SME customers are there?", "gold_sql": gold,
        "candidates": ["SELECT\tCOUNT(*)\n\tFROM customers\n\tWHERE segment = 'SME'",
                       gold.replace("'SME'", "'SME '"), "SELEC COUNT(*) FROM customers"]})
    args = ("--candidates", "respelled.jsonl", "--out", "respelled.json")
    assert run("score-reward", *SHOP, *args)[0] == 0
    tiers = [s["tier"] for s in load("respelled.json")["results"][0]["scores"]]
    assert tiers[0] == "ExecMatch" and tiers[1] != "ExecMatch" and tiers[2] == "Invalid", tiers


def scenario_build_the_graph_and_the_templates_then_synthesize():
    # The offline build: hashed trigram embeddings, template similarities
    # and the gateway's token accounting, on each supported Python.
    write_corpus("corpus.jsonl", PAIRS, start=1)
    args = ("--corpus", "corpus.jsonl", "--kq", "2", "--ks", "2", "--out", "graph.json")
    assert run("build-graph", *SHOP, *args)[0] == 0
    args = ("--graph", "graph.json", "--mock", "--out", "templates.jsonl")
    assert run("build-templates", "--db", "shop.sqlite", *args)[0] == 0
    args = ("--graph", "graph.json", "--templates", "templates.jsonl", "--m-real", "40")
    assert run("synthesize", *SHOP, *args, "--mock", "--out", "synth.jsonl")[0] == 0
    lines = Path("synth.jsonl").read_bytes().count(b"\n")
    assert lines > 0 and lines % 16 == 0, lines


def scenario_build_a_graph_from_sql_with_comments_quoted_names_and_bitwise_operators():
    # Each SQL text takes a lexer alternative the rows above do not: both comment
    # forms, the three quoted-identifier forms, a doubled quote and ">>". The
    # literals ';' and '(' are values, which end no statement and open nothing. A
    # ":" before no name is no parameter, so that pair alone is dropped, with exit 2.
    # Four skeleton clusters over the four kept pairs make each skeleton a medoid.
    sqls = ["SELECT COUNT(*) FROM customers WHERE name <> ';' /* every row */ -- of it",
            "SELECT `name` FROM [customers] WHERE \"segment\" = '('",
            "SELECT id FROM customers WHERE name <> 'O''Brien'",
            "SELECT id, price >> 1 FROM orders", "SELECT :1 FROM orders"]
    write_corpus("lexed.jsonl", [(f"Question {i}?", sql) for i, sql in enumerate(sqls)])
    args = ("--corpus", "lexed.jsonl", "--kq", "2", "--ks", "4", "--out", "lexed.json")
    assert run("build-graph", "--db", "shop.sqlite", *args)[0] == 2
    dropped = load("lexed.json.manifest.json")["dropped"]
    assert dropped == [[4, "unexpected character ':' (at offset 7)"]], dropped
    skeletons = sorted(c["medoid_skeleton"] for c in load("lexed.json")["skeleton_clusters"])
    assert skeletons == ["SELECT COUNT(*) FROM _T WHERE _C <> _V",
                         "SELECT _C FROM _T WHERE _C <> _V", "SELECT _C FROM _T WHERE _C = _V",
                         "SELECT _C, _C >> _V FROM _T"], skeletons


def scenario_assemble_a_prompt_with_and_without_qa_pairs_and_exit_3_on_a_directory_as_out():
    # Only --qa-pairs renders the medoid question-SQL pairs ("1. Q: ..." lines).
    args = ("--graph", "graph.json", "--question", QUESTION)
    assert run("assemble-prompt", *SHOP, *args, "--out", "prompt.txt")[0] == 0
    assert run("assemble-prompt", *SHOP, *args, "--qa-pairs", "--out", "prompt_qa.txt")[0] == 0
    pair = re.compile(r"^[0-9]*\. Q: ", re.MULTILINE)
    assert not pair.search(Path("prompt.txt").read_text(encoding="utf-8"))
    assert pair.search(Path("prompt_qa.txt").read_text(encoding="utf-8"))
    Path("out_dir").mkdir()
    assert run("link", "--db", "shop.sqlite", "--question", QUESTION, "--out", "out_dir")[0] == 3


def scenario_a_graph_edge_naming_a_missing_cluster_exits_3_without_a_traceback():
    # graph.json cut to its first skeleton cluster keeps an edge to the second,
    # which loading refuses as a pipeline error naming the file.
    graph = load("graph.json")
    graph["skeleton_clusters"] = graph["skeleton_clusters"][:1]
    Path("cut_graph.json").write_text(json.dumps(graph), encoding="utf-8")
    args = ("--graph", "cut_graph.json", "--question", QUESTION, "--out", "cut_prompt.txt")
    done = subprocess.run(["sqlknow", "assemble-prompt", *SHOP, *args], capture_output=True,
                          text=True, timeout=600)
    assert done.returncode == 3, (done.returncode, done.stderr)
    assert "Traceback" not in done.stderr and "cut_graph.json: edge" in done.stderr, done.stderr


def scenario_a_graph_whose_medoid_is_not_a_skeleton_exits_3_without_a_traceback():
    # A medoid that skeletonize would change is not a skeleton: loading the graph
    # refuses it as a pipeline error naming the file and the cluster.
    graph = load("graph.json")
    graph["skeleton_clusters"][0]["medoid_skeleton"] = "SELECT name FROM customers"
    Path("raw_graph.json").write_text(json.dumps(graph), encoding="utf-8")
    for argv in (("assemble-prompt", *SHOP, "--question", QUESTION, "--qa-pairs",
                  "--out", "raw_prompt.txt"),
                 ("build-templates", "--db", "shop.sqlite", "--mock",
                  "--out", "raw_templates.jsonl")):
        done = subprocess.run(["sqlknow", *argv, "--graph", "raw_graph.json"],
                              capture_output=True, text=True, timeout=600)
        assert done.returncode == 3, (argv[0], done.returncode, done.stderr)
        assert "Traceback" not in done.stderr, done.stderr
        assert "raw_graph.json: skeleton_clusters[0]: " in done.stderr, done.stderr


def scenario_a_graph_whose_k_means_fits_cycle_builds_to_the_same_bytes_twice():
    # Four distinct pairs repeated to 60 lines, with 8 question and 8 skeleton
    # clusters: both fits repeat an assignment before the step cap and jump to
    # the state the cap would reach.
    write_corpus("repeated.jsonl", [PAIRS[i % 4] for i in range(60)])
    for copy in (1, 2):
        args = ("--corpus", "repeated.jsonl", "--kq", "8", "--ks", "8")
        assert run("build-graph", *SHOP, *args, "--out", f"repeated{copy}.json")[0] == 0
    assert Path("repeated1.json").read_bytes() == Path("repeated2.json").read_bytes()


def scenario_sample_a_database_in_a_read_only_directory():
    # Every connection that samples values is opened ?mode=ro, so SQLite leaves
    # no -journal, -wal or -shm file beside the database and needs no write access.
    folder = Path("read_only")
    folder.mkdir()
    shutil.copyfile("shop.sqlite", folder / "shop.sqlite")
    folder.chmod(0o555)
    try:
        db = ("--db", str(folder / "shop.sqlite"), "--kb", "read_only_kb.json")
        assert run("enrich-schema", *db, "--mock")[0] == 0
        assert run("link", *db, "--question", QUESTION, "--out", "read_only_link.json")[0] == 0
        listing = sorted(p.name for p in folder.iterdir())
        assert listing == ["shop.sqlite"], listing
    finally:
        folder.chmod(0o755)


def scenario_an_invalid_kb_exits_3_before_any_gateway_call():
    # A kb.json that store_kb would refuse, here for a duplicate value mapping, is
    # refused when read, before a stage's body runs: the error names the file.
    kb = load("kb.json")
    kb["value_mappings"].append(kb["value_mappings"][0])
    Path("invalid_kb.json").write_text(json.dumps(kb), encoding="utf-8")
    for argv in (("mine-terms", "--mock"), ("link", "--question", QUESTION, "--out", "x.json")):
        done = subprocess.run(["sqlknow", argv[0], "--db", "shop.sqlite", "--kb",
                               "invalid_kb.json", *argv[1:]], capture_output=True, text=True,
                              timeout=600)
        assert done.returncode == 3, (argv[0], done.returncode, done.stderr)
        assert "Traceback" not in done.stderr, done.stderr
        assert "invalid_kb.json: duplicate value mapping" in done.stderr, done.stderr
        assert not Path("invalid_kb.json.manifest.json").exists() and not Path("x.json").exists()
    assert load("invalid_kb.json") == kb


if __name__ == "__main__":
    for name in [name for name in globals() if name.startswith("scenario_")]:
        print(f"== {name}", flush=True)
        globals()[name]()
