"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestVersion:
    def test_version_reports_package_and_protocol(self, capsys):
        import repro
        from repro.session.protocol import PROTOCOL_VERSION

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert f"repro {repro.__version__}" in out
        assert f"protocol {PROTOCOL_VERSION}" in out


class TestServeCommand:
    def test_serve_on_ephemeral_port_round_trips(
        self, tmp_path, capsys
    ):
        """`repro serve` boots, prints its URL, and answers HTTP —
        driven through the real CLI codepath on a background thread."""
        import json
        import re
        import threading
        import time
        import urllib.request

        relation = tmp_path / "r.csv"
        relation.write_text("1,2\n3,2\n3,4\n")
        thread = threading.Thread(
            target=main,
            args=(
                [
                    "serve",
                    "--port",
                    "0",
                    "--workers",
                    "2",
                    "--relation",
                    f"R={relation}",
                    "--query",
                    "Q(x,y) :- R(x,y)",
                ],
            ),
            daemon=True,
        )
        thread.start()
        url = None
        for _ in range(100):
            match = re.search(
                r"http://[\d.]+:\d+", capsys.readouterr().out
            )
            if match:
                url = match.group(0)
                break
            time.sleep(0.05)
        assert url, "serve never printed its URL"
        request = urllib.request.Request(
            url + "/v1/session",
            data=b'{"op": "count", "order": ["x", "y"]}',
            method="POST",
        )
        for _ in range(50):  # the socket may lag the banner slightly
            try:
                with urllib.request.urlopen(
                    request, timeout=5
                ) as reply:
                    body = json.loads(reply.read().decode())
                break
            except OSError:
                time.sleep(0.05)
        else:
            pytest.fail("serve URL never became reachable")
        assert body["ok"] is True
        assert body["result"]["count"] == 3

    def test_serve_rejects_bad_relation_spec(self):
        with pytest.raises(SystemExit):
            main(["serve", "--relation", "busted"])

    def test_serve_rejects_negative_capacity(self, tmp_path):
        relation = tmp_path / "r.csv"
        relation.write_text("1,2\n")
        with pytest.raises(SystemExit):
            main(
                [
                    "serve",
                    "--relation",
                    f"R={relation}",
                    "--capacity",
                    "-1",
                ]
            )

    def test_serve_rejects_invalid_default_query(self, tmp_path):
        relation = tmp_path / "r.csv"
        relation.write_text("1,2\n")
        with pytest.raises(SystemExit):
            main(
                [
                    "serve",
                    "--port",
                    "0",
                    "--relation",
                    f"R={relation}",
                    "--query",
                    "Q(a,b) :- Missing(a,b)",
                ]
            )


class TestAnalyze:
    def test_example5(self, capsys):
        code = main(
            [
                "analyze",
                "Q(v1,v2,v3,v4,v5) :- R1(v1,v5), R2(v2,v4), "
                "R3(v3,v4), R4(v3,v5)",
                "--order",
                "v1,v2,v3,v4,v5",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "acyclic:      True" in out
        assert "incompatibility number ι = 3" in out
        assert "disruptive trio: (" in out

    def test_tractable_pair(self, capsys):
        code = main(
            ["analyze", "Q(x,y) :- R(x,y)", "--order", "x,y"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "ι = 1" in out
        assert "disruptive trio: none" in out


class TestFhtw:
    def test_triangle(self, capsys):
        code = main(["fhtw", "Q(a,b,c) :- R(a,b), S(b,c), T(c,a)"])
        out = capsys.readouterr().out
        assert code == 0
        assert "fractional hypertree width: 3/2" in out


class TestAccess:
    def test_with_csv_relations(self, tmp_path, capsys):
        r_file = tmp_path / "r.csv"
        r_file.write_text("1,2\n3,4\n# comment\n\n1,9\n")
        code = main(
            [
                "access",
                "Q(x,y) :- R(x,y)",
                "--order",
                "y,x",
                "--relation",
                f"R={r_file}",
                "--index",
                "0",
                "--median",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "3 answers" in out
        assert "answers[0] = (2, 1)" in out
        assert "median = (4, 3)" in out

    def test_bad_relation_spec(self, capsys):
        with pytest.raises(SystemExit):
            main(
                [
                    "access",
                    "Q(x) :- R(x)",
                    "--order",
                    "x",
                    "--relation",
                    "just-a-path",
                ]
            )

    def test_empty_relation_file(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("\n")
        with pytest.raises(SystemExit):
            main(
                [
                    "access",
                    "Q(x) :- R(x)",
                    "--order",
                    "x",
                    "--relation",
                    f"R={empty}",
                ]
            )


def serve_session(tmp_path, monkeypatch, lines):
    """Run ``repro session`` over the two-relation path database with
    ``lines`` (JSON text, one request each) on stdin."""
    import io

    r_file = tmp_path / "r.csv"
    r_file.write_text("1,2\n3,2\n3,4\n")
    s_file = tmp_path / "s.csv"
    s_file.write_text("2,7\n2,9\n4,1\n")
    monkeypatch.setattr("sys.stdin", io.StringIO("".join(lines)))
    return main(
        [
            "session",
            "Q(x,y,z) :- R(x,y), S(y,z)",
            "--relation",
            f"R={r_file}",
            "--relation",
            f"S={s_file}",
        ]
    )


def responses_of(capsys) -> list[dict]:
    import json

    out = capsys.readouterr().out
    return [json.loads(line) for line in out.splitlines() if line]


class TestSession:
    def test_serves_multiple_requests(self, tmp_path, monkeypatch, capsys):
        code = serve_session(
            tmp_path,
            monkeypatch,
            [
                '{"op": "access", "order": ["x", "y", "z"], '
                '"indices": [0, -1]}\n',
                '{"op": "median"}\n',
                '{"op": "page", "order": ["x", "y", "z"], '
                '"page_number": 0, "page_size": 2}\n',
                '{"op": "count", "order": ["x", "y", "z"]}\n',
                '{"op": "stats"}\n',
                '{"op": "quit"}\n',
                '{"op": "count"}\n',  # after quit: never served
            ],
        )
        replies = responses_of(capsys)
        assert code == 0
        assert [reply["op"] for reply in replies] == [
            "access", "median", "page", "count", "stats", "quit",
        ]
        assert all(reply["ok"] for reply in replies)
        access, median, page, count, stats, _ = (
            reply["result"] for reply in replies
        )
        assert access["answers"] == [[1, 2, 7], [3, 4, 1]]
        assert median["answer"] == [3, 2, 7]
        assert page["answers"][1] == [1, 2, 9]
        assert (count["count"], count["order"]) == (5, ["x", "y", "z"])
        assert stats["bag_materializations"] == 3
        assert stats["requests"] == 4

    def test_missing_relation_exits_at_startup(self, tmp_path):
        r_file = tmp_path / "r.csv"
        r_file.write_text("1,2\n")
        with pytest.raises(SystemExit):
            main(
                [
                    "session",
                    "Q(x,y) :- R(x,y)",
                    "--relation",
                    f"Wrong={r_file}",
                ]
            )

    def test_negative_capacity_exits_cleanly(self, tmp_path):
        r_file = tmp_path / "r.csv"
        r_file.write_text("1,2\n")
        with pytest.raises(SystemExit):
            main(
                [
                    "session",
                    "Q(x,y) :- R(x,y)",
                    "--relation",
                    f"R={r_file}",
                    "--capacity",
                    "-1",
                ]
            )

    def test_errors_do_not_end_the_session(
        self, tmp_path, monkeypatch, capsys
    ):
        code = serve_session(
            tmp_path,
            monkeypatch,
            [
                # out of bounds
                '{"op": "access", "order": ["x", "y", "z"], '
                '"indices": [99]}\n',
                # negative page
                '{"op": "page", "order": ["x", "y", "z"], '
                '"page_number": -1, "page_size": 5}\n',
                '{"op": "frobnicate"}\n',  # unknown command
                # still served afterwards
                '{"op": "count", "order": ["x", "y", "z"]}\n',
            ],
        )
        replies = responses_of(capsys)
        assert code == 0
        assert [reply["ok"] for reply in replies] == [
            False, False, False, True,
        ]
        assert replies[0]["error_type"] == "OutOfBoundsError"
        assert replies[-1]["result"]["count"] == 5


class TestSessionRank:
    def test_rank_round_trips(self, tmp_path, monkeypatch, capsys):
        code = serve_session(
            tmp_path,
            monkeypatch,
            [
                '{"op": "access", "order": ["x", "y", "z"], '
                '"indices": [2]}\n',
                '{"op": "rank", "order": ["x", "y", "z"], '
                '"answer": [3, 2, 7]}\n',
                '{"op": "rank", "order": ["x", "y", "z"], '
                '"answer": [9, 9, 9]}\n',
                '{"op": "quit"}\n',
            ],
        )
        replies = responses_of(capsys)
        assert code == 0
        assert replies[0]["result"]["answers"] == [[3, 2, 7]]
        assert replies[1]["result"]["rank"] == 2
        assert replies[2]["ok"]
        assert replies[2]["result"]["rank"] is None  # not an answer


class TestSessionJson:
    """Requests built from the protocol dataclasses round-trip."""

    def test_round_trip(self, tmp_path, monkeypatch, capsys):
        from repro.session import SessionRequest, SessionResponse

        requests = [
            SessionRequest(op="count", order=("x", "y", "z")),
            SessionRequest(
                op="access", order=("x", "y", "z"), indices=(0, -1)
            ),
            SessionRequest(
                op="rank", order=("x", "y", "z"), answer=(3, 4, 1)
            ),
            SessionRequest(op="median"),
            SessionRequest(op="stats"),
            SessionRequest(op="quit"),
        ]
        code = serve_session(
            tmp_path,
            monkeypatch,
            [request.to_json() + "\n" for request in requests],
        )
        out = capsys.readouterr().out
        assert code == 0
        responses = [
            SessionResponse.from_json(line)
            for line in out.splitlines()
            if line.strip()
        ]
        assert len(responses) == len(requests)
        assert all(response.ok for response in responses)
        by_op = {response.op: response for response in responses}
        assert by_op["count"].result["count"] == 5
        assert by_op["access"].result["answers"] == [
            [1, 2, 7],
            [3, 4, 1],
        ]
        assert by_op["rank"].result["rank"] == 4
        assert tuple(by_op["median"].result["answer"]) == (3, 2, 7)
        assert by_op["stats"].result["requests"] >= 3

    def test_errors_are_json_and_do_not_end_the_stream(
        self, tmp_path, monkeypatch, capsys
    ):
        code = serve_session(
            tmp_path,
            monkeypatch,
            [
                "this is not json\n",
                '{"op": "frobnicate"}\n',
                '{"op": "count", "version": 99}\n',
                '{"op": "access", "order": ["x", "y", "z"], '
                '"indices": [999]}\n',
                '{"op": "count", "order": ["x", "y", "z"]}\n',
            ],
        )
        lines = responses_of(capsys)
        assert code == 0
        assert [line["ok"] for line in lines] == [
            False,
            False,
            False,
            False,
            True,
        ]
        assert lines[-1]["result"]["count"] == 5
