import json

import pytest

from densedyn.engine import ALPHA_C, DUP_C, LOOP_C, THRESHOLD_C
from densedyn.stream import (
    StreamFormatError,
    StreamRunError,
    oracle_replay,
    parse_stream,
    random_stream_text,
    run,
    verify,
)


class TestParse:
    def test_basic(self):
        header, events = parse_stream("h 3 ddsg 0.1\n+ 0 1\n?\n")
        assert header.n == 3 and header.mode == "ddsg" and header.epsilon == 0.1
        assert [e.kind for e in events] == ["insert", "query"]
        assert (events[0].u, events[0].v) == (0, 1)

    def test_self_loop_rejected(self):
        with pytest.raises(StreamFormatError, match="line 2"):
            parse_stream("h 3 ddsg 0.1\n+ 0 0\n")

    def test_delete_before_insert_parses(self):
        header, events = parse_stream("h 3 ddsg 0.1\n- 0 1\n")
        assert events[0].kind == "delete"

    def test_malformed_line_reports_number(self):
        with pytest.raises(StreamFormatError, match="line 3"):
            parse_stream("h 3 ddsg 0.1\n+ 0 1\n+ zero 1\n")

    def test_out_of_range_vertex(self):
        with pytest.raises(StreamFormatError, match="line 2"):
            parse_stream("h 3 ddsg 0.1\n+ 0 7\n")

    def test_missing_header(self):
        with pytest.raises(StreamFormatError):
            parse_stream("+ 0 1\n")

    def test_duplicate_header(self):
        with pytest.raises(StreamFormatError, match="line 2"):
            parse_stream("h 3 ddsg 0.1\nh 3 ddsg 0.1\n")

    def test_weights_vwdsg_only(self):
        header, _ = parse_stream("h 3 vwdsg 0.2\nw 1 2.5\n+ 0 1\n")
        assert header.weight_list() == [1.0, 2.5, 1.0]
        with pytest.raises(StreamFormatError):
            parse_stream("h 3 ddsg 0.2\nw 1 2.5\n")

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
    def test_non_finite_weight_rejected(self, weight):
        with pytest.raises(StreamFormatError, match="line 2"):
            parse_stream(f"h 3 vwdsg 0.2\nw 0 {weight}\n+ 0 1\n?\n")

    def test_weights_must_precede_updates(self):
        with pytest.raises(StreamFormatError, match="line 3"):
            parse_stream("h 3 vwdsg 0.2\n+ 0 1\nw 1 2.5\n")

    def test_blank_lines_skipped(self):
        _, events = parse_stream("h 2 ddsg 0.3\n\n+ 0 1\n\n?\n")
        assert len(events) == 2

    def test_bad_epsilon(self):
        with pytest.raises(StreamFormatError):
            parse_stream("h 3 ddsg 1.5\n")


class TestRun:
    def test_single_edge_query(self):
        header, events = parse_stream("h 3 ddsg 0.2\n+ 0 1\n?\n")
        report = run(header, events)
        assert len(report.queries) == 1
        q = report.queries[0]
        assert q["estimate"] == pytest.approx(1.0, rel=0.25)
        assert q["sources"] == [0] and q["sinks"] == [1]

    def test_empty_stream(self):
        header, events = parse_stream("h 3 ddsg 0.2\n")
        report = run(header, events)
        assert report.queries == [] and report.events == 0

    def test_vwdsg_mode_with_weights(self):
        text = "h 3 vwdsg 0.2\nw 0 2.0\n+ 0 1\n+ 1 2\n?\n"
        header, events = parse_stream(text)
        report = run(header, events)
        q = report.queries[0]
        assert q["estimate"] > 0
        assert "vertices" in q

    def test_delete_absent_reports_event_index(self):
        header, events = parse_stream("h 3 ddsg 0.2\n- 0 1\n")
        with pytest.raises(StreamRunError, match="event 0"):
            run(header, events)

    def test_determinism(self):
        text = random_stream_text(6, "ddsg", 0.3, 40, seed=5, query_every=10)
        header, events = parse_stream(text)
        a = run(header, events).to_jsonl()
        b = run(header, events).to_jsonl()
        assert a == b

    def test_counter_conservation(self):
        text = random_stream_text(6, "ddsg", 0.3, 30, seed=2, query_every=0)
        header, events = parse_stream(text)
        report = run(header, events)
        c = report.counters
        assert c["flips"] <= c["arcs_inc"] + c["arcs_dec"]
        assert c["label_resets"] <= c["arcs_inc"] + c["arcs_dec"]

    def test_config_echoes_engine_constants(self):
        header, events = parse_stream("h 3 vwdsg 0.2\n+ 0 1\n?\n")
        assert run(header, events, eps=0.3).config == {
            "n": 3,
            "mode": "vwdsg",
            "eps": 0.3,
            "alpha_c": ALPHA_C,
            "loop_c": LOOP_C,
            "dup_c": DUP_C,
            "threshold_c": THRESHOLD_C,
        }

    def test_jsonl_shape(self):
        header, events = parse_stream("h 3 ddsg 0.2\n+ 0 1\n?\n")
        text = run(header, events).to_jsonl()
        lines = text.strip().split("\n")
        assert len(lines) == 2
        assert json.loads(lines[0])["type"] == "query"
        summary = json.loads(lines[1])
        assert summary["type"] == "summary"
        assert "timings" not in summary
        timed = run(header, events).to_jsonl(include_timings=True)
        assert "timings" in json.loads(timed.strip().split("\n")[-1])


class TestGolden:
    """Exact counters and returned sets of two seeded streams.  Any change
    to them is a change to ``run`` reports and must be recorded as one."""

    def test_ddsg(self):
        text = random_stream_text(6, "ddsg", 0.3, 60, seed=5, query_every=15)
        report = run(*parse_stream(text))
        assert report.counters == {
            "arcs_inc": 6346, "arcs_dec": 7669, "flips": 4389, "copies_moved": 25613,
            "label_resets": 3162, "max_chain_inc": 10, "max_chain_dec": 11,
            "inserts": 30624, "deletes": 25056,
        }
        assert [(q["index"], q["sources"], q["sinks"], q["regime"]) for q in report.queries] == [
            (15, [0, 4, 5], [1], "low"),
            (31, [0, 1, 2], [0, 1, 2, 3, 4, 5], "low"),
            (47, [1], [0, 3, 5], "low"),
            (63, [1, 2, 4], [0, 1, 3, 5], "low"),
            (64, [1, 2, 4], [0, 1, 3, 5], "low"),
        ]

    def test_weighted_vwdsg(self):
        head, _, body = random_stream_text(12, "vwdsg", 0.25, 80, seed=6, query_every=20).partition("\n")
        report = run(*parse_stream(f"{head}\nw 0 3.0\nw 4 1.5\nw 7 6.0\n{body}"))
        assert report.counters == {
            "arcs_inc": 4934, "arcs_dec": 5554, "flips": 3694, "copies_moved": 36350,
            "label_resets": 3246, "max_chain_inc": 14, "max_chain_dec": 12,
            "inserts": 21330, "deletes": 10270,
        }
        assert [(q["index"], q["vertices"], q["prefix_level"]) for q in report.queries] == [
            (20, [1, 4, 5, 8, 11], 211),
            (41, [1, 2, 3, 4, 5, 6, 8, 9, 10, 11], 313),
            (62, [1, 2, 3, 5, 6, 8, 9, 10, 11], 366),
            (83, [0, 1, 2, 3, 4, 5, 6, 8, 10, 11], 372),
            (84, [0, 1, 2, 3, 4, 5, 6, 8, 10, 11], 372),
        ]


class TestVerify:
    def test_single_edge_ratio_one(self):
        header, events = parse_stream("h 2 ddsg 0.2\n+ 0 1\n?\n")
        report = verify(header, events)
        assert report.ok
        assert report.worst_ratio == pytest.approx(1.0)

    def test_empty_query_both_zero(self):
        header, events = parse_stream("h 2 ddsg 0.2\n?\n")
        report = verify(header, events)
        assert report.ok
        assert report.queries[0]["estimate"] == 0.0
        assert report.queries[0]["optimum"] == 0.0

    def test_random_stream_clean(self):
        text = random_stream_text(5, "ddsg", 0.25, 24, seed=9, query_every=8)
        header, events = parse_stream(text)
        report = verify(header, events)
        assert report.ok
        assert report.worst_ratio >= 1 - 3 * 0.25

    def test_vwdsg_mode(self):
        text = "h 4 vwdsg 0.25\nw 2 3.0\n+ 0 1\n+ 1 2\n+ 0 2\n?\n"
        header, events = parse_stream(text)
        report = verify(header, events)
        assert report.ok

    def test_rejects_large_n(self):
        header, events = parse_stream("h 64 ddsg 0.2\n?\n")
        with pytest.raises(ValueError):
            verify(header, events)


class TestOracleReplay:
    def test_records_optima(self):
        header, events = parse_stream("h 3 ddsg 0.2\n+ 0 1\n?\n+ 1 2\n?\n")
        records = oracle_replay(header, events)
        assert len(records) == 2
        assert records[0]["optimum"] == pytest.approx(1.0)
        assert records[1]["optimum"] >= records[0]["optimum"] - 1e-12

    def test_vwdsg(self):
        header, events = parse_stream("h 3 vwdsg 0.2\n+ 0 1\n+ 1 2\n+ 0 2\n?\n")
        records = oracle_replay(header, events)
        assert records[0]["optimum"] == pytest.approx(1.0)
        assert records[0]["vertices"] == [0, 1, 2]


class TestEntryPointsAgree:
    @pytest.mark.parametrize(
        "mode, n, seed, weights",
        [
            ("ddsg", 5, 1, ()),
            ("ddsg", 7, 2, ()),
            ("vwdsg", 8, 3, ()),
            ("vwdsg", 12, 4, ((0, 2.0), (5, 3.5), (11, 1.25))),
        ],
    )
    def test_estimates_and_optima_match(self, mode, n, seed, weights):
        head, _, body = random_stream_text(n, mode, 0.25, 40, seed=seed, query_every=8).partition("\n")
        weight_lines = "".join(f"w {v} {w}\n" for v, w in weights)
        header, events = parse_stream(f"{head}\n{weight_lines}{body}")
        ran = run(header, events).queries
        checked = verify(header, events).queries
        exact = oracle_replay(header, events)
        assert len(ran) == 6
        assert [q["index"] for q in ran] == [q["index"] for q in checked] == [q["index"] for q in exact]
        assert [q["estimate"] for q in checked] == [q["estimate"] for q in ran]
        assert [q["optimum"] for q in checked] == [q["optimum"] for q in exact]

    @pytest.mark.parametrize("mode", ["ddsg", "vwdsg"])
    def test_bad_delete_names_same_event(self, mode):
        header, events = parse_stream(f"h 5 {mode} 0.3\n+ 0 1\n?\n\n- 2 3\n?\n")
        for replay in (run, verify, oracle_replay):
            with pytest.raises(StreamRunError, match=r"^event 2 \(line 5\): "):
                replay(header, events)


class TestRandomStream:
    def test_deterministic(self):
        a = random_stream_text(10, "ddsg", 0.2, 100, seed=4, query_every=25)
        b = random_stream_text(10, "ddsg", 0.2, 100, seed=4, query_every=25)
        assert a == b

    def test_parses_and_balances(self):
        text = random_stream_text(10, "vwdsg", 0.2, 200, seed=4)
        header, events = parse_stream(text)
        assert header.mode == "vwdsg"
        assert sum(1 for e in events if e.kind != "query") == 200
        live = 0
        for e in events:
            if e.kind == "insert":
                live += 1
            elif e.kind == "delete":
                live -= 1
                assert live >= 0
