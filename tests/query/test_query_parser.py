"""Tests for the query string syntax parser."""

import dataclasses
import pickle

import pytest

from repro.query import LabelMatcher, MetricQuery, QueryParseError, parse_duration, parse_query


class TestParseDuration:
    def test_units(self):
        assert parse_duration("300s") == 300.0
        assert parse_duration("5m") == 300.0
        assert parse_duration("1h") == 3600.0
        assert parse_duration("90") == 90.0
        assert parse_duration("1.5m") == 90.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            parse_duration("5 parsecs")
        with pytest.raises(ValueError):
            parse_duration("")


class TestParseQuery:
    def test_minimal(self):
        q = parse_query("mean(node_cpu_util)")
        assert q == MetricQuery("node_cpu_util")

    def test_full_expression(self):
        q = parse_query('mean(node_cpu_util{node=~"n0.*"}[300s] by 30s) group by (node)')
        assert q.metric == "node_cpu_util"
        assert q.agg == "mean"
        assert q.matchers == (LabelMatcher("node", "=~", "n0.*"),)
        assert q.range_s == 300.0
        assert q.step_s == 30.0
        assert q.group_by == ("node",)

    def test_all_matcher_ops(self):
        q = parse_query('sum(m{a="x",b!="y",c=~"z.*",d!~"w+"}[60s])')
        assert [m.op for m in q.matchers] == ["=", "!=", "=~", "!~"]

    def test_minute_units_in_range_and_step(self):
        q = parse_query("p95(node_power_watts[10m] by 1m)")
        assert q.range_s == 600.0 and q.step_s == 60.0

    def test_rate(self):
        q = parse_query('rate(job_progress_steps{job="j1"}[600s] by 60s)')
        assert q.agg == "rate"

    def test_multi_group_by(self):
        q = parse_query("max(node_temp_celsius[1h]) group by (rack,node)")
        assert q.group_by == ("rack", "node")

    def test_whitespace_tolerant(self):
        q = parse_query('  mean( node_cpu_util { node = "n1" } [ 300s ]  )  ')
        assert q.matchers == (LabelMatcher("node", "=", "n1"),)

    def test_regex_value_with_brace_quantifier(self):
        q = parse_query('mean(node_cpu_util{node=~"n[0-9]{2}"}[300s])')
        assert q.matchers == (LabelMatcher("node", "=~", "n[0-9]{2}"),)

    def test_value_with_comma_inside_quotes(self):
        q = parse_query('sum(m{node=~"a,b",rack="r1"})')
        assert q.matchers == (
            LabelMatcher("node", "=~", "a,b"),
            LabelMatcher("rack", "=", "r1"),
        )

    def test_matchers_missing_comma_rejected(self):
        with pytest.raises(QueryParseError, match="expected ','"):
            parse_query('sum(m{a="x" b="y"})')

    @pytest.mark.parametrize(
        "bad",
        [
            "not a query",
            "mean()",
            "mean(node_cpu_util",
            "bogus(node_cpu_util)",
            'mean(m{node~"x"})',
            "mean(m[nope])",
            "mean(m) group by ()",
            'mean(m{node=~"["})',  # invalid regex
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(QueryParseError):
            parse_query(bad)

    def test_roundtrip_canonical(self):
        exprs = [
            "mean(node_cpu_util)",
            'mean(node_cpu_util{node=~"n0.*"}[300s] by 30s) group by (node)',
            "rate(job_progress_steps[600s] by 60s)",
            'p99(m{a!="b"}[90s])',
        ]
        exprs.append('mean(m{node=~"n[0-9]{2},x"}[60s])')
        for expr in exprs:
            q = parse_query(expr)
            assert parse_query(q.to_expr()) == q


class TestLabelMatcher:
    def test_equality_ops(self):
        assert LabelMatcher("n", "=", "x").matches("x")
        assert not LabelMatcher("n", "=", "x").matches("y")
        assert LabelMatcher("n", "!=", "x").matches("y")

    def test_regex_fully_anchored(self):
        m = LabelMatcher("n", "=~", "n0")
        assert m.matches("n0")
        assert not m.matches("n01")  # no partial match

    def test_absent_label_is_empty_string(self):
        assert LabelMatcher("n", "!=", "x").matches(None)
        assert LabelMatcher("n", "=~", "").matches(None)

    def test_invalid_op_rejected(self):
        with pytest.raises(ValueError):
            LabelMatcher("n", "~", "x")


class TestMetricQueryValidation:
    def test_bad_agg(self):
        with pytest.raises(ValueError):
            MetricQuery("m", agg="median-ish")

    def test_bad_range(self):
        with pytest.raises(ValueError):
            MetricQuery("m", range_s=-1.0)

    def test_bad_step(self):
        with pytest.raises(ValueError):
            MetricQuery("m", step_s=0.0)

    def test_bad_metric_name(self):
        with pytest.raises(ValueError):
            MetricQuery("9metric")


class TestMetricQueryHash:
    def test_hash_is_memoised_and_follows_equality(self):
        q = parse_query('mean(m{node=~"a|b"}[60s] by 10s) group by (node)')
        same = parse_query(q.to_expr())
        assert q == same and q is not same
        assert hash(q) == hash(same) == hash(q)
        assert q.__dict__["_hash"] == hash(q)
        assert {q: 1}[same] == 1
        assert hash(dataclasses.replace(q, matchers=())) != hash(q)
        assert repr(q) == repr(same) and "_hash" not in repr(q)

    def test_memo_is_not_pickled(self):
        q = parse_query("max(m[30s]) group by (job)")
        hash(q)
        back = pickle.loads(pickle.dumps(q))
        assert back == q and "_hash" not in back.__dict__
        assert hash(back) == hash(q)
